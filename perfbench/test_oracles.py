"""Tests of the benchmark's oracles and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench

The oracles must agree with the program's own slow reference paths where
those are exact, and must reject a perturbed output.
"""

import io
import json
import contextlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import maxchar  # noqa: E402
from maxchar import cli, level_sets  # noqa: E402
from maxchar.bv import BVFunction1D  # noqa: E402
from maxchar.geometry import UniformGrid  # noqa: E402
from maxchar.maximal import RadiusGrid, oscillation_field, \
    oscillation_point  # noqa: E402
from maxchar.measure import GridFunction, Measure  # noqa: E402

import checks  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _random_bv(rng):
    bp = np.sort(rng.uniform(-1.0, 1.0, 5))
    spec = {"breakpoints": list(bp), "slopes": list(rng.normal(0, 2, 4)),
            "jumps": [[float(x), float(rng.normal())]
                      for x in rng.uniform(-1.0, 1.0, 2)],
            "initial_value": float(rng.normal())}
    return spec


def test_bv_values_match_the_program():
    rng = np.random.default_rng(0)
    for _ in range(20):
        spec = _random_bv(rng)
        f = BVFunction1D(tuple(spec["breakpoints"]), tuple(spec["slopes"]),
                         jumps=tuple(map(tuple, spec["jumps"])),
                         initial_value=spec["initial_value"])
        x = np.concatenate([rng.uniform(-2, 2, 50),
                            [j[0] for j in spec["jumps"]]])
        assert np.allclose(oracles.bv_values(spec, x), f.value(x),
                           rtol=1e-12, atol=1e-12)


def test_oscillation_matches_oscillation_point_on_a_small_grid():
    # No radius is a multiple of the spacing here; at r = 4h the two
    # program paths disagree (the next two tests).
    rng = np.random.default_rng(1)
    for _ in range(5):
        spec = _random_bv(rng)
        grid = UniformGrid.cover_cells([-1.5], [1.5], 0.02)
        samples = oracles.bv_values(spec, grid.axis(0))
        gf = GridFunction(grid, samples)
        rg = RadiusGrid.geometric(0.0813, 2.0, 24)
        fld = oscillation_field(gf, rg)
        for i in range(0, grid.extents[0], 7):
            want, admitted = oracles.oscillation_at(samples, 0.02, i,
                                                    rg.radii)
            ref = oscillation_point(gf, grid.axis(0)[i], rg)
            assert want == pytest.approx(ref.value, rel=1e-9, abs=1e-12)
            assert admitted == (not ref.skipped_all)
            assert fld.values[i] == pytest.approx(want, rel=1e-9, abs=1e-12)


def _r4h_case():
    grid = UniformGrid.cover_cells([-1.5], [1.5], 0.02)
    samples = oracles.bv_values({"breakpoints": [-1, 0, 1],
                                 "slopes": [1, -1], "jumps": [[0.3, 1.0]]},
                                grid.axis(0))
    return grid, samples, RadiusGrid.geometric(0.08, 2.0, 24)


def test_oscillation_field_matches_the_definition_at_r_4h():
    """sobolev_experiment's radius floor is 4h: the field excludes the nodes
    exactly 4h away, as the oracle does."""
    grid, samples, rg = _r4h_case()
    fld = oscillation_field(GridFunction(grid, samples), rg)
    nodes = np.arange(grid.extents[0])
    assert oracles.check_oscillation_field(samples, 0.02, fld.values,
                                           fld.flags, rg.radii, nodes) == []


@pytest.mark.xfail(strict=True, reason="oscillation_point decides window "
                   "membership by float positions and admits some nodes "
                   "exactly 4h away (10 of 150 nodes disagree)")
def test_oscillation_point_matches_the_definition_at_r_4h():
    grid, samples, rg = _r4h_case()
    gf = GridFunction(grid, samples)
    off = []
    for i in range(grid.extents[0]):
        want = oracles.oscillation_at(samples, 0.02, i, rg.radii)[0]
        got = oscillation_point(gf, grid.axis(0)[i], rg).value
        if got != pytest.approx(want, rel=1e-9, abs=1e-12):
            off.append(i)
    assert off == []


def test_oscillation_check_rejects_a_perturbed_field():
    grid = UniformGrid.cover_cells([-1.5], [1.5], 0.02)
    samples = oracles.bv_values({"breakpoints": [-1, 0, 1],
                                 "slopes": [1, -1]}, grid.axis(0))
    rg = RadiusGrid.geometric(0.08, 2.0, 24)
    fld = oscillation_field(GridFunction(grid, samples), rg)
    nodes = np.arange(0, grid.extents[0], 5)
    args = (samples, 0.02, fld.values.copy(), fld.flags, rg.radii, nodes)
    assert oracles.check_oscillation_field(*args) == []
    args[2][nodes[len(nodes) // 2]] *= 1.001
    assert len(oracles.check_oscillation_field(*args)) == 1


def test_atomic_maximal_single_atom_closed_form():
    atoms = [((0.3, -0.2), 2.5)]
    x = (1.0, 0.4)
    d = math.dist(x, atoms[0][0])
    assert oracles.atomic_maximal(atoms, x, 10.0) == pytest.approx(
        2.5 / (math.pi * d * d), rel=1e-14)
    assert oracles.atomic_maximal([((0.5,), 1.0)], (2.0,), 10.0) == \
        pytest.approx(1.0 / 3.0, rel=1e-14)


def test_atomic_maximal_matches_the_2d_field():
    atoms = [((0.0, 0.0), 1.0), ((0.04, 0.0), 2.0), ((0.0, 0.04), 0.5)]
    mu = Measure(2, atoms=atoms)
    grid = UniformGrid.cover_cells([-1.0, -1.0], [1.0, 1.0], 0.05)
    rg = RadiusGrid.geometric(0.05, 3.0, 32)
    fld = maxchar.maximal_field(mu, grid, rg, "M")
    nodes = np.arange(0, grid.node_count, 13)
    assert oracles.check_atomic_field(atoms, grid.points(),
                                      fld.values.ravel(), rg.r_min, rg.r_max,
                                      nodes) == []


def _square_with_atom(cells):
    h = 1.0 / cells
    spec = {"dimension": 2, "density": {"origin": [0.5 * h, 0.5 * h],
                                        "spacing": h,
                                        "values": [[1.0] * cells] * cells}}
    grid = UniformGrid((0.5 * h, 0.5 * h), h, (cells, cells))
    atoms = [((0.37, 0.61), 1.0)]
    mu = Measure(2, atoms=atoms, density=(grid, np.ones((cells, cells))))
    return spec, mu, atoms


def test_disc_maximal_matches_the_2d_field_and_needs_the_density():
    spec, mu, atoms = _square_with_atom(10)
    grid = UniformGrid.cover_cells([-0.5, -0.5], [1.5, 1.5], 0.05)
    rg = RadiusGrid.geometric(0.2, 3.0, 24)
    fld = maxchar.maximal_field(mu, grid, rg, "M")
    centres, masses = checks._density_cells(spec)
    nodes = np.arange(0, grid.node_count, 7)
    args = (grid.points(), fld.values.ravel(), rg.radii, rg.r_min, rg.r_max,
            nodes)
    assert oracles.check_disc_field(centres, masses, atoms, *args) == []
    # without the density, or with 10 % less of it, the sup is lower
    assert oracles.check_disc_field(centres, 0.0 * masses, atoms, *args)
    assert oracles.check_disc_field(centres, 0.9 * masses, atoms, *args)


def test_disc_maximal_of_one_cell():
    centres = np.array([[0.0, 0.0]])
    low, high = oracles.disc_maximal(centres, [2.0], [], (0.3, 0.4),
                                     [0.4, 0.6, 1.0], 0.4, 1.0)
    assert low == high == pytest.approx(2.0 / (math.pi * 0.36))
    # a radius equal to the distance may count the cell either way
    low, high = oracles.disc_maximal(centres, [2.0], [], (0.3, 0.4),
                                     [0.5], 0.5, 0.5)
    assert (low, high) == (0.0, pytest.approx(2.0 / (math.pi * 0.25)))


def test_kept_fault_does_not_hide_other_problems(tmp_path):
    case = workloads.Case("c", "sobolev", {}, (), (workloads.W11,),
                          "oscillation", fault="known",
                          fault_check="verdict")
    wrong = "verdict=BV-with-jumps\n"
    problems, fault = checks.check_case(
        case, checks.Outcome(0, wrong, tmp_path, None, None), None, maxchar)
    assert len(fault) == 1 and "verdict" in fault[0]
    assert any("missing" in p for p in problems)


def test_step_product_law_reduces_to_the_unit_indicator():
    for lam, want in ((0.1, 0.9), (0.5, 0.5), (0.75, 0.75), (1.2, 0.0)):
        assert oracles.step_product(lam, 1.0, 1.0) == pytest.approx(want)
    # scaling: height c and length L give L * (c - lam) below c / 2
    assert oracles.step_product(0.5, 2.0, 3.0) == pytest.approx(4.5)


def _curve(lams, prods):
    lams = np.asarray(lams, dtype=float)
    prods = np.asarray(prods, dtype=float)
    vols = np.where(lams > 0, prods / lams, 0.0)
    return np.column_stack([lams, vols, prods, np.zeros_like(lams)])


def test_step_density_check_accepts_the_law_and_rejects_errors():
    lams = np.geomspace(0.05, 5.0, 97)
    exact = [oracles.step_product(x, 2.0, 0.8) for x in lams]
    assert oracles.check_step_density(_curve(lams, exact), 2.0, 0.8) == []
    off = [p * 1.05 for p in exact]
    assert oracles.check_step_density(_curve(lams, off), 2.0, 0.8)
    above = list(exact)
    above[-1] = 0.1
    assert oracles.check_step_density(_curve(lams, above), 2.0, 0.8)


def test_atom_products_and_decay_checks():
    lams = np.geomspace(1.0, 100.0, 97)
    assert oracles.check_atom_products(_curve(lams, np.full(97, 1.5)),
                                       1.5) == []
    assert oracles.check_atom_products(_curve(lams, np.full(97, 1.45)), 1.5)
    deltas = 10.0 ** -np.arange(1, 7)
    flat = np.column_stack([deltas, 0.7 / np.abs(np.log(deltas))])
    assert oracles.check_decay_flat(flat) == []
    flat[-1, 1] *= 1.05
    assert oracles.check_decay_flat(flat)


_CAPTURED = ("distribution_experiment", "sobolev_experiment", "decay_sweep")


def test_cli_outputs_pass_their_checks(tmp_path):
    """One case of each cli-1d kind runs through the CLI and passes."""
    cases = workloads.build("cli-1d", 7, REPO)
    kinds = {}
    for case in cases:
        kinds.setdefault(case.oracle, case)
    cases = list(kinds.values())
    paths = workloads.write_specs(cases, tmp_path / "specs")
    saved = {k: getattr(cli, k) for k in _CAPTURED}
    try:
        runner = worker.Runner(maxchar, cases, paths, tmp_path / "art")
        _, records = runner.run_round()
        found = runner.check_round(records, [0])
    finally:
        for k, v in saved.items():
            setattr(cli, k, v)
    assert [(case.name, f, k) for case, f, k in found if f or k] == []
    assert len(found) == len(cases) == 6


def test_workloads_are_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 5, REPO)
        b = workloads.build(name, 5, REPO)
        assert [json.dumps(c.spec) for c in a] == \
            [json.dumps(c.spec) for c in b]


def test_tracer_restores_bindings_and_counts_repeat(tmp_path):
    spec = tmp_path / "atom.json"
    spec.write_text(json.dumps({"dimension": 1, "atoms": [
        {"location": 0.25, "weight": 1.5}]}))
    before = (cli.main, level_sets.maximal_field, Measure.ball_masses)
    counts = []
    for _ in range(2):
        tr = tracer.Tracer()
        tr.install()
        try:
            assert level_sets.maximal_field is not before[1]
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["distcurve", "--input", str(spec),
                          "--out", str(tmp_path / "out")])
        finally:
            tr.uninstall()
        m = tr.metrics()
        counts.append({k: m[k] for k in tracer.COUNT_METRICS})
        assert m["maximal.nodes"] > 0 and m["specio.bytes_written"] > 0
        wall = max(s[3] for s in tr.spans) - min(s[2] for s in tr.spans)
        self_sum = sum(m[k] for k in tracer.SELF_METRIC.values())
        assert self_sum <= wall + 1e-9
    assert counts[0] == counts[1]
    assert (cli.main, level_sets.maximal_field, Measure.ball_masses) == before
