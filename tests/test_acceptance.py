"""Acceptance gate: twelve end-to-end guarantees, one test each.

Run with -v to get one pass/fail line per criterion.  Tolerances are
pinned; loosening one is an interface change, not a test fix.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from maxchar import corpus, verify
from maxchar.bv import (BVFunction1D, ramp_plateau_counterexample,
                        reverse_poincare_check)
from maxchar.decay import TimeField, decay_sweep
from maxchar.geometry import UniformGrid
from maxchar.level_sets import (DECAYS, PERSISTS, distribution_experiment,
                                evaluation_grid, reverse_weak11_check,
                                sobolev_experiment, superlevel_volume)
from maxchar.maximal import RadiusGrid, maximal_field, maximal_point
from maxchar.measure import GridFunction, Measure, unit_atom
from maxchar.verify import DEFAULT_SEED, run_verify

REPO = Path(__file__).resolve().parent.parent


def test_c01_atom_products_are_unit():
    # closed form: M of a unit atom is 1/(2|x|), so every level lambda has
    # superlevel volume exactly 1/lambda
    t0 = time.monotonic()
    fld = maximal_field(unit_atom(0.0),
                        UniformGrid.cover_cells([-2.0], [2.0], 1e-3),
                        RadiusGrid.geometric(1e-3, 8.0, 64), "M")
    for lam in np.geomspace(1.0, 100.0, 97):
        vol, flag = superlevel_volume(fld, lam)
        assert not flag
        assert lam * vol == pytest.approx(1.0, rel=0.02)
    assert time.monotonic() - t0 < 10.0


def test_c02_multi_atom_mass_recovery():
    measures = dict(corpus.measure_corpus())
    for k in (2, 3, 5):
        mu = measures[f"atoms_k{k}"]
        # cap the levels at the single-atom resolution ceiling 1/(2*5h):
        # each superlevel component here is carried by one unit atom, so
        # the default mass-based ceiling would outrun the grid
        res = distribution_experiment(mu, "M", h=1e-3, lam_max=100.0)
        assert res.verdict.classification == PERSISTS
        assert res.verdict.tail_last == pytest.approx(float(k), rel=0.05)


def test_c03_uniform_density_product_law():
    # M of the unit-interval indicator: height-1 plateau on (0, 1) and
    # 1/(2(1+s)) at distance s outside, so lambda * vol({M > lambda}) is
    # 1 - lambda up to 1/2 and lambda from 1/2 to 1, then zero
    grid = UniformGrid.cover_cells([0.0], [1.0], 1e-3)
    chi = Measure(1, density=(grid, np.ones(1000)))
    window = evaluation_grid(chi, 0.05, 1e-3)
    fld = maximal_field(chi, window, RadiusGrid.geometric(1e-3, 24.0, 64),
                        "M")
    for lam in np.linspace(0.05, 0.95, 19):
        vol, flag = superlevel_volume(fld, lam)
        want = 1.0 - lam if lam <= 0.5 else lam
        assert not flag
        assert lam * vol == pytest.approx(want, rel=0.03), f"lam={lam}"
    vol_above, _ = superlevel_volume(fld, 1.03)
    assert vol_above == 0.0


def test_c04_signed_cancellation():
    mu = Measure(1, atoms=(((-1.0,), 1.0), ((1.0,), -1.0)))
    res = distribution_experiment(mu, "Mbar", h=1e-3)
    assert res.verdict.classification == PERSISTS
    assert res.verdict.tail_min >= 1.9
    # opposite charges cancel exactly at the midpoint, where every ball
    # sees both atoms together; the unsigned operator still sees mass 2
    rg = RadiusGrid.geometric(1e-3, 8.0, 64)
    assert maximal_point(mu, [0.0], rg, "Mbar") == pytest.approx(0.0,
                                                                 abs=1e-12)
    assert maximal_point(mu, [0.0], rg, "M") == pytest.approx(1.0, rel=1e-9)


def test_c05_oscillation_separates_jump_part():
    tent = BVFunction1D(breakpoints=(-1.0, 0.0, 1.0), slopes=(1.0, -1.0),
                        compact_support=True)
    res_tent = sobolev_experiment(tent, h=1e-3)
    assert res_tent.verdict.classification == DECAYS
    # flank value is slope/2 = 0.5 in the continuum; discrete windows
    # overshoot by at most (K+1)/(K+1/2) at the K=3 radius floor
    fmax = float(np.max(res_tent.field.values))
    assert fmax <= 0.56
    vol, _ = superlevel_volume(res_tent.field, 0.56)
    assert vol == 0.0
    step = BVFunction1D(jumps=((0.0, 1.0), (1.0, -1.0)), compact_support=True)
    res_step = sobolev_experiment(step, h=1e-3)
    assert res_step.verdict.classification == PERSISTS
    assert res_step.verdict.tail_min >= 0.5


def test_c06_ramp_plateau_counterexample():
    for n in (1, 4, 16, 64):
        f = ramp_plateau_counterexample(n)
        assert abs(f.integral(-1.0, 1.0)) < 1e-12
        assert f.l1_norm(-1.0, 1.0) == pytest.approx(1.0 / n, rel=1e-12)
        assert f.total_variation() == pytest.approx(2.0, rel=1e-12)
        res = reverse_poincare_check(f, 0.0, 1.0, nu=1.0, c1=0.5, c2=1.0)
        assert res.holds == (n < 2), f"n={n}"


def test_c07_penalized_lower_bound_constant():
    assert len(corpus.bv_corpus()) >= 20
    assert len(verify._POINCARE_PAIRS) == 10
    passed, details, consts = verify._check_penalized_poincare(
        DEFAULT_SEED, None)
    assert passed, details
    c1 = consts["penalized_poincare_c1"]
    assert c1 >= 1e-3
    recorded = json.loads(
        (REPO / "calibration" / "constants.json").read_text())
    assert c1 == pytest.approx(recorded["penalized_poincare_c1"], rel=1e-6)


def test_c08_semigroup_bound_500_draws():
    passed, details, consts = verify._check_semigroup(DEFAULT_SEED, None)
    assert passed, details
    assert "draws=500 failures=0" in details
    assert consts["semigroup_max_ratio"] <= 1.0 + 1e-6


def test_c09_reverse_weak_bound():
    grid = UniformGrid.cover_cells([0.0], [1.0], 1e-3)
    res = reverse_weak11_check(GridFunction(grid, np.ones(1000)), t=0.5)
    assert res.rhs == pytest.approx(1.0, abs=1e-12)
    assert res.lhs == pytest.approx(0.5, rel=0.02)
    passed, details, consts = verify._check_reverse_weak11(
        DEFAULT_SEED, None)
    assert passed, details
    assert consts["reverse_weak11_c"] >= 0.1


def test_c10_stopped_scale_set_identity():
    passed, details, _ = verify._check_stopped_scale(DEFAULT_SEED, None)
    assert passed, details
    # 20 measures x 2 cutoffs x 13 levels, all exact node-set matches
    assert "identical_node_sets=520" in details


def test_c11_decay_sandwich():
    t0 = time.monotonic()
    sign = TimeField.steady(Measure(1, atoms=(((0.0,), 2.0),)), [0.5], 0.5)
    rep = decay_sweep(sign, h=1e-3)
    assert rep.verdict.classification == PERSISTS
    assert rep.deltas[2] == pytest.approx(1e-3)
    assert rep.q_values[2] == pytest.approx(1.1448, rel=0.03)
    assert rep.deltas[5] == pytest.approx(1e-6)
    assert rep.q_values[5] == pytest.approx(1.0724, rel=0.03)
    from maxchar.bv import derivative_measure
    tent = BVFunction1D(breakpoints=(-1.0, 0.0, 1.0), slopes=(1.0, -1.0),
                        compact_support=True)
    rep2 = decay_sweep(TimeField.steady(derivative_measure(tent), [0.0], 1.0),
                       h=1e-3)
    assert rep2.verdict.classification == DECAYS
    assert rep2.q_values[0] / rep2.q_values[3] == pytest.approx(4.0, rel=0.2)
    assert time.monotonic() - t0 < 60.0


def test_c12_verify_is_deterministic(monkeypatch):
    monkeypatch.setenv("MAXCHAR_SEED", str(DEFAULT_SEED))
    first = run_verify(corpus_size=8)
    second = run_verify(corpus_size=8)
    assert first.passed
    assert first.text == second.text
    assert first.constants == second.constants
