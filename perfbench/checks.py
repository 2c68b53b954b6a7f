"""Per-case correctness checks, run after a case is timed.

The checks read what the program produced (exit status, stdout, the
artifacts under --out and the experiment result the CLI computed) and
compare it with the oracles, which recompute from the definitions.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

import oracles

SAMPLED_NODES = 12


class Outcome(NamedTuple):
    code: int
    stdout: str
    out_dir: object     # pathlib.Path of the case's --out
    result: object      # ExperimentResult / DecayReport, None for verify
    spec_path: object   # pathlib.Path or None


def _verdict(case, stdout: str) -> str:
    block = oracles.parse_block(stdout)
    key = {"sobolev": "verdict", "distcurve": "classification",
           "decay": "verdict"}[case.command]
    return block.get(key, "")


_ARTIFACTS = {
    "decay": ("decay.csv", "report.txt", "decay.svg", ["delta", "Q"]),
    "distcurve": ("curve.csv", "verdict.txt", "curve.svg",
                  ["lambda", "volume", "product", "flag"]),
}
_ARTIFACTS["sobolev"] = _ARTIFACTS["distcurve"]


def _sample_nodes(rng, values: np.ndarray) -> np.ndarray:
    flat = values.ravel()
    picks = rng.integers(0, flat.size, SAMPLED_NODES)
    return np.unique(np.concatenate([[int(np.argmax(flat))], picks]))


def _axes(grid):
    return [grid.origin[k] + grid.spacing * np.arange(grid.extents[k])
            for k in range(len(grid.extents))]


def _points(grid) -> np.ndarray:
    axes = _axes(grid)
    if len(axes) == 1:
        return axes[0][:, None]
    c0, c1 = np.meshgrid(axes[0], axes[1], indexing="ij")
    return np.column_stack([c0.ravel(), c1.ravel()])


def check_case(case, outcome: Outcome, rng, maxchar) -> tuple:
    """Returns (problems, fault): fault holds what the case's kept fault
    shows (a wrong verdict, or the check named by case.fault_check), and
    problems every other finding.  A kept fault never hides a problem."""
    if case.command == "verify":
        return _check_verify(outcome), []
    problems, fault = [], []
    verdict = _verdict(case, outcome.stdout)
    if verdict not in case.expect:
        (fault if case.fault_check == "verdict" else problems).append(
            f"verdict {verdict!r}, expected {case.expect}")
    want_code = 2 if verdict == "inconclusive" else 0
    if outcome.code != want_code:
        problems.append(f"exit status {outcome.code}, expected {want_code}")
    *names, columns = _ARTIFACTS[case.command]
    table, block, svg = (outcome.out_dir / n for n in names)
    if not (block.is_file() and block.read_text() == outcome.stdout):
        problems.append(f"{block.name} differs from stdout")
    if not (svg.is_file() and svg.read_text().startswith("<svg")):
        problems.append(f"{svg.name} missing or not SVG")
    if not table.is_file():
        return problems + [f"{table.name} missing"], fault
    header, rows = oracles.parse_csv(table.read_text())
    if header != columns:
        return problems + [f"{table.name} header {header}"], fault
    problems += _ORACLES[case.oracle](case, outcome, rows, rng, maxchar)
    if case.fault_check in _FAULT_CHECKS:
        fault += _FAULT_CHECKS[case.fault_check](case, outcome)
    return problems, fault


def _check_verify(outcome) -> list:
    problems = []
    if outcome.code != 0:
        problems.append(f"exit status {outcome.code}")
    if not outcome.stdout.rstrip().endswith("result: PASS 12/12"):
        problems.append("report is not PASS 12/12")
    report = outcome.out_dir / "report.txt"
    if not (report.is_file() and report.read_text() == outcome.stdout):
        problems.append("report.txt differs from stdout")
    try:
        consts = json.loads((outcome.out_dir / "constants.json").read_text())
    except (OSError, ValueError) as e:
        return problems + [f"constants.json unreadable: {e}"]
    if not consts or not all(isinstance(v, (int, float)) and math.isfinite(v)
                             for v in consts.values()):
        problems.append("constants.json holds non-finite or no constants")
    return problems


def _oscillation(case, outcome, rows, rng, maxchar):
    fld = outcome.result.field
    samples = oracles.bv_values(case.spec, _axes(fld.grid)[0])
    nodes = _sample_nodes(rng, fld.values)
    return oracles.check_oscillation_field(
        samples, fld.grid.spacing, fld.values, fld.flags,
        fld.radius_grid.radii, nodes)


def _atom(case, outcome, rows, rng, maxchar):
    # The 1D field itself is not compared with m / (2 d): at a few nodes
    # per grid the closed-ball event radius misses the atom by rounding
    # (see CHANGES.md), which would fail on some seeds only.
    return oracles.check_atom_products(rows, case.params["mass"])


def _pair(case, outcome, rows, rng, maxchar):
    problems = oracles.check_atom_products(rows, case.params["mass"])
    mu = maxchar.specio.load_measure(outcome.spec_path)
    at_centre = maxchar.maximal_point(mu, (case.params["centre"],),
                                      outcome.result.field.radius_grid,
                                      "Mbar")
    if abs(at_centre) > 1e-12 * case.params["mass"]:
        problems.append(f"Mbar at the centre of the pair is {at_centre!r}")
    return problems


def _step(case, outcome, rows, rng, maxchar):
    return oracles.check_step_density(rows, case.params["height"],
                                      case.params["length"])


def _decay(case, outcome, rows, rng, maxchar):
    return []


def _decay_flat(case, outcome, rows, rng, maxchar):
    return oracles.check_decay_flat(rows)


def _atoms(case, outcome, rows, rng, maxchar):
    fld = outcome.result.field
    rg = fld.radius_grid
    return oracles.check_atomic_field(
        case.params["atoms"], _points(fld.grid), fld.values.ravel(),
        rg.r_min, rg.r_max, _sample_nodes(rng, fld.values))


def _density_cells(spec):
    """Centres and masses of a 2D spec's density cells."""
    dens = spec["density"]
    values = np.abs(np.asarray(dens["values"], dtype=float))
    h = float(dens["spacing"])
    c0, c1 = (float(dens["origin"][k]) + h * np.arange(values.shape[k])
              for k in range(2))
    g0, g1 = np.meshgrid(c0, c1, indexing="ij")
    return np.column_stack([g0.ravel(), g1.ravel()]), values.ravel() * h * h


def _disc(case, outcome, atoms, rng):
    """M at the field's maximum and sampled nodes equals the centre-in-ball
    supremum over the program's radius grid and the atom distances."""
    fld = outcome.result.field
    rg = fld.radius_grid
    cells, masses = _density_cells(case.spec)
    return oracles.check_disc_field(
        cells, masses, atoms, _points(fld.grid), fld.values.ravel(),
        rg.radii, rg.r_min, rg.r_max, _sample_nodes(rng, fld.values))


def _square(case, outcome, rows, rng, maxchar):
    return _disc(case, outcome, [], rng)


def _square_atom(case, outcome, rows, rng, maxchar):
    """The centre-in-ball supremum, and M >= m / (pi d^2) beyond r_min of
    the atom, since a nonnegative density only adds mass."""
    problems = _disc(case, outcome, case.params["atoms"], rng)
    fld = outcome.result.field
    (loc, m), = case.params["atoms"]
    pts = _points(fld.grid)
    d = np.hypot(pts[:, 0] - loc[0], pts[:, 1] - loc[1])
    far = d >= fld.radius_grid.r_min
    bound = m / (math.pi * d[far] ** 2)
    short = bound * (1.0 - oracles.REL_EXACT) - fld.values.ravel()[far]
    if np.any(short > 0):
        problems.append(f"M below the atom's own bound at "
                        f"{int(np.sum(short > 0))} nodes")
    return problems


def _unit_sup(case, outcome):
    """Kept fault of the square: M of the unit square's indicator is 1
    wherever the smallest ball lies inside the square."""
    fld = outcome.result.field
    pts = _points(fld.grid)
    r = fld.radius_grid.r_min
    inner = np.all((pts - r >= 0.0) & (pts + r <= 1.0), axis=1)
    vals = fld.values.ravel()[inner]
    worst = float(np.max(np.abs(vals - 1.0)))
    if worst > oracles.REL_EXACT:
        return [f"M ranges over [{vals.min():.6g}, {vals.max():.6g}] at "
                f"{inner.sum()} nodes inside the square, exact value 1"]
    return []


_FAULT_CHECKS = {"unit_sup": _unit_sup}


_ORACLES = {
    "oscillation": _oscillation,
    "atom": _atom,
    "pair": _pair,
    "step": _step,
    "decay": _decay,
    "decay_flat": _decay_flat,
    "atoms": _atoms,
    "square": _square,
    "square_atom": _square_atom,
}
