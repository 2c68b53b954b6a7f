"""Ground-truth scorecard: the labelled corpora over a fixed h ladder.

The corpora carry their truth by construction: a BV function is
BV-with-jumps (its oscillation field persists) iff it has jumps, and a
measure's distribution curve persists iff it has atoms or curves.  Each
(case, h) cell is R (right), I (inconclusive), X (refused: the pipeline
raised a MaxcharError) or W (wrong), and is compared with the committed
table below.  A cell that moves toward wrong is a regression; a cell that
moves toward right updates the table, and the change that moves it lists
the move.  Kept out of verify, so its report and the pinned constants do
not depend on it.

The inputs the benchmark keeps as faults join the corpora over the same
ladders, and the decay table holds decay_sweep's verdicts on the flow
corpus and on single features, whose truth is again whether a slice has
a singular part; its cells run over the feature's size, not over h.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from maxchar import corpus, specio
from maxchar.bv import BVFunction1D
from maxchar.decay import TimeField, decay_sweep
from maxchar.errors import MaxcharError
from maxchar.geometry import UniformGrid
from maxchar.level_sets import (DECAYS, INCONCLUSIVE, PERSISTS,
                                distribution_experiment, sobolev_experiment)
from maxchar.measure import Measure, unit_atom

SPECS = Path(__file__).resolve().parents[1] / "specs"

H_1D = (1e-2, 5e-3, 2e-3, 1e-3)
H_2D = (0.05, 0.025, 0.0125)

# one letter per h of the ladder, in the order above
BV_TABLE = {
    "ramp_plateau_n1": "RRRR",
    "ramp_plateau_n2": "IRRR",
    "ramp_plateau_n4": "IIRR",
    "ramp_plateau_n8": "IIIR",
    "ramp_plateau_n16": "WIII",
    "ramp_plateau_n64": "WWWI",
    "tent": "RRRR",
    "wide_tent": "RRRR",
    "negative_tent": "RRRR",
    "offset_tent": "IRRR",
    "two_bumps": "RRRR",
    "zigzag": "RRRR",
    "asym_ramp": "IRRR",
    "affine_window": "RRRR",
    "indicator_unit": "RRRR",
    "step_up": "RRRR",
    "staircase": "RRRR",
    "mixed_sign_jumps": "RRRR",
    "tent_plus_jump": "IIII",
    "ramp_with_drop": "RRRR",
    "small_jump": "IIII",
    "sawtooth_jumps": "RRRR",
    "plateau_box": "IRRR",
    "shifted_step": "RRRR",
    "double_step": "RRRR",
    "thin_spike": "WWWW",
    "step_half": "IIII",
}
MEASURE_TABLE = {
    "unit_atom": "RRRR",
    "heavy_atom": "RRRR",
    "atoms_k2": "RRRR",
    "atoms_k3": "RRRR",
    "atoms_k5": "IIII",
    "uneven_atoms": "RRRR",
    "chi_unit": "IRRR",
    "tent_density": "RRRR",
    "bump_density": "RRRR",
    "atom_plus_density": "RRRR",
    "cancel_pair": "RRRR",
    "signed_mixed": "RRRR",
    "atom_2d": "RRR",
    "pair_2d": "RRR",
    "segment_2d": "RII",
    "unit_square_50": "IRR",
}
ATOM_MASSES = (1.0, 1e2, 1e4, 1e5, 1e6)
SQUARE_CELLS = (0.1, 0.02)
# one letter per flow case, per atom mass or per cell size
DECAY_TABLE = {
    "sign_jump": "R",
    "tent": "R",
    "mollified_jump": "R",
    "modulated_jump": "R",
    "atom_pair": "R",
    "smooth_ramp": "R",
    "zero": "R",
    "atom_1d": "RRRIW",
    "unit_square_2d": "WW",
    "atom_2d": "X",
}
# a cell's rank: a move to a lower rank is a regression
RANK = {"W": 0, "X": 1, "I": 1, "R": 2}


def _bv_kept_faults():
    """The benchmark's thin spike, continuous but steeper than the radius
    floor resolves, and specs/step.json with its jumps halved."""
    step = specio.load_bv(SPECS / "step.json")
    return [("thin_spike", BVFunction1D((0.0, 1e-9, 1.0), (1e9, -1e-9))),
            ("step_half", replace(step, jumps=tuple(
                (x, 0.5 * h) for x, h in step.jumps)))]


def _unit_square(lo: float, hi: float, cell: float) -> Measure:
    grid = UniformGrid.cover_cells((lo, lo), (hi, hi), cell)
    return Measure(2, density=(grid, np.ones(grid.extents)))


def _decay_inputs():
    """(name, cell labels, time fields, persists) per decay row."""
    rows = [(name, ("",), [tf], label == PERSISTS)
            for name, tf, label in corpus.flow_corpus()]
    atoms = [TimeField.steady(Measure(1, atoms=(((0.0,), m),)), (0.0,), 1.0)
             for m in ATOM_MASSES]
    squares = [TimeField.steady(_unit_square(-0.5, 0.5, cell), (0.0, 0.0),
                                0.3) for cell in SQUARE_CELLS]
    atom_2d = TimeField.steady(unit_atom([0.0, 0.0], dimension=2),
                               (0.0, 0.0), 0.5)
    return rows + [("atom_1d", ATOM_MASSES, atoms, True),
                   ("unit_square_2d", SQUARE_CELLS, squares, False),
                   ("atom_2d", ("",), [atom_2d], True)]


def _cell(classify, persists: bool) -> str:
    try:
        got = classify()
    except MaxcharError:
        return "X"
    if got == INCONCLUSIVE:
        return "I"
    return "R" if got == (PERSISTS if persists else DECAYS) else "W"


def _assert_matches(table, measured):
    """Fails on a cell that moved toward wrong, then on any other move."""
    moves = [(f"{name}@{h}", old, new)
             for name, (hs, row) in measured.items()
             for h, old, new in zip(hs, table[name], row) if old != new]
    worse = [m for m in moves if RANK[m[2]] < RANK[m[1]]]
    assert not worse, f"cells moved toward wrong: {worse}"
    assert not moves, f"cells moved; update the table: {moves}"


def test_bv_scorecard():
    measured = {
        name: (H_1D, "".join(
            _cell(lambda: sobolev_experiment(f, h=h).verdict.classification,
                  bool(f.jumps))
            for h in H_1D))
        for name, f in corpus.bv_corpus() + _bv_kept_faults()}
    assert measured.keys() == BV_TABLE.keys()
    _assert_matches(BV_TABLE, measured)


def test_measure_scorecard():
    measured = {}
    for name, mu in corpus.measure_corpus() + [
            ("unit_square_50", _unit_square(0.0, 1.0, 0.02))]:
        hs = H_1D if mu.dimension == 1 else H_2D
        measured[name] = (hs, "".join(
            _cell(lambda: distribution_experiment(mu, "M", h=h)
                  .verdict.classification, bool(mu.atoms or mu.curves))
            for h in hs))
    assert measured.keys() == MEASURE_TABLE.keys()
    _assert_matches(MEASURE_TABLE, measured)


def test_decay_scorecard():
    measured = {
        name: (labels, "".join(_cell(lambda: decay_sweep(tf).verdict,
                                     persists) for tf in fields))
        for name, labels, fields, persists in _decay_inputs()}
    assert measured.keys() == DECAY_TABLE.keys()
    _assert_matches(DECAY_TABLE, measured)


def test_table_totals():
    def totals(table):
        cells = "".join(table.values())
        return {c: cells.count(c) for c in "RIWX"}

    assert totals(BV_TABLE) == {"R": 75, "I": 25, "W": 8, "X": 0}
    assert totals(MEASURE_TABLE) == {"R": 52, "I": 8, "W": 0, "X": 0}
    assert totals(DECAY_TABLE) == {"R": 10, "I": 1, "W": 3, "X": 1}
