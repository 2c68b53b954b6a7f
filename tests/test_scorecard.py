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
"""

from maxchar import corpus
from maxchar.errors import MaxcharError
from maxchar.level_sets import (DECAYS, INCONCLUSIVE, PERSISTS,
                                distribution_experiment, sobolev_experiment)

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
}
# a cell's rank: a move to a lower rank is a regression
RANK = {"W": 0, "X": 1, "I": 1, "R": 2}


def _cell(run, persists: bool) -> str:
    try:
        got = run().verdict.classification
    except MaxcharError:
        return "X"
    if got == INCONCLUSIVE:
        return "I"
    return "R" if got == (PERSISTS if persists else DECAYS) else "W"


def _assert_matches(table, measured):
    """Fails on a cell that moved toward wrong, then on any other move."""
    moves = [(f"{name}@{h:g}", old, new)
             for name, (hs, row) in measured.items()
             for h, old, new in zip(hs, table[name], row) if old != new]
    worse = [m for m in moves if RANK[m[2]] < RANK[m[1]]]
    assert not worse, f"cells moved toward wrong: {worse}"
    assert not moves, f"cells moved; update the table: {moves}"


def test_bv_scorecard():
    measured = {
        name: (H_1D, "".join(
            _cell(lambda: sobolev_experiment(f, h=h), bool(f.jumps))
            for h in H_1D))
        for name, f in corpus.bv_corpus()}
    assert measured.keys() == BV_TABLE.keys()
    _assert_matches(BV_TABLE, measured)


def test_measure_scorecard():
    measured = {}
    for name, mu in corpus.measure_corpus():
        hs = H_1D if mu.dimension == 1 else H_2D
        measured[name] = (hs, "".join(
            _cell(lambda: distribution_experiment(mu, "M", h=h),
                  bool(mu.atoms or mu.curves))
            for h in hs))
    assert measured.keys() == MEASURE_TABLE.keys()
    _assert_matches(MEASURE_TABLE, measured)


def test_table_totals():
    def totals(table):
        cells = "".join(table.values())
        return {c: cells.count(c) for c in "RIW"}

    assert totals(BV_TABLE) == {"R": 75, "I": 21, "W": 4}
    assert totals(MEASURE_TABLE) == {"R": 50, "I": 7, "W": 0}
