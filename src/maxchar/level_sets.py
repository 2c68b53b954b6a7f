"""Distribution curves of maximal fields and the verdicts built on them.

The central object is the map lambda -> lambda * vol({field > lambda}),
computed on the field's evaluation window.  Tail statistics of that curve
over its top decade classify the input (singular mass persists, absolutely
continuous mass decays).  The module also carries the point inequality
checks that share this machinery: the reverse weak (1,1) bound and the
almost semigroup property of mollified averages.  The verdict constants
DECAYS, PERSISTS and INCONCLUSIVE are shared by every classifier; each
command prints them in its own words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import BudgetError, ResolutionError, TruncationError
from .geometry import Box, UniformGrid, ball_volume
from .maximal import MaximalField, RadiusGrid, maximal_field, \
    oscillation_field
from .measure import GridFunction, Measure

_FP = 1e-12


@dataclass(frozen=True)
class LambdaGrid:
    """Strictly increasing geometric grid of threshold levels."""

    lambdas: tuple

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.size < 2:
            raise ValueError("need at least two levels")
        if lam[0] <= 0 or not np.all(np.isfinite(lam)):
            raise ValueError("levels must be positive and finite")
        if not np.all(np.diff(lam) > 0):
            raise ValueError("levels must be strictly increasing")
        object.__setattr__(self, "lambdas", tuple(lam))

    @classmethod
    def geometric(cls, lam_min: float, lam_max: float,
                  per_decade: int = 48) -> "LambdaGrid":
        if not (0 < lam_min < lam_max):
            raise ValueError("need 0 < lam_min < lam_max")
        decades = math.log10(lam_max / lam_min)
        count = max(2, int(math.ceil(per_decade * decades)) + 1)
        return cls(tuple(np.geomspace(lam_min, lam_max, count)))


# cells per block of the 1D per-cell pass and nodes per block of the
# level-index histogram, and the most (cell, level) crossing pairs expanded
# at once: the kernel's temporaries stay within a few of these, whatever
# the field and the level count
_CELL_BLOCK = 4096
_PAIR_BLOCK = 1 << 14


def _count_above(values: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """count[j] = #{values > lam[j]}, from a histogram of the number of
    levels below each value."""
    hist = np.zeros(lam.size + 1, dtype=np.int64)
    for s in range(0, values.size, _CELL_BLOCK):
        below = np.searchsorted(lam, values[s:s + _CELL_BLOCK])
        hist += np.bincount(below, minlength=lam.size + 1)
    return np.cumsum(hist[::-1])[::-1][1:]


def _subcell_fractions(lo, hi, lam):
    """Fraction of each crossed cell above its level: harmonic in position
    (1/value affine) where the lower node value lo is positive, affine
    where it is zero."""
    frac = (hi - lam) / (hi - lo)
    pos = lo > 0
    lo, hi, lam = lo[pos], hi[pos], lam[pos]
    with np.errstate(over="ignore", invalid="ignore"):
        inv_lo = 1.0 / lo
        harmonic = (1.0 / lam - 1.0 / hi) / (inv_lo - 1.0 / hi)
    # below about 5.6e-309, 1/lo overflows: the same fraction in
    # overflow-free form
    over = np.isinf(inv_lo)
    harmonic[over] = frac[pos][over] * (lo[over] / lam[over])
    frac[pos] = harmonic
    return frac


# a level crossed by fewer cells than this is summed in a zero-padded table
# row: np.sum adds fewer than 8 float64 terms left to right from zero, as
# cumsum does, and sums longer runs pairwise
_SHORT_RUN = 8


def _crossing_sums(lo, hi, first, stop, lam: np.ndarray) -> np.ndarray:
    """Per level, the sum of the subcell fractions above it over the cells
    it crosses, in cell order, with the bits of one np.sum per level.  Cell
    c (lower and upper node value lo, hi) crosses the levels
    first[c] <= j < stop[c].

    The levels crossed by fewer than _SHORT_RUN cells are summed in one
    pass, as the last column of the cumsum of a zero-padded
    (level, _SHORT_RUN - 1) table; each longer run keeps its own np.sum."""
    sums = np.zeros(lam.size)
    crossing = np.cumsum(np.bincount(first, minlength=lam.size + 1)
                         - np.bincount(stop, minlength=lam.size + 1))[:-1]
    through = np.cumsum(crossing)
    column = np.arange(_SHORT_RUN - 1)
    j0, done = 0, 0
    while done < through[-1]:
        # the next run of levels, holding at most _PAIR_BLOCK pairs
        # unless one level alone holds more
        j1 = max(j0 + 1, int(np.searchsorted(through, done + _PAIR_BLOCK,
                                             side="right")))
        keep = (first < j1) & (stop > j0)
        start = np.maximum(first[keep], j0)
        count = np.minimum(stop[keep], j1) - start
        cell = np.repeat(np.flatnonzero(keep), count)
        level = (np.repeat(start - (np.cumsum(count) - count), count)
                 + np.arange(cell.size))
        # a stable sort keeps each level's cells in index order
        order = np.argsort(level, kind="stable")
        cell, level = cell[order], level[order]
        frac = _subcell_fractions(lo[cell], hi[cell], lam[level])
        # level j's fractions are frac[begin[j] : begin[j] + crossing[j]]
        levels = j0 + np.flatnonzero(crossing[j0:j1])
        runs = crossing[levels]
        begin = through[levels] - runs - done
        short = runs < _SHORT_RUN
        at = np.minimum(begin[short, None] + column, frac.size - 1)
        table = np.where(column < runs[short, None], frac[at], 0.0)
        sums[levels[short]] = np.cumsum(table, axis=1)[:, -1]
        # np.add.reduceat would round differently
        for j, b, n in zip(levels[~short], begin[~short], runs[~short]):
            sums[j] = np.sum(frac[b:b + n])
        j0, done = j1, through[j1 - 1]
    return sums


def _superlevel_volumes(field: MaximalField, lam: np.ndarray):
    """Volumes of {field > lam[j]} inside the window for nondecreasing
    levels, with the boundary flags: the bits of counting level by level,
    in one pass over the nodes.

    In d=1 the set is resolved below grid scale: between adjacent nodes the
    field is modeled as harmonic in position (1/value affine), which is the
    exact profile of a far-field atom; the level crossing lands at the
    matching subcell fraction (in overflow-free form for subnormal values).
    Cells whose lower node is zero fall back to affine interpolation.  End
    nodes own half a cell beyond the pairwise intervals.  In d=2 the volume
    is the node count times the cell area.  A flag reports the set touching
    the window boundary.

    A node's or cell's levels are found by binary search and counted in a
    histogram; a cell crosses one contiguous run of levels, so a curve
    costs O(n log L + L + P log P) for n nodes, L levels and P
    (cell, level) crossings, against O(n L) for a level-by-level count.
    The fractions of the levels crossed by fewer than 8 cells are summed in
    one vectorized pass, those of each other level by its own np.sum.
    """
    v = field.values
    h = field.grid.spacing
    if field.grid.dimension == 2:
        border = max(v[0].max(), v[-1].max(), v[:, 0].max(), v[:, -1].max())
        return _count_above(v.reshape(-1), lam) * h * h, border > lam
    whole = np.zeros(lam.size + 1, dtype=np.int64)
    runs = []
    a, b = v[:-1], v[1:]
    # a single node makes one empty block
    for s in range(0, max(a.size, 1), _CELL_BLOCK):
        lo = np.minimum(a[s:s + _CELL_BLOCK], b[s:s + _CELL_BLOCK])
        hi = np.maximum(a[s:s + _CELL_BLOCK], b[s:s + _CELL_BLOCK])
        first, stop = np.searchsorted(lam, lo), np.searchsorted(lam, hi)
        whole += np.bincount(first, minlength=lam.size + 1)
        cross = first < stop
        runs.append((lo[cross], hi[cross], first[cross], stop[cross]))
    lo, hi, first, stop = (np.concatenate(parts) for parts in zip(*runs))
    volume = h * np.cumsum(whole[::-1])[::-1][1:]
    volume += h * _crossing_sums(lo, hi, first, stop, lam)
    at_start, at_end = v[0] > lam, v[-1] > lam
    # a single node owns both halves of its cell
    volume += 0.5 * h * (at_start.astype(float) + at_end.astype(float))
    return volume, at_start | at_end


def superlevel_volume(field: MaximalField, lam: float):
    """Volume of {field > lam} inside the window, with a boundary flag:
    `_superlevel_volumes` at one level, O(n) for n nodes."""
    volumes, flags = _superlevel_volumes(field, np.array([lam], dtype=float))
    return float(volumes[0]), bool(flags[0])


@dataclass(frozen=True)
class DistributionCurve:
    lambdas: tuple
    volumes: tuple
    flags: tuple

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        vol = np.asarray(self.volumes, dtype=float)
        flg = np.asarray(self.flags, dtype=bool)
        if not (lam.size == vol.size == flg.size):
            raise ValueError("mismatched sample arrays")
        if not np.all(np.isfinite(vol)):
            raise ValueError("volumes must be finite")
        if np.any(vol < 0):
            raise ValueError("negative volume")
        slack = _FP * (1.0 + vol.max(initial=0.0))
        if np.any(np.diff(vol) > slack):
            raise ValueError("superlevel volumes must be nonincreasing")
        object.__setattr__(self, "lambdas", tuple(lam))
        object.__setattr__(self, "volumes", tuple(vol))
        object.__setattr__(self, "flags", tuple(bool(f) for f in flg))
        object.__setattr__(self, "_lam", lam)
        object.__setattr__(self, "_vol", vol)

    @property
    def products(self) -> np.ndarray:
        return self._lam * self._vol


def distribution_curve(field: MaximalField,
                       lg: LambdaGrid) -> DistributionCurve:
    """Sample lambda -> vol({field > lambda}) over the level grid, every
    level in one pass (`_superlevel_volumes`): O(n log L + L + P log P) for
    n nodes, L levels and P crossings of a level inside a 1D cell."""
    if field.flagged_fraction > 0.5:
        raise TruncationError(
            f"{field.flagged_fraction:.0%} of nodes are below the resolved "
            "radius scale; refine the grid or shrink r_min")
    lam = np.asarray(lg.lambdas)
    volumes, flags = _superlevel_volumes(field, lam)
    return DistributionCurve(lambdas=tuple(lam), volumes=tuple(volumes),
                             flags=tuple(flags))


# ----------------------------------------------------------------------
# tail classification


DECAYS = "decays_to_zero"
PERSISTS = "bounded_away_from_zero"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TailVerdict:
    classification: str
    tail_min: float
    tail_max: float
    tail_last: float
    monotone: bool
    threshold: float
    reason: str = ""

    def __post_init__(self):
        if not (self.tail_min - _FP <= self.tail_last <= self.tail_max + _FP):
            raise ValueError("tail stats out of order")


def tail_verdict(curve: DistributionCurve, threshold: float) -> TailVerdict:
    """Classify the curve by its products over the top decade of levels.

    decays_to_zero if the whole decade sits below the threshold,
    bounded_away_from_zero if it sits above; anything else, including a
    window-boundary flag inside the decade, is inconclusive.
    """
    lam = np.asarray(curve.lambdas)
    if lam[-1] / lam[0] < 10.0 * (1 - 1e-9):
        raise ValueError("curve must span at least one decade of levels")
    decade = lam >= lam[-1] / 10.0 * (1 - _FP)
    prods = curve.products[decade]
    tail_min = float(prods.min())
    tail_max = float(prods.max())
    tail_last = float(prods[-1])
    diffs = np.diff(prods)
    scale = 0.05 * max(tail_max, threshold)  # 5% ripple allowance
    monotone = bool(np.all(diffs <= scale) or np.all(diffs >= -scale))
    flagged = bool(np.any(np.asarray(curve.flags)[decade]))
    if flagged:
        cls, reason = INCONCLUSIVE, "superlevel set reaches the window boundary"
    elif tail_max < threshold:
        cls, reason = DECAYS, ""
    elif tail_min > threshold:
        cls, reason = PERSISTS, ""
    else:
        cls = INCONCLUSIVE
        reason = "tail straddles threshold" + ("" if monotone else
                                               " and is not monotone")
    return TailVerdict(cls, tail_min, tail_max, tail_last, monotone,
                       float(threshold), reason)


def weak11_constant(curve: DistributionCurve, total_mass: float) -> float:
    """sup_lambda lambda*vol({field > lambda}) normalized by the input mass."""
    if total_mass <= 0:
        raise ValueError("total mass must be positive")
    return float(curve.products.max()) / total_mass


# ----------------------------------------------------------------------
# evaluation window sizing


def evaluation_window(mu: Measure, lam_min: float) -> Box:
    """Support box padded so that {M|mu| > lam_min} cannot escape it.

    A ball reaching the support from distance t has radius > t, hence
    average mass at most |mu| / (omega_d t^d); the margin inverts that at
    lam_min, and a 5% cushion keeps the crossing strictly inside.
    """
    if lam_min <= 0:
        raise ValueError("lam_min must be positive")
    d = mu.dimension
    total = mu.total_variation()
    if total == 0:
        return Box((-1.0,) * d, (1.0,) * d)
    margin = 1.05 * (total / (ball_volume(d, 1.0) * lam_min)) ** (1.0 / d)
    sb = mu.support_box()
    lo = tuple(c - margin for c in sb.lo)
    hi = tuple(c + margin for c in sb.hi)
    return Box(lo, hi)


def evaluation_grid(mu: Measure, lam_min: float,
                    spacing: float) -> UniformGrid:
    window = evaluation_window(mu, lam_min)
    return UniformGrid.cover_cells(window.lo, window.hi, spacing)


def _level_floor(lam_max: float, decades: float) -> float:
    """lam_max / 10^decades, at least the smallest float, never overflowing."""
    try:
        return max(lam_max / 10.0 ** decades, math.ulp(0.0))
    except OverflowError:
        return math.ulp(0.0)


# ----------------------------------------------------------------------
# inequality checks sharing the level-set machinery


class ExperimentResult(NamedTuple):
    field: MaximalField
    curve: DistributionCurve
    verdict: TailVerdict


def distribution_experiment(mu: Measure, variant: str = "M",
                            tau: Optional[float] = None, h: float = 1e-3,
                            radii_per_decade: int = 64,
                            lambda_decades: float = 2.0,
                            lam_max: Optional[float] = None,
                            threshold: Optional[float] = None
                            ) -> ExperimentResult:
    """Full pipeline measure -> field -> curve -> verdict.

    Default level range tops out where a superlevel component is still a
    few cells wide (lam_max = |mu| / (omega_d (5h)^d)), spanning
    lambda_decades downward; the window follows the containment rule at
    lam_min.  Threshold defaults to 5% of the total mass.
    """
    d = mu.dimension
    total = mu.total_variation()
    if total == 0:
        grid = UniformGrid.cover_cells((-1.0,) * d, (1.0,) * d, 0.5)
        rg = RadiusGrid.geometric(0.5, 4.0, 8)
        fld = maximal_field(mu, grid, rg, variant, tau=None)
        curve = distribution_curve(fld, LambdaGrid.geometric(0.1, 10.0, 8))
        verdict = tail_verdict(curve, threshold if threshold else 1e-12)
        return ExperimentResult(fld, curve, verdict)
    if lam_max is None:
        try:
            lam_max = total / (ball_volume(d, 1.0) * (5.0 * h) ** d)
        except (OverflowError, ZeroDivisionError):
            lam_max = 0.0  # (5h)^d past the float range: rejected below
        if not 0 < lam_max < math.inf:
            raise BudgetError(f"h={h:g} puts the top level |mu| / (omega_d "
                              f"(5h)^{d}) out of the float range")
    lam_min = _level_floor(lam_max, lambda_decades)
    grid = evaluation_grid(mu, lam_min, h)
    rg = RadiusGrid.geometric(h, 1.2 * grid.cell_box().diameter(),
                              radii_per_decade)
    if variant == "Mtau" and tau is not None and not (
            rg.r_min < tau <= rg.r_max):
        raise ResolutionError(f"tau={tau:g} lies outside the swept radii "
                              f"({rg.r_min:g}, {rg.r_max:g}]")
    fld = maximal_field(mu, grid, rg, variant, tau=tau)
    curve = distribution_curve(fld, LambdaGrid.geometric(lam_min, lam_max,
                                                         48))
    thr = threshold if threshold is not None else 0.05 * total
    return ExperimentResult(fld, curve, tail_verdict(curve, thr))


def sobolev_experiment(f, h: float = 1e-3, radii_per_decade: int = 48,
                       lambda_decades: float = 2.0,
                       threshold: Optional[float] = None) -> ExperimentResult:
    """Oscillation-field pipeline for a 1D function of bounded variation.

    The slope grid starts at 4h (single-cell balls see no variation of a
    sampled function, so the smallest meaningful radius spans a few cells)
    and levels top out at 1/(16h), the largest slope scale the radius floor
    resolves.  The window pads the variation span so that oscillation
    values past the pad sit below lam_min: shifting by the left tail value
    makes f summable on one side, giving the L1/s^2 envelope, and a
    nonvanishing right tail adds its TV/(4s) term.
    """
    r_min = 4.0 * h
    lam_max = 1.0 / (4.0 * r_min)
    lam_min = _level_floor(lam_max, lambda_decades)
    lo, hi = f.support_span()
    if hi <= lo:
        hi = lo + 1.0
    shift = f.value(lo - 1.0)
    tv = f.total_variation()
    l1 = f.abs_deviation_integral(lo, hi, shift)
    base = 4.0 * r_min
    m_left = 1.05 * max(base, math.sqrt(l1 / lam_min))
    m_right = m_left
    tail = abs(f.value(hi + 1.0) - shift)
    if tail > 1e-12:
        m_right = 1.05 * max(base, math.sqrt(l1 / lam_min),
                             tv / (4.0 * lam_min))
    grid = UniformGrid.cover_cells([lo - m_left], [hi + m_right], h)
    gf = GridFunction(grid, f.value(grid.axis(0)) - shift)
    rg = RadiusGrid.geometric(r_min, 1.2 * grid.cell_box().diameter(),
                              radii_per_decade)
    fld = oscillation_field(gf, rg)
    curve = distribution_curve(fld, LambdaGrid.geometric(lam_min, lam_max,
                                                         48))
    thr = threshold if threshold is not None else max(0.05 * tv, 1e-12)
    verdict = tail_verdict(curve, thr)
    if tv > 0 and not np.any(gf.values):
        # f varies, but the grid sees a constant: A = 0 says nothing
        verdict = replace(verdict, classification=INCONCLUSIVE,
                          reason=f"no grid sample at h={h:g} differs from "
                          "the left-tail value of f")
    return ExperimentResult(fld, curve, verdict)


class ReverseWeakResult(NamedTuple):
    lhs: float
    rhs: float
    ratio: float
    holds: bool


def reverse_weak11_check(f: GridFunction, t: float) -> ReverseWeakResult:
    """Reverse-direction weak (1,1) bound for a nonnegative grid density,
    in its global form:

        t * vol({Mf > t})  >=  0.1 * integral of f over {f > t} ?
    """
    if t <= 0:
        raise ValueError("level t must be positive")
    values = np.asarray(f.values, dtype=float).reshape(-1)
    if np.any(values < 0):
        raise ValueError("density must be nonnegative")
    h = f.grid.spacing
    cell = h ** f.grid.dimension
    rhs = cell * float(np.sum(values[values > t]))
    mu = f.as_density_measure()
    if mu.total_variation() == 0:
        return ReverseWeakResult(0.0, rhs, math.inf if rhs == 0 else 0.0,
                                 rhs == 0)
    grid = evaluation_grid(mu, t, h)
    rg = RadiusGrid.geometric(h, 1.2 * grid.cell_box().diameter())
    fld = maximal_field(mu, grid, rg, "M")
    volume, _ = superlevel_volume(fld, t)
    lhs = t * volume
    ratio = lhs / rhs if rhs > 0 else math.inf
    holds = lhs >= 0.1 * rhs - _FP * (1.0 + rhs)
    return ReverseWeakResult(lhs, rhs, ratio, holds)


class SemigroupResult(NamedTuple):
    avg: float
    bound: float
    holds: bool
    nodes: int


def semigroup_check(mu: Measure, x, r: float,
                    eps: float) -> SemigroupResult:
    """Grid average of the eps-mollification over B(x, r) against the
    2^d-inflated mollification at scale r + eps, with a relative
    tolerance of 1e-6.

    The sampling grid is symmetric about x with spacing min(eps, r)/24 in
    d=1 (12 in d=2), fine enough that the discrete average cannot overshoot
    the continuum bound for the stress ranges used in the test suite.
    """
    if r <= 0 or eps <= 0:
        raise ValueError("r and eps must be positive")
    d = mu.dimension
    x = np.asarray(x, dtype=float).reshape(d)
    delta = min(eps, r) / (24.0 if d == 1 else 12.0)
    k = int(math.floor(r * (1 - _FP) / delta))
    offsets = delta * np.arange(-k, k + 1)
    if d == 1:
        pts = x[0] + offsets.reshape(-1, 1)
    else:
        oi, oj = np.meshgrid(offsets, offsets, indexing="ij")
        keep = oi ** 2 + oj ** 2 < r * r * (1 - _FP)
        pts = np.stack([x[0] + oi[keep], x[1] + oj[keep]], axis=1)
    vals = mu.mollified_density_points(pts, eps)
    avg = float(vals.mean())
    bound = (2.0 ** d) * mu.mollified_density(x, r + eps)
    holds = avg <= bound * (1.0 + 1e-6) + _FP
    return SemigroupResult(avg, bound, holds, len(pts))
