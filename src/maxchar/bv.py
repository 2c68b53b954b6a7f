"""Exact calculus for 1D piecewise-affine functions with jumps.

A function is stored as breakpoints with per-interval slopes plus a list of
signed jumps; it is constant left of the first breakpoint (initial_value)
and after the last one.  All integrals, total variations, means, and the
penalized lower-bound inequalities are evaluated in closed form, so these
routines serve as exact oracles for the sampled-grid code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import UniformGrid
from .measure import Measure

_EPS = 1e-12


def _batch(*args):
    """The arguments broadcast together as flat float arrays, with the
    shape to give results back in."""
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in args))
    return arrays[0].shape, [v.ravel() for v in arrays]


def _shaped(shape, values: np.ndarray):
    """Flat results in the broadcast shape; a Python scalar for scalars."""
    return values.reshape(shape) if shape else values[0].item()


class _Pieces(NamedTuple):
    """The affine pieces of a batch of intervals, interval by interval from
    left to right: interval i owns pieces starts[i]:starts[i + 1]."""
    starts: np.ndarray
    ball: np.ndarray  # owning interval of each piece
    slot: np.ndarray  # its position within that interval
    x0: np.ndarray
    x1: np.ndarray
    f_mid: np.ndarray
    slope: np.ndarray


@dataclass(frozen=True)
class BVFunction1D:
    breakpoints: tuple = ()
    slopes: tuple = ()
    jumps: tuple = ()  # (location, signed height), right-continuous
    initial_value: float = 0.0
    compact_support: bool = False

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        sl = np.asarray(self.slopes, dtype=float)
        if bp.size:
            if len(sl) != len(bp) - 1:
                raise ValueError("need one slope per breakpoint interval")
            if not np.all(np.diff(bp) > 0):
                raise ValueError("breakpoints must be strictly increasing")
        elif len(sl):
            raise ValueError("slopes without breakpoints")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(sl))):
            raise ValueError("non-finite breakpoints or slopes")
        jumps = sorted(((float(x), float(h)) for x, h in self.jumps),
                       key=lambda p: p[0])
        jloc = np.asarray([x for x, _ in jumps], dtype=float)
        jh = np.asarray([h for _, h in jumps], dtype=float)
        if jloc.size and np.any(np.diff(jloc) == 0):
            raise ValueError("jump locations must be distinct")
        if not (np.all(np.isfinite(jloc)) and np.all(np.isfinite(jh))):
            raise ValueError("non-finite jumps")
        object.__setattr__(self, "breakpoints", tuple(bp))
        object.__setattr__(self, "slopes", tuple(sl))
        object.__setattr__(self, "jumps", tuple(jumps))
        object.__setattr__(self, "initial_value", float(self.initial_value))
        object.__setattr__(self, "_bp", bp)
        object.__setattr__(self, "_sl", sl)
        object.__setattr__(self, "_jloc", jloc)
        object.__setattr__(self, "_jcum",
                           np.concatenate([[0.0], np.cumsum(jh)]))
        object.__setattr__(self, "_jh", jh)
        if bp.size:
            vals = self.initial_value + np.concatenate(
                [[0.0], np.cumsum(sl * np.diff(bp))])
        else:
            vals = np.asarray([self.initial_value])
        object.__setattr__(self, "_bpvals", vals)
        # the piece table's lookups, padded by one entry at each end: the
        # sorted distinct cuts, and the slope left of, between and right of
        # the breakpoints (np.union1d would import numpy.ma)
        cuts = np.sort(np.concatenate([bp, jloc]))
        object.__setattr__(self, "_cuts", np.concatenate(
            [[0.0], cuts[np.diff(cuts, prepend=-np.inf) > 0], [0.0]]))
        object.__setattr__(self, "_padded_slopes",
                           np.concatenate([[0.0], sl, [0.0]]))
        if self.compact_support:
            final = float(vals[-1]) + float(np.sum(jh))
            if abs(self.initial_value) > _EPS or abs(final) > _EPS:
                raise ValueError(
                    f"compact support needs zero tails, got "
                    f"{self.initial_value} and {final}")

    # ------------------------------------------------------------------

    def _continuous(self, x):
        x = np.asarray(x, dtype=float)
        if self._bp.size:
            return np.interp(x, self._bp, self._bpvals)
        return np.full(x.shape, self.initial_value)

    def value(self, x):
        """f(x), right-continuous at jumps."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self._jloc, x, side="right")
        out = self._continuous(x) + self._jcum[idx]
        return float(out) if out.ndim == 0 else out

    def support_span(self) -> tuple:
        pts = list(self._bp) + list(self._jloc)
        if not pts:
            return (0.0, 0.0)
        return (min(pts), max(pts))

    def total_variation(self) -> float:
        tv = float(np.sum(np.abs(self._jh)))
        if self._bp.size:
            tv += float(np.sum(np.abs(self._sl) * np.diff(self._bp)))
        return tv

    def jump_variation(self) -> float:
        return float(np.sum(np.abs(self._jh)))

    # ------------------------------------------------------------------
    # exact integrals, batched: a, b (and m, nu, v) are scalars or arrays
    # that broadcast together; scalar arguments give a float

    def _pieces(self, a, b) -> _Pieces:
        """Cut each (a_i, b_i) at the breakpoints and jump locations strictly
        inside it; f is affine on each open piece.  b_i <= a_i gives none."""
        ext = self._cuts  # ext[k + 1] is cut k, for k = -1 ... cuts
        lo = np.searchsorted(ext[1:-1], a, side="right")
        count = np.where(b > a, np.searchsorted(ext[1:-1], b) - lo + 1, 0)
        starts = np.concatenate([[0], np.cumsum(count)])
        ball = np.repeat(np.arange(a.size), count)
        slot = np.arange(starts[-1]) - starts[ball]
        at = lo[ball] + slot
        x0 = np.where(slot == 0, a[ball], ext[at])
        x1 = np.where(slot == count[ball] - 1, b[ball], ext[at + 1])
        mid = 0.5 * (x0 + x1)
        return _Pieces(starts, ball, slot, x0, x1, self.value(mid),
                       self._padded_slopes[np.searchsorted(self._bp, mid)])

    @staticmethod
    def _integrals(p: _Pieces) -> np.ndarray:
        """Per interval, the exactly rounded sum of (x1 - x0) f(mid): the
        midpoint rule is exact per piece, and the order does not matter."""
        terms = ((p.x1 - p.x0) * p.f_mid).tolist()
        bounds = p.starts.tolist()
        return np.array([math.fsum(terms[s:e])
                         for s, e in zip(bounds[:-1], bounds[1:])])

    @staticmethod
    def _abs_deviations(p: _Pieces, m) -> np.ndarray:
        """Per interval, the integral of |f - m_i|, split at sign changes and
        summed piece by piece from the left: a running sum along each row
        (every term is >= +0, so the padding slots add +0.0 exactly, and
        the first term equals 0.0 plus it)."""
        x0, x1 = p.x0, p.x1
        half = 0.5 * (x1 - x0)
        g0 = p.f_mid - m[p.ball] - p.slope * half
        g1 = p.f_mid - m[p.ball] + p.slope * half
        a0, a1 = np.abs(g0), np.abs(g1)
        term = 0.5 * (a0 + a1) * (x1 - x0)
        cross = g0 * g1 < 0
        a0c, a1c = a0[cross], a1[cross]
        t = a0c / (a0c + a1c)  # crossing fraction
        term[cross] = 0.5 * (x1 - x0)[cross] * (a0c * t + a1c * (1 - t))
        slots = np.zeros((m.size, 1 + int(np.max(np.diff(p.starts),
                                                 initial=0))))
        slots[p.ball, p.slot] = term
        return np.cumsum(slots, axis=1)[:, -1]

    def integral(self, a, b):
        """Exact integral of f over (a, b)."""
        shape, (a, b) = _batch(a, b)
        return _shaped(shape, self._integrals(self._pieces(a, b)))

    def abs_deviation_integral(self, a, b, m):
        """Exact integral of |f - m| over (a, b), splitting at sign changes."""
        shape, (a, b, m) = _batch(a, b, m)
        return _shaped(shape, self._abs_deviations(self._pieces(a, b), m))

    def l1_norm(self, a, b):
        return self.abs_deviation_integral(a, b, 0.0)

    def _variation(self, a, b, weight) -> np.ndarray:
        """Integral of weight(eta, rows) d|Df| over each (a_i, b_i), with eta
        the sign of the derivative and rows the intervals eta belongs to:
        slopes clipped to (a, b), jumps strictly inside.

        Each row is summed by np.sum over rows of one length, which adds as
        the 1D np.sum of that row does; zero-padding to a common length
        would not, so the jumps are grouped by their count."""
        lo = np.maximum(self._bp[:-1], a[:, None])
        hi = np.minimum(self._bp[1:], b[:, None])
        lens = np.maximum(0.0, hi - lo)
        total = np.sum(weight(np.sign(self._sl), slice(None))
                       * np.abs(self._sl) * lens, axis=1)
        # first index and count of the jumps strictly inside each (a, b)
        first = np.searchsorted(self._jloc, a, side="right")
        count = np.maximum(np.searchsorted(self._jloc, b) - first, 0)
        for n in set(count.tolist()) - {0}:
            rows = np.flatnonzero(count == n)
            jh = self._jh[first[rows, None] + np.arange(n)]
            total[rows] += np.sum(weight(np.sign(jh), rows) * np.abs(jh),
                                  axis=1)
        return np.where(b > a, total, 0.0)

    def tv_open(self, a, b):
        """|Df|((a, b)): jumps strictly inside, consistent with open balls."""
        shape, (a, b) = _batch(a, b)
        return _shaped(shape, self._variation(a, b, lambda eta, rows: 1.0))

    def penalty_integral(self, a, b, nu):
        """Directional penalty: integral of (1 - nu * eta) d|Df| over (a, b),
        with eta the sign of the derivative."""
        shape, (a, b, nu) = _batch(a, b, nu)
        if np.any(np.abs(np.abs(nu) - 1.0) > _EPS):
            raise ValueError("direction must be a unit vector")
        return _shaped(shape, self._variation(
            a, b, lambda eta, rows: 1.0 - nu[rows, None] * eta))

    def any_vector_penalty(self, a, b, v):
        """Penalty 2 * integral of |eta - v| d|Df| over (a, b), v arbitrary."""
        shape, (a, b, v) = _batch(a, b, v)
        return _shaped(shape, 2.0 * self._variation(
            a, b, lambda eta, rows: np.abs(eta - v[rows, None])))


# ----------------------------------------------------------------------
# inequality checks


def _penalized_bound(f: BVFunction1D, x, r, c1: float, c2: float, penalty):
    """(lhs, rhs, holds, oscillation, penalty) of

        (1/r) int_{B(x, c2 r)} |f - mean| + penalty(x - c2 r, x + c2 r)
            >=  c1 |Df|(B(x, r)) ?

    for flat arrays x and r; the mean and the oscillation share one piece
    table of the outer balls.
    """
    if np.any(r <= 0):
        raise ValueError("r must be positive")
    if c2 < 1:
        raise ValueError("c2 must be at least 1")
    R = c2 * r
    pieces = f._pieces(x - R, x + R)
    m = f._integrals(pieces) / (2.0 * R)
    osc = f._abs_deviations(pieces, m) / r
    pen = penalty(x - R, x + R)
    lhs = osc + pen
    rhs = f.tv_open(x - r, x + r)
    holds = lhs >= c1 * rhs - _EPS * (1.0 + np.abs(lhs) + np.abs(rhs))
    return lhs, rhs, holds, osc, pen


class ReversePoincareResult(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    oscillation_term: float
    penalty_term: float


def reverse_poincare_check(f: BVFunction1D, x, r, nu, c1: float,
                           c2: float) -> ReversePoincareResult:
    """Penalized lower bound on local total variation:

        (1/r) int_{B(x, c2 r)} |f - mean| + int_{B(x, c2 r)} (1 - nu eta) d|Df|
            >=  c1 |Df|(B(x, r)) ?

    Both sides are exact; holds compares with c1 and an fp cushion.  x, r
    and nu broadcast together; arrays give arrays in each field.
    """
    shape, (x, r, nu) = _batch(x, r, nu)
    sides = _penalized_bound(f, x, r, c1, c2,
                             lambda a, b: f.penalty_integral(a, b, nu))
    return ReversePoincareResult(*(_shaped(shape, s) for s in sides))


def any_vector_penalty_check(f: BVFunction1D, x, r, v, c1: float,
                             c2: float) -> ReversePoincareResult:
    """Variant replacing the directional penalty by 2 int |eta - v| d|Df|.

    For v != 0 this penalty dominates the directional one with nu = v/|v|,
    since 2|eta - v| >= 1 - (v/|v|) eta for eta = +-1.  x, r and v
    broadcast together as in reverse_poincare_check.
    """
    shape, (x, r, v) = _batch(x, r, v)
    sides = _penalized_bound(f, x, r, c1, c2,
                             lambda a, b: f.any_vector_penalty(a, b, v))
    return ReversePoincareResult(*(_shaped(shape, s) for s in sides))


def ramp_plateau_counterexample(n: int) -> BVFunction1D:
    """Two boundary ramps of slope n joined by a zero plateau on [-1, 1]:
    rises from -1 to 0 on [-1, -(1-1/n)], stays 0, rises to 1 on [1-1/n, 1].

    Exactly: zero mean over (-1, 1), L1 norm 1/n, total variation 2.  With
    matched inner and outer balls (x=0, r=1) the oscillation side is 1/n
    while the variation side is 2, so no fixed lower-bound constant survives
    n -> infinity; an enlarged outer ball is necessary.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n == 1:
        return BVFunction1D(breakpoints=(-1.0, 1.0), slopes=(1.0,),
                            initial_value=-1.0)
    a = 1.0 - 1.0 / n
    return BVFunction1D(breakpoints=(-1.0, -a, a, 1.0),
                        slopes=(float(n), 0.0, float(n)),
                        initial_value=-1.0)


# ----------------------------------------------------------------------
# derivative as a measure


def derivative_measure(f: BVFunction1D) -> Measure:
    """Df as a Measure: jump part as atoms (exact), affine part resampled as
    a cell density.  Per-cell integrals of the density match the slope data
    exactly; localization of slope boundaries is O(cell width).
    """
    atoms = tuple(((loc,), h) for loc, h in f.jumps)
    density = None
    if f._bp.size and np.any(f._sl != 0.0):
        lo, hi = float(f._bp[0]), float(f._bp[-1])
        spans = np.diff(f._bp)
        cells = int(min(4096, max(256, 8 * math.ceil(
            (hi - lo) / max(spans.min(), 1e-9)))))
        grid = UniformGrid.cover_cells([lo], [hi], (hi - lo) / cells,
                                       "slope grid of a BV slice")
        h = grid.spacing
        edges = grid.origin[0] - 0.5 * h + h * np.arange(grid.extents[0] + 1)
        cumulative = np.interp(edges, f._bp, f._bpvals)
        density = (grid, np.diff(cumulative) / h)
    return Measure(1, atoms=atoms, density=density)

