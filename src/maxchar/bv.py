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
    # exact integrals

    def _segments(self, a: float, b: float):
        """Cut (a, b) at breakpoints and jump locations; f is affine on each
        open piece.  Yields (x0, x1, f_mid, slope)."""
        if b <= a:
            return
        cuts = [a, b]
        cuts.extend(t for t in self._bp if a < t < b)
        cuts.extend(t for t in self._jloc if a < t < b)
        cuts = sorted(set(cuts))
        for x0, x1 in zip(cuts[:-1], cuts[1:]):
            mid = 0.5 * (x0 + x1)
            k = np.searchsorted(self._bp, mid) - 1
            slope = float(self._sl[k]) if 0 <= k < len(self._sl) else 0.0
            yield x0, x1, float(self.value(mid)), slope

    def integral(self, a: float, b: float) -> float:
        """Exact integral of f over (a, b): midpoint rule is exact per piece."""
        return math.fsum((x1 - x0) * fm for x0, x1, fm, _ in self._segments(a, b))

    def mean_ball(self, x: float, r: float) -> float:
        return self.integral(x - r, x + r) / (2.0 * r)

    def abs_deviation_integral(self, a: float, b: float, m: float) -> float:
        """Exact integral of |f - m| over (a, b), splitting at sign changes."""
        total = 0.0
        for x0, x1, fm, s in self._segments(a, b):
            half = 0.5 * (x1 - x0)
            g0 = fm - m - s * half
            g1 = fm - m + s * half
            if g0 * g1 < 0:
                t = abs(g0) / (abs(g0) + abs(g1))  # crossing fraction
                total += 0.5 * (x1 - x0) * (abs(g0) * t + abs(g1) * (1 - t))
            else:
                total += 0.5 * (abs(g0) + abs(g1)) * (x1 - x0)
        return float(total)

    def l1_norm(self, a: float, b: float) -> float:
        return self.abs_deviation_integral(a, b, 0.0)

    def _variation(self, a: float, b: float, weight) -> float:
        """Integral of weight(eta) d|Df| over (a, b), with eta the sign of
        the derivative: slopes clipped to (a, b), jumps strictly inside."""
        if b <= a:
            return 0.0
        total = 0.0
        if self._bp.size:
            lo = np.maximum(self._bp[:-1], a)
            hi = np.minimum(self._bp[1:], b)
            lens = np.maximum(0.0, hi - lo)
            total += float(np.sum(
                weight(np.sign(self._sl)) * np.abs(self._sl) * lens))
        jh = self._jh[(self._jloc > a) & (self._jloc < b)]
        total += float(np.sum(weight(np.sign(jh)) * np.abs(jh)))
        return total

    def tv_open(self, a: float, b: float) -> float:
        """|Df|((a, b)): jumps strictly inside, consistent with open balls."""
        return self._variation(a, b, lambda eta: 1.0)

    def penalty_integral(self, a: float, b: float, nu: float) -> float:
        """Directional penalty: integral of (1 - nu * eta) d|Df| over (a, b),
        with eta the sign of the derivative."""
        if abs(abs(nu) - 1.0) > _EPS:
            raise ValueError("direction must be a unit vector")
        return self._variation(a, b, lambda eta: 1.0 - nu * eta)

    def any_vector_penalty(self, a: float, b: float, v: float) -> float:
        """Penalty 2 * integral of |eta - v| d|Df| over (a, b), v arbitrary."""
        return 2.0 * self._variation(a, b, lambda eta: np.abs(eta - v))


# ----------------------------------------------------------------------
# inequality checks


def _penalized_bound(f: BVFunction1D, x: float, r: float, c1: float,
                     c2: float, penalty):
    """(lhs, rhs, holds, oscillation, penalty) of

        (1/r) int_{B(x, c2 r)} |f - mean| + penalty(x - c2 r, x + c2 r)
            >=  c1 |Df|(B(x, r)) ?
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if c2 < 1:
        raise ValueError("c2 must be at least 1")
    R = c2 * r
    m = f.mean_ball(x, R)
    osc = f.abs_deviation_integral(x - R, x + R, m) / r
    pen = penalty(x - R, x + R)
    lhs = osc + pen
    rhs = f.tv_open(x - r, x + r)
    holds = lhs >= c1 * rhs - _EPS * (1.0 + abs(lhs) + abs(rhs))
    return lhs, rhs, holds, osc, pen


class ReversePoincareResult(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    oscillation_term: float
    penalty_term: float


def reverse_poincare_check(f: BVFunction1D, x: float, r: float, nu: float,
                           c1: float, c2: float) -> ReversePoincareResult:
    """Penalized lower bound on local total variation:

        (1/r) int_{B(x, c2 r)} |f - mean| + int_{B(x, c2 r)} (1 - nu eta) d|Df|
            >=  c1 |Df|(B(x, r)) ?

    Both sides are exact; holds compares with c1 and an fp cushion.
    """
    return ReversePoincareResult(*_penalized_bound(
        f, x, r, c1, c2, lambda a, b: f.penalty_integral(a, b, nu)))


class AnyVectorResult(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    oscillation_term: float
    penalty_term: float
    consistency_ok: bool


def any_vector_penalty_check(f: BVFunction1D, x: float, r: float, v: float,
                             c1: float, c2: float) -> AnyVectorResult:
    """Variant replacing the directional penalty by 2 int |eta - v| d|Df|.

    For v != 0 also verifies the pointwise domination
    2|eta - v| >= 1 - (v/|v|) eta on the derivative's support in the ball.
    """
    sides = _penalized_bound(f, x, r, c1, c2,
                             lambda a, b: f.any_vector_penalty(a, b, v))
    consistency = True
    if v != 0.0:
        R = c2 * r
        unit = v / abs(v)
        etas = [math.copysign(1.0, s) for s in f._sl if s != 0.0]
        etas += [math.copysign(1.0, h) for loc, h in
                 zip(f._jloc, f._jh) if x - R < loc < x + R]
        consistency = all(2 * abs(e - v) >= 1 - unit * e - _EPS for e in etas)
    return AnyVectorResult(*sides, consistency)


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
        grid = UniformGrid.cover_cells([lo], [hi], (hi - lo) / cells)
        h = grid.spacing
        edges = grid.origin[0] - 0.5 * h + h * np.arange(grid.extents[0] + 1)
        cumulative = np.interp(edges, f._bp, f._bpvals)
        density = (grid, np.diff(cumulative) / h)
    return Measure(1, atoms=atoms, density=density)

