"""Maximal operators of measures and the oscillation field.

Variants:
  M     sup_r |mu|(B(x,r)) / (omega_d r^d)
  Mbar  sup_r |mu(B(x,r))| / (omega_d r^d)       (signed mass, cancellation)
  Mtau  as M but restricted to radii r < tau
  A     sup_r (1/r) avg_{B(x,r)} |f - mean_{B(x,r)} f|   (on 1D grid functions)

r runs over [r_min, r_max] of a radius grid.  Every measure takes its atom
part from one rule: each node's atom distances are sorted once per row
block (the pass that also gives the flags) and the (signed) weights summed
in that order, so the closed ball at an atom distance is read at the last
atom of its tie group and the open ball at r at the count of distances
below r.  Membership is decided by the computed distances, never by
rounded positions x +- r.  Only the atom-free rest, the density and the
curves, is queried through Measure.ball_masses.

On a purely atomic measure the ball mass is constant between consecutive
atom distances, so the sup is the open ball at r_min or the closed ball at
an atom distance (the limit from above), exact to rounding.  A measure
with a density or a curve takes these event radii first, with the rest's
mass added in the same closed ball, then the sharp density edges (open).
A sweep over the geometric radius grid then raises these values.  The
result is a lower bound of the true supremum, nondecreasing under
radius-grid refinement.

The sweep decides, at each radius, which nodes are live, whose ball can
still raise their running supremum: the ball must reach the support box,
and the running value must lie below |mu| / (omega_d r^d), which bounds
every ratio at that radius for all three variants.  That bound falls with
r, so an ascending sweep stops once every ball reaches the box and no node
is live.  With a 2D density a live node is also skipped at one radius when
its running value reaches B / (omega_d r^d), B a bound of the absolute
ball mass: the |atom part| at r, the |density| of the cells whose centres
lie in the square [x +- r]^2 (from a summed-area table) and the |curve|
total.  The tests carry a relative slack of 1e-9 (B also 1e-9 |mu|).

Ascending, a node far from the mass climbs its rising ratio curve one
radius at a time, too low to prune anything.  So a 2D density is swept in
a coarse pass, every 8th radius and the last, ascending to the stop, then
a fine pass, the other radii below the stop, descending.  There B also
takes the absolute mass of the node's smallest ball queried so far in the
pass, since |mu|(B(x, r)) is nondecreasing in r; it is |mu| at first and
stays |mu| for Mbar, whose signed mass is not monotone.

The live (node, radius) pairs are queued and sent to Measure.ball_masses
together, one radius per pair, once about 4,096 are pending and when a
pass ends or stops.  A queued pair raises its node's value only at the
flush, so a pair skipped in between is still bounded by that value.  Every
mass is computed node by node with the arithmetic of a scalar radius, so
each value is the max of the same per-pair ratios as the full sweep, bit
for bit, whatever the batch and the order.

The 1D oscillation field takes every window mean from one prefix sum and
the deviation from sum |v - m| = 2 sum_{v > m} (v - m).  The samples are
split once into maximal monotone runs; inside a run {v > m} is one
contiguous block, so a window of W nodes costs O(runs * log n) instead of
O(W).  A radius whose windows are at most 16 nodes per run wide scans them
directly instead, which is cheaper there and serves noisy input.  Each
window width K is computed once, at the smallest radius with that K: a
larger radius with the same K has the same windows over fewer admitted
centres and divides by more.  Only centres whose window meets the span of
the nonzero samples are computed; a window in a zero pad has mean and
deviation exactly 0.  The means are differences of two prefix-sum slices
and each run's window bounds one clamped slice of the window starts, so a
width K costs O(m * runs * log n), m the count of those centres, with the
bits of the loop over every radius and every centre.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BudgetError, WindowTooSmallError
from .geometry import UNIT_BALL_VOLUME, UniformGrid
from .measure import _EVENT_BLOCK, GridFunction, Measure

# the most radii a geometric grid may hold: about 32 times the largest grid
# of the tests, specs, verify and benchmark workloads (501 radii)
_RADIUS_BUDGET = 1 << 14


@dataclass(frozen=True)
class RadiusGrid:
    """Strictly increasing positive candidate radii."""

    radii: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        if r.ndim != 1 or len(r) < 2:
            raise ValueError("need at least two radii")
        if r[0] <= 0 or not np.all(np.diff(r) > 0):
            raise ValueError("radii must be positive and strictly increasing")
        object.__setattr__(self, "radii", r)

    @property
    def r_min(self) -> float:
        return float(self.radii[0])

    @property
    def r_max(self) -> float:
        return float(self.radii[-1])

    @property
    def count(self) -> int:
        return len(self.radii)

    @classmethod
    def geometric(cls, r_min: float, r_max: float,
                  per_decade: int = 64) -> "RadiusGrid":
        if not (0 < r_min < r_max):
            raise ValueError(f"bad radius range [{r_min}, {r_max}]")
        decades = math.log10(r_max / r_min)
        try:
            count = max(2, int(math.ceil(per_decade * decades)) + 1)
        except OverflowError:
            count = math.inf
        if count > _RADIUS_BUDGET:
            raise BudgetError(f"{per_decade} radii per decade over "
                              f"[{r_min:g}, {r_max:g}] make {count:.3g} "
                              f"radii, over {_RADIUS_BUDGET}")
        return cls(np.geomspace(r_min, r_max, count))


@dataclass(frozen=True)
class MaximalField:
    """Node-wise values of one maximal variant over an evaluation grid.

    flags marks truncation-limited nodes: for M/Mbar/Mtau, nodes closer than
    r_min to the singular support (values there are finite lower bounds of a
    possibly divergent supremum); for A, nodes where every radius was
    rejected by the boundary rule.
    """

    grid: UniformGrid
    values: np.ndarray
    radius_grid: RadiusGrid
    flags: np.ndarray = field(default=None)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(self.grid.extents)
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite and nonnegative")
        object.__setattr__(self, "values", values)
        flags = self.flags
        if flags is None:
            flags = np.zeros(self.grid.extents, dtype=bool)
        flags = np.asarray(flags, dtype=bool).reshape(self.grid.extents)
        object.__setattr__(self, "flags", flags)

    @property
    def flagged_fraction(self) -> float:
        return float(np.mean(self.flags))


# relative slack of both prune tests in maximal_values_at; it covers the
# rounding of the box distance and of a computed mass against the total
_PRUNE_SLACK = 1e-9

# the sweep queries its live (node, radius) pairs once this many are queued;
# smaller batches pay more calls, larger ones query more pairs against an
# older running value (of 1,024 to 16,384, 4,096 and 8,192 were fastest)
_SWEEP_BATCH = 4096

# the coarse pass's radius stride (of 4, 8 and 16, fastest on the square)
_COARSE_STRIDE = 8


def _support_gap(mu: Measure, points: np.ndarray) -> np.ndarray:
    """Distance from each point to the support box (inf for mu = 0)."""
    box = mu.support_box()
    if box is None:
        return np.full(len(points), np.inf)
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    return np.linalg.norm(np.maximum(np.maximum(lo - points, points - hi),
                                      0.0), axis=1)


def _sorted_atom_sums(mu: Measure, points: np.ndarray, signed: bool):
    """Each point's atom distances, sorted (stable), and the running sums
    of the (signed) weights in that order: sums[i, j] is the mass of the
    j + 1 atoms nearest to point i."""
    dist = mu._atom_distances(points)
    order = np.argsort(dist, axis=1, kind="stable")
    w = mu._aw if signed else np.abs(mu._aw)
    sums = np.cumsum(w[order], axis=1)
    return np.take_along_axis(dist, order, axis=1), sums


def _atom_mass(dist, sums, r) -> np.ndarray:
    """Mass of the atoms closer than r (a scalar or an (n, 1) column), from
    the sorted distances and running sums of _sorted_atom_sums; needs at
    least one atom."""
    count = np.count_nonzero(dist < r, axis=1)
    return np.where(count > 0, sums[np.arange(len(count)), count - 1], 0.0)


def _box_bound(mu: Measure, points: np.ndarray):
    """Return bound(r, rows): for each point p of points[rows], a bound B
    of the absolute mass of the ball B(p, r) of an atom-free 2D measure
    with a density: the |density| of every cell whose centre lies in the
    closed square [p +- R]^2, R = r (1 + _PRUNE_SLACK), and the |curve|
    total.  A cell that the centre-in-ball rule counts lies in the square;
    its mass is four lookups in the summed-area table, with the row and
    column indices found once per distinct x and y of the points."""
    table = mu._dbox_abs
    c0, c1 = mu._c0, mu._c1
    ux, ix = np.unique(points[:, 0], return_inverse=True)
    uy, iy = np.unique(points[:, 1], return_inverse=True)
    curves = sum(abs(rho) * length for rho, length in mu._curve_totals())

    def bound(r, rows):
        R = r * (1.0 + _PRUNE_SLACK)
        x, y = ix[rows], iy[rows]
        i0 = np.searchsorted(c0, ux - R, side="left")[x]
        i1 = np.searchsorted(c0, ux + R, side="right")[x]
        j0 = np.searchsorted(c1, uy - R, side="left")[y]
        j1 = np.searchsorted(c1, uy + R, side="right")[y]
        b = table[i1, j1] - table[i0, j1] - table[i1, j0] + table[i0, j0]
        return b + curves

    return bound


def _block_values(mu: Measure, free: Optional[Measure], points: np.ndarray,
                  rg: RadiusGrid, signed: bool, tau: Optional[float]):
    """(values, flags) at a row block of points (see the module docstring);
    free is mu without its atoms, None when mu has no density and no
    curve."""
    dist, sums = _sorted_atom_sums(mu, points, signed)
    # the nearest atom is the first sorted distance
    flags = (dist[:, :1] < rg.r_min).any(axis=1)
    if mu._segs.spans:
        flags |= free.singular_support_distance(points) < rg.r_min
    d = mu.dimension
    omega = UNIT_BALL_VOLUME[d]
    absolute = not signed

    def in_range(r):
        ok = (r > 0) & (r >= rg.r_min)
        return ok & (r < tau) if tau is not None else ok & (r <= rg.r_max)

    # the closed ball at each atom distance holds the atoms up to the last
    # of its tie group
    last = np.ones(dist.shape, dtype=bool)
    last[:, :-1] = dist[:, 1:] != dist[:, :-1]
    ok = last & in_range(dist)
    mass = sums
    if free is not None and ok.any():
        # copy sums after the query, so the copy adds nothing to its peak
        rest = free.ball_masses(points[np.nonzero(ok)[0]], dist[ok],
                                absolute=absolute, closed=True)
        mass = sums.copy()
        mass[ok] += rest
    ratio = np.divide(np.abs(mass), omega * dist**d,
                      out=np.zeros(dist.shape), where=ok)
    best = ratio.max(axis=1, initial=0.0)
    if free is None:
        # an atomic ball mass is constant between atom distances, so the
        # open ball at r_min is the only other candidate
        if dist.shape[1]:
            at_min = np.abs(_atom_mass(dist, sums, rg.r_min))
            best = np.maximum(at_min / (omega * rg.r_min**d), best)
        return best, flags

    def raise_values(rows, r, vol):
        # |mu(B(x, r))| per (row, r) pair, rows may repeat; raises best at
        # each row by its masses over vol and returns them
        m = free.ball_masses(points[rows], r, absolute=absolute)
        if dist.shape[1]:
            m += _atom_mass(dist[rows], sums[rows], r[:, None])
        np.maximum.at(best, rows, np.abs(m, out=m) / vol)
        return m

    # sharp density edges (open balls) are event radii too; one query per
    # edge, as one over all edges would hold nodes x edges pairs at once
    for e in free.density_sharp_edges():
        r = np.abs(points[:, 0] - e)
        rows = np.flatnonzero(in_range(r))
        if rows.size:
            raise_values(rows, r[rows], omega * r[rows]**d)

    # pruned sweep: a ball farther than r from the support box holds no
    # mass, and no ratio exceeds |mu| / (omega r^d)
    gap = _support_gap(mu, points)
    reach = 1.0 + _PRUNE_SLACK
    total = mu.total_variation() * reach
    gap_max = gap.max(initial=0.0)
    box_bound = None
    if d == 2 and free.density is not None:
        box_bound = _box_bound(free, points)
        slack = _PRUNE_SLACK * mu.total_variation()
    radii = rg.radii if tau is None else rg.radii[rg.radii < tau]

    def sweep(radii, above=None):
        # return where the monotone test stops an ascending sweep (above
        # None), inf if it does not; a flush raises best and lowers above
        pending, queued = [], 0

        def flush():
            rows, r, vol = map(np.concatenate, zip(*pending))
            mass = raise_values(rows, r, vol)
            if above is not None and absolute:
                np.minimum.at(above, rows, mass)
            pending.clear()

        for r in radii:
            vol = omega * r**d
            rows = np.flatnonzero((best < total / vol) & (gap < r * reach))
            if rows.size == 0:
                if above is None and gap_max < r * reach:
                    break  # every ball reaches the support, no node is live
                continue
            if box_bound is not None:
                # the box bound is not monotone in r, nor is above a bound
                # at larger radii: they skip a node at this radius only
                b = box_bound(r, rows)
                if dist.shape[1]:
                    b += np.abs(_atom_mass(dist[rows], sums[rows], r))
                if above is not None:
                    np.minimum(b, above[rows], out=b)
                rows = rows[best[rows] < (b * reach + slack) / vol]
                if rows.size == 0:
                    continue
            # the queued vol is the scalar power: r**d of an array of the
            # radius need not round alike
            pending.append((rows, np.full(rows.size, r),
                            np.full(rows.size, vol)))
            queued += rows.size
            if queued >= _SWEEP_BATCH:
                flush()
                queued = 0
        else:
            r = np.inf
        if pending:
            flush()
        return r

    if box_bound is None:
        sweep(radii)
        return best, flags
    # a 2D density: the coarse and fine passes of the module docstring
    coarse = np.zeros(len(radii), dtype=bool)
    coarse[::_COARSE_STRIDE] = coarse[-1] = True
    stop = sweep(radii[coarse])
    sweep(radii[~coarse & (radii < stop)][::-1],
          np.full(len(points), mu.total_variation()))
    return best, flags


def maximal_values_at(mu: Measure, points: np.ndarray, rg: RadiusGrid,
                      variant: str = "M", tau: Optional[float] = None):
    """Maximal values at arbitrary points; returns (values, flags).

    flags marks points within r_min of the singular support, where the
    truncated sup cannot chase the blow-up.  The points go in row blocks
    of at most _EVENT_BLOCK point-atom distances, sorted once per block
    for the flags and the kernel; a node's value does not depend on the
    other rows.
    """
    if variant not in ("M", "Mbar", "Mtau"):
        raise ValueError(f"not a measure variant: {variant!r}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if variant == "Mtau":
        if tau is None or not (rg.r_min < tau <= rg.r_max):
            raise ValueError("Mtau needs tau in (r_min, r_max]")
    else:
        tau = None
    signed = variant == "Mbar"
    k = len(mu._apos)
    free = None
    if mu.density is not None or mu._segs.spans:
        free = Measure(mu.dimension, density=mu.density,
                       curves=mu.curves) if k else mu
    rows = max(1, _EVENT_BLOCK // k) if k else max(1, len(points))
    best, flags = np.empty(len(points)), np.empty(len(points), dtype=bool)
    for b in range(0, len(points), rows):
        best[b:b + rows], flags[b:b + rows] = _block_values(
            mu, free, points[b:b + rows], rg, signed, tau)
    return best, flags


def maximal_point(mu: Measure, x, rg: RadiusGrid, variant: str = "M",
                  tau: Optional[float] = None) -> float:
    pt = np.asarray(x, dtype=float).reshape(1, mu.dimension)
    values, _ = maximal_values_at(mu, pt, rg, variant=variant, tau=tau)
    return float(values[0])


def maximal_field(mu: Measure, eval_grid: UniformGrid, rg: RadiusGrid,
                  variant: str = "M", tau: Optional[float] = None
                  ) -> MaximalField:
    """Node-wise maximal values over an evaluation grid.

    One sorted distance pass per row block, O(nodes * k log k) for k
    atoms, serves the flags and the atom part of every ball.  A purely
    atomic measure takes its exact values from the event radii alone.
    Otherwise the event radii add O(nodes * (atoms + sharp edges)) queries
    of the atom-free part, and the sweep O(live pairs * query), in batches
    of about 4,096 pairs (see the module docstring).  A 2D density is swept
    at every 8th radius ascending, then at the rest below the stop
    descending, where the mass of a node's larger ball bounds the smaller
    ones, so that most nodes start near their sup.  A 1D density query
    costs O(log cells); a 2D one O(log cells) per cell row within r.
    """
    if eval_grid.dimension != mu.dimension:
        raise ValueError("grid dimension mismatch")
    support = mu.support_box()
    if support is not None and not eval_grid.cell_box().contains_box(support):
        raise WindowTooSmallError(
            f"support {support} not covered by evaluation window "
            f"{eval_grid.cell_box()}")
    values, flags = maximal_values_at(mu, eval_grid.points(), rg,
                                      variant=variant, tau=tau)
    return MaximalField(eval_grid, values.reshape(eval_grid.extents), rg,
                        flags=flags.reshape(eval_grid.extents))


# ----------------------------------------------------------------------
# oscillation functional


class OscillationValue(NamedTuple):
    value: float
    skipped_all: bool  # every radius was rejected by the boundary rule


def _node_window(r: float, h: float) -> int:
    """Largest integer offset with offset * h < r (guarded against fp)."""
    return int(math.ceil(r / h - 1e-9)) - 1


def _span_margin(r: float, h: float) -> int:
    """Smallest node index whose ball (x-r, x+r) stays inside the covered
    span (nodes padded by h/2); balls sticking out are rejected, not
    renormalized."""
    return max(0, int(math.ceil(r / h - 0.5 - 1e-9)))


def _require_1d(f: GridFunction):
    if f.grid.dimension != 1:
        raise ValueError("the oscillation field is one-dimensional")


def oscillation_point(f: GridFunction, x, rg: RadiusGrid) -> OscillationValue:
    """A f(x) over the radius grid; clipped balls are skipped."""
    _require_1d(f)
    grid = f.grid
    h = grid.spacing
    x = float(np.asarray(x, dtype=float).reshape(1)[0])
    best = 0.0
    admitted = False
    ax = grid.axis(0)
    vals = f.values
    prefix = np.concatenate([[0.0], np.cumsum(vals)])
    lo_edge = ax[0] - 0.5 * h
    hi_edge = ax[-1] + 0.5 * h
    for r in rg.radii:
        if x - r < lo_edge - 1e-12 or x + r > hi_edge + 1e-12:
            continue
        lo = int(np.searchsorted(ax, x - r, side="right"))
        hi = int(np.searchsorted(ax, x + r, side="left")) - 1
        if hi < lo:
            continue
        cnt = hi - lo + 1
        mean = (prefix[hi + 1] - prefix[lo]) / cnt
        dev = float(np.sum(np.abs(vals[lo:hi + 1] - mean))) / cnt
        best = max(best, dev / r)
        admitted = True
    return OscillationValue(best, not admitted)


def _monotone_runs(vals: np.ndarray) -> list:
    """Split the samples into maximal monotone runs.

    Returns (start, stop, key, rising) per run, stop exclusive, runs
    disjoint and covering every node.  Flat steps join the current run
    (leading flats the first one), and each run starts at the node where
    the direction turns.  key holds the run's samples (negated on a falling
    run), so it is nondecreasing and searchsorted applies.
    """
    steps = np.sign(np.diff(vals))
    moves = np.flatnonzero(steps)
    if moves.size == 0:
        return [(0, len(vals), vals, True)]
    signs = steps[moves]
    turns = np.flatnonzero(signs[1:] != signs[:-1]) + 1
    starts = np.concatenate([[0], moves[turns]])
    stops = np.append(starts[1:], len(vals))
    runs = []
    for s, e, sign in zip(starts, stops, signs[np.concatenate([[0], turns])]):
        s, e, rising = int(s), int(e), bool(sign > 0)
        runs.append((s, e, vals[s:e] if rising else -vals[s:e], rising))
    return runs


def _window_deviations(vals, i_lo, K, means):
    """Mean |v - m| over each window [i-K, i+K], i = i_lo, i_lo+1, ...,
    from explicit sliding windows: O(W) per centre.  The blocks share one
    buffer; sum and division are those of np.mean."""
    W = 2 * K + 1
    windows = sliding_window_view(vals, W)
    dev = np.empty(len(means))
    block = max(1, int(4_000_000 // W))
    buf = np.empty((min(block, len(means)), W))
    for b in range(0, len(means), block):
        e = min(b + block, len(means))
        seg = buf[:e - b]
        np.subtract(windows[i_lo - K + b:i_lo - K + e], means[b:e, None],
                    out=seg)
        np.abs(seg, out=seg)
        np.add.reduce(seg, axis=1, out=dev[b:e])
    dev /= W
    return dev


def _run_deviations(prefix, runs, i_lo, K, means):
    """Mean |v - m| over the same windows as _window_deviations, from
    sum |v - m| = 2 sum_{v > m} (v - m): inside a monotone run {v > m} is
    one contiguous block, found by one searchsorted and summed by prefix
    sums, so a centre costs O(log n) per run its window meets.  Rounding
    can leave values slightly below 0; callers clamp."""
    W = 2 * K + 1
    excess = np.zeros(len(means))
    i_hi = i_lo + len(means) - 1
    starts = np.arange(i_lo - K, i_hi - K + 1)  # the window starts
    for s, e, key, rising in runs:
        a = max(s - K, i_lo) - i_lo
        b = min(e - 1 + K, i_hi) - i_lo + 1
        if a >= b:
            continue  # no window meets this run
        ws = starts[a:b]
        m = means[a:b]
        # the window's part [lo, hi) of the run; lo < hi, as it meets it
        lo = np.maximum(ws, s)
        hi = ws + W
        np.minimum(hi, e, out=hi)
        if rising:
            first = np.searchsorted(key, m, side="right")
            first += s
            np.maximum(first, lo, out=lo)
            np.minimum(lo, hi, out=lo)
        else:
            stop = np.searchsorted(key, -m, side="left")
            stop += s
            np.minimum(stop, hi, out=hi)
            np.maximum(hi, lo, out=hi)
        t = prefix[hi]
        t -= prefix[lo]
        hi -= lo
        t -= m * hi
        excess[a:b] += t
    excess *= 2.0
    excess /= W
    return excess


# a radius takes the run path when its window is wider than this many
# nodes per monotone run; narrower windows are cheaper to scan directly
_RUN_PATH_WIDTH = 16


def _oscillation_field_1d(f: GridFunction, rg: RadiusGrid):
    """A f and its flags; a width takes the run path by the cost rule
    W > _RUN_PATH_WIDTH * (run count), the window path otherwise."""
    vals = f.values
    n = len(vals)
    h = f.grid.spacing
    prefix = np.concatenate([[0.0], np.cumsum(vals)])
    runs = _monotone_runs(vals)
    nonzero = np.flatnonzero(vals)
    best = np.zeros(n)
    admitted = np.zeros(n, dtype=bool)
    last_K = 0
    for r in rg.radii:
        K = _node_window(r, h)
        i_lo = max(K, _span_margin(r, h))
        i_hi = n - 1 - i_lo
        if i_lo > i_hi:
            continue
        admitted[i_lo:i_hi + 1] = True
        if K == last_K or nonzero.size == 0:
            # K = 0 has deviation 0; a repeated K has the previous radius's
            # windows over fewer centres and a smaller dev / r
            continue
        last_K = K
        # a window wholly inside a zero pad has mean and deviation 0
        i_lo = max(i_lo, int(nonzero[0]) - K)
        i_hi = min(i_hi, int(nonzero[-1]) + K)
        W = 2 * K + 1
        means = (prefix[i_lo + K + 1:i_hi + K + 2]
                 - prefix[i_lo - K:i_hi - K + 1])
        means /= W
        if W > _RUN_PATH_WIDTH * len(runs):
            dev = _run_deviations(prefix, runs, i_lo, K, means)
        else:
            dev = _window_deviations(vals, i_lo, K, means)
        dev /= r
        out = best[i_lo:i_hi + 1]
        np.maximum(out, dev, out=out)
    return best, ~admitted


def oscillation_field(f: GridFunction, rg: RadiusGrid) -> MaximalField:
    """A f at every node of a 1D grid function.  Nodes where all radii were
    skipped carry value 0 and a flag.

    A distinct window width K costs O(m * runs * log n) on n samples with
    few monotone runs and O(m * W) on noisy ones, m <= n the centres whose
    window meets the nonzero samples (see the module docstring)."""
    _require_1d(f)
    best, flags = _oscillation_field_1d(f, rg)
    return MaximalField(f.grid, best.reshape(f.grid.extents), rg,
                        flags=flags.reshape(f.grid.extents))
