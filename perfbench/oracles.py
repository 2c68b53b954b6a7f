"""Correctness oracles written from the definitions, apart from the program.

Nothing here imports maxchar: each function takes plain numbers (spec
dictionaries, node arrays, parsed artifacts) and recomputes what the
program should have produced.  Every check returns a list of problem
strings; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

UNIT_BALL = {1: 2.0, 2: math.pi}

# Tolerances, each tied to what the program computes exactly:
# - oscillation and atomic maximal values are exact up to rounding (sums of
#   at most ~1e5 terms of size <= 1e3), so a relative 1e-8 is ample;
# - 1D distribution curves interpolate sub-cell crossings and sample radii
#   on a 64-per-decade grid; the pinned acceptance tests allow 2 % on atom
#   products (c01) and 3 % on the density product law (c03);
# - the decay sandwich pins the unnormalized integral of an absolutely
#   continuous field to a 2 % band (verify check 11).
REL_EXACT = 1e-8
REL_ATOM_PRODUCT = 0.02
REL_PRODUCT_LAW = 0.03
REL_DECAY_FLAT = 0.02


def bv_values(spec: dict, x) -> np.ndarray:
    """Right-continuous piecewise-affine function of a BV spec at x:
    initial value, plus the slope integral up to x, plus every jump at or
    left of x."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, float(spec.get("initial_value", 0.0)))
    bp = [float(b) for b in spec.get("breakpoints", [])]
    for (b0, b1), s in zip(zip(bp[:-1], bp[1:]), spec.get("slopes", [])):
        out += float(s) * np.clip(x - b0, 0.0, b1 - b0)
    for loc, height in spec.get("jumps", []):
        out += np.where(x >= float(loc), float(height), 0.0)
    return out


def oscillation_at(samples: np.ndarray, h: float, i: int, radii) -> tuple:
    """A f at node i of a uniform 1D grid, from the definition.

    For each radius r the ball is (x_i - r, x_i + r).  It is admitted only
    when it stays inside the covered span [x_0 - h/2, x_last + h/2]; its
    window holds the nodes at index distance k with k*h < r.  The value is
    the largest (1/r) * mean |f - mean f| over admitted windows.  Returns
    (value, admitted_any).  Boundary comparisons carry a 1e-9*h guard so
    that a radius equal to a node distance counts as open.
    """
    n = len(samples)
    guard = 1e-9 * h
    best = 0.0
    admitted = False
    for r in radii:
        if (i + 0.5) * h < r - guard or (n - 1 - i + 0.5) * h < r - guard:
            continue
        k = int(math.floor((r - guard) / h))
        if k * h >= r - guard:
            k -= 1
        window = samples[max(0, i - k):i + k + 1]
        admitted = True
        dev = float(np.mean(np.abs(window - np.mean(window))))
        best = max(best, dev / r)
    return best, admitted


def check_oscillation_field(samples, h, values, flags, radii, nodes) -> list:
    problems = []
    for i in nodes:
        want, admitted = oscillation_at(samples, h, int(i), radii)
        got = float(values[i])
        if bool(flags[i]) == admitted:
            problems.append(f"node {i}: flag {bool(flags[i])}, "
                            f"admitted radii {admitted}")
        if abs(got - want) > REL_EXACT * max(1.0, abs(want)):
            problems.append(f"node {i}: A f = {got!r}, "
                            f"definition {float(want)!r}")
    return problems


def _where(x) -> str:
    return "(" + ", ".join(f"{float(v):.6g}" for v in x) + ")"


def atomic_maximal(atoms, x, r_max: float) -> float:
    """sup_r |mu|(B(x, r)) / (omega_d r^d) for a purely atomic measure.

    The open-ball mass is a step function of r that jumps just after each
    atom distance, so the supremum is the closed-ball limit at one of the
    atom distances up to r_max.  atoms is a list of (location tuple, weight).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    d = len(x)
    dist = np.asarray([math.dist(x, loc) for loc, _ in atoms])
    mass = np.asarray([abs(w) for _, w in atoms])
    order = np.argsort(dist)
    dist, mass = dist[order], np.cumsum(mass[order])
    best = 0.0
    for j, r in enumerate(dist):
        if r > r_max:
            break
        # atoms at exactly the same distance enter together
        inside = mass[np.searchsorted(dist, r, side="right") - 1]
        best = max(best, inside / (UNIT_BALL[d] * r ** d))
    return best


def check_atomic_field(atoms, points, values, r_min, r_max, nodes) -> list:
    """Field values against atomic_maximal at nodes beyond r_min of every
    atom (closer nodes only carry a truncated lower bound)."""
    problems = []
    for i in nodes:
        x = points[i]
        if min(math.dist(x, loc) for loc, _ in atoms) < r_min:
            continue
        want = atomic_maximal(atoms, x, r_max)
        got = float(values[i])
        if abs(got - want) > REL_EXACT * max(1.0, want):
            problems.append(f"node {_where(x)}: M = {got!r}, "
                            f"exact {float(want)!r}")
    return problems


def disc_maximal(cells, cell_mass, atoms, x, radii, r_min, r_max) -> tuple:
    """sup_r mu(B(x, r)) / (pi r^2) of a 2D cell density plus atoms, with the
    density counted by the centre-in-ball rule that measure.py documents:
    a cell adds its whole mass when its centre lies in the ball.

    The radii are the given grid radii (open balls) and the distances to
    the atoms in [r_min, r_max] (closed balls, the limit from above).  A
    cell centre or atom within a relative 1e-9 of a sphere may be counted
    either way, so the result is a (low, high) pair; without such ties the
    two are equal.  cells is (k, 2) centres, cell_mass (k,) their masses,
    atoms a list of (location tuple, weight) with weights taken as |w|.
    """
    x = np.asarray(x, dtype=float)
    dc = np.hypot(cells[:, 0] - x[0], cells[:, 1] - x[1])
    order = np.argsort(dc)
    dc, cum_c = dc[order], np.concatenate(
        [[0.0], np.cumsum(np.asarray(cell_mass, dtype=float)[order])])
    da = np.asarray([math.dist(x, loc) for loc, _ in atoms])
    wa = np.asarray([abs(w) for _, w in atoms])
    order = np.argsort(da)
    da, cum_a = da[order], np.concatenate([[0.0], np.cumsum(wa[order])])
    guard = 1e-9

    def mass(r, closed):
        below, above = r * (1 - guard), r * (1 + guard)
        # at an event radius the atoms at distance <= r are surely inside
        atoms_in = np.searchsorted(da, r if closed else below,
                                   side="right" if closed else "left")
        lo = cum_c[np.searchsorted(dc, below, side="left")] + cum_a[atoms_in]
        hi = cum_c[np.searchsorted(dc, above, side="right")] \
            + cum_a[np.searchsorted(da, above, side="right")]
        return lo, hi

    events = [r for r in da if r > 0 and r_min <= r <= r_max]
    low = high = 0.0
    for r, closed in [(r, False) for r in radii] + [(r, True) for r in events]:
        lo, hi = mass(float(r), closed)
        area = math.pi * r * r
        low, high = max(low, lo / area), max(high, hi / area)
    return low, high


def check_disc_field(cells, cell_mass, atoms, points, values, radii, r_min,
                     r_max, nodes) -> list:
    """Field values against disc_maximal at the given nodes."""
    problems = []
    for i in nodes:
        low, high = disc_maximal(cells, cell_mass, atoms, points[i], radii,
                                 r_min, r_max)
        got = float(values[i])
        if not low * (1 - REL_EXACT) <= got <= high * (1 + REL_EXACT):
            problems.append(f"node {_where(points[i])}: M = {got!r}, "
                            f"centre-in-ball sup in [{low:.17g}, {high:.17g}]")
    return problems


def parse_csv(text: str) -> tuple:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = np.asarray([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    return header, rows


def parse_block(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.strip().splitlines())


def top_decade(lambdas: np.ndarray) -> np.ndarray:
    return lambdas >= lambdas[-1] / 10.0 * (1 - 1e-12)


def check_atom_products(rows: np.ndarray, mass: float) -> list:
    """lambda * |{M > lambda}| = m over the top level decade of a single
    atom's curve: the superlevel set is the interval of half-width
    m / (2 lambda)."""
    lam, prod = rows[:, 0], rows[:, 2]
    sel = top_decade(lam)
    err = float(np.max(np.abs(prod[sel] - mass))) / mass
    if err > REL_ATOM_PRODUCT:
        return [f"atom product off by {err:.3g} of the mass {mass}"]
    return []


def step_product(lam: float, height: float, length: float) -> float:
    """lambda * |{M f > lambda}| for f = height * chi of an interval of the
    given length: M f is the height on the interval and
    height * length / (2 (length + s)) at distance s outside it."""
    if lam >= height:
        return 0.0
    if lam <= height / 2.0:
        return length * (height - lam)
    return length * lam


def check_step_density(rows: np.ndarray, height: float, length: float) -> list:
    """Product law of a step density away from its two kinks, and an empty
    superlevel set above the sup of the density."""
    problems = []
    lam, vol, prod = rows[:, 0], rows[:, 1], rows[:, 2]
    for lv, pv in zip(lam, prod):
        q = lv / height
        if 0.02 < abs(q - 0.5) and q < 0.98:
            want = step_product(lv, height, length)
            if abs(pv - want) > REL_PRODUCT_LAW * want:
                problems.append(f"product {pv!r} at lambda={lv!r}, "
                                f"law {want!r}")
                break
    above = lam > height * (1 + 1e-9)
    if np.any(vol[above] != 0.0):
        problems.append("nonzero volume above the sup of the density")
    return problems


def check_decay_flat(rows: np.ndarray) -> list:
    """An absolutely continuous field keeps Q(delta) * |log delta| constant."""
    unnorm = rows[:, 1] * np.abs(np.log(rows[:, 0]))
    spread = float(unnorm.max() / unnorm.min()) - 1.0
    if spread > REL_DECAY_FLAT:
        return [f"Q*|log delta| drifts by {spread:.3g}"]
    return []
