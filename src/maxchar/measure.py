"""Finite signed measures with explicit singular/absolutely-continuous parts.

A measure is represented exactly as
  * point atoms (signed weights),
  * a cell-piecewise-constant density on a uniform grid,
  * polylines carrying a constant signed linear density (d = 2 only).
Atoms and curves make up the singular part; the density is the AC part.
Ball queries use the OPEN ball convention: an atom exactly on the boundary
does not count.  Every query decides atom membership by the computed
point-atom distance D of _atom_distances (|x - a| in 1D, the Euclidean
norm in 2D): the atom is in the ball when D < r (D <= r if closed), never
by rounded positions x +- r.  Density cells contribute by exact interval
clipping in 1D and by the center-in-ball rule in 2D; curve segments
contribute their exact chord length inside the ball times the linear
density.  Curve queries walk one table of the segments of nonzero
density, so a curve of density 0 carries nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .geometry import (
    UNIT_BALL_VOLUME,
    Box,
    UniformGrid,
    as_point,
    point_segment_distance,
    segment_ball_chords_at,
    segment_ball_clip,
)

# A 1D density cell edge counts as a sharp feature when the value step across
# it is at least this fraction of the largest density magnitude.  Sharp edges
# feed the candidate-radius sets of the maximal operators.
SHARP_EDGE_REL = 0.25

# queries against every atom take points in row blocks of at most this many
# point-atom distances, so their memory does not grow with the point count
_EVENT_BLOCK = 1 << 16

_SIDES_OPEN = ("left", "right")  # upper bound excluded, lower excluded
_SIDES_CLOSED = ("right", "left")


def _as_curve(points, rho):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise ValueError("curve needs an (m, 2) array of at least two points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite curve points")
    seg = np.diff(pts, axis=0)
    if np.any(np.all(seg == 0, axis=1)):
        raise ValueError("curve has a zero-length segment")
    # chords, distances and restriction all work from u . u
    if not np.all(np.einsum("ij,ij->i", seg, seg) > 0):
        raise ValueError("curve has a segment whose squared length "
                         "underflows")
    return pts, float(rho), np.linalg.norm(seg, axis=1)


class _SegmentTable(NamedTuple):
    """Every segment of the curves of nonzero density, in curve-then-
    segment order: endpoints a and b (k, 2), density and length (k,), and
    each such curve's (start, stop) rows."""
    a: np.ndarray
    b: np.ndarray
    rho: np.ndarray
    length: np.ndarray
    spans: tuple

    @classmethod
    def of(cls, curves) -> "_SegmentTable":
        """The table of (points, density, lengths) curves."""
        charged = [curve for curve in curves if curve[1] != 0.0]
        if not charged:
            return _NO_SEGMENTS
        pts, rhos, lens = zip(*charged)
        counts = [len(lengths) for lengths in lens]
        stops = np.cumsum(counts).tolist()
        return cls(np.concatenate([p[:-1] for p in pts]),
                   np.concatenate([p[1:] for p in pts]),
                   np.repeat(rhos, counts), np.concatenate(lens),
                   tuple(zip([0] + stops[:-1], stops)))


_NO_SEGMENTS = _SegmentTable(np.empty((0, 2)), np.empty((0, 2)), np.empty(0),
                             np.empty(0), ())


def _finite_total_variation(tv: float, parts: np.ndarray,
                            scale: float = 1.0) -> float:
    """tv + scale * sum(parts), raising instead of overflowing."""
    with np.errstate(over="ignore"):
        tv += float(np.sum(parts)) * scale
    if not math.isfinite(tv):
        raise ValueError("total variation must be finite")
    return tv


@dataclass(frozen=True)
class Measure:
    """Immutable signed measure on R^d, d in {1, 2}."""

    dimension: int
    atoms: tuple = ()
    density: Optional[tuple] = None  # (UniformGrid, values array)
    curves: tuple = ()

    def __post_init__(self):
        d = int(self.dimension)
        object.__setattr__(self, "dimension", d)
        if d not in (1, 2):
            raise ValueError(f"unsupported dimension {d}")

        # normalize atoms
        pos = []
        wts = []
        for loc, w in self.atoms:
            p = as_point(loc, d)
            w = float(w)
            if not math.isfinite(w):
                raise ValueError("non-finite atom weight")
            if w == 0.0:
                continue
            pos.append(p)
            wts.append(w)
        apos = np.asarray(pos, dtype=float).reshape(len(pos), d)
        aw = np.asarray(wts, dtype=float)
        if len(apos) > 1:
            uniq = {tuple(p) for p in apos}
            if len(uniq) != len(apos):
                raise ValueError("atom locations must be pairwise distinct")
        object.__setattr__(self, "atoms", tuple(zip(map(tuple, apos), aw)))
        object.__setattr__(self, "_apos", apos)
        object.__setattr__(self, "_aw", aw)
        # total variation is summed before any cumulative sum, so weights
        # whose sum overflows fail with the error below and no numpy warning
        tv = _finite_total_variation(0.0, np.abs(aw))

        # normalize density; only a 1D density has sharp edges
        object.__setattr__(self, "_sharp_edges", np.empty(0, dtype=float))
        if self.density is not None:
            grid, values = self.density
            if not isinstance(grid, UniformGrid):
                raise ValueError("density grid must be a UniformGrid")
            if grid.dimension != d:
                raise ValueError("density grid dimension mismatch")
            values = np.asarray(values, dtype=float).reshape(grid.extents)
            if not np.all(np.isfinite(values)):
                raise ValueError("non-finite density values")
            object.__setattr__(self, "density", (grid, values))
            cellv = grid.cell_volume
            tv = _finite_total_variation(tv, np.abs(values), cellv)
            if d == 1:
                edges = grid.origin[0] - 0.5 * grid.spacing + \
                    grid.spacing * np.arange(grid.extents[0] + 1)
                object.__setattr__(self, "_dedges", edges)
                object.__setattr__(
                    self, "_dcum_signed",
                    np.concatenate([[0.0], np.cumsum(values) * cellv]))
                object.__setattr__(
                    self, "_dcum_abs",
                    np.concatenate([[0.0], np.cumsum(np.abs(values)) * cellv]))
                # sharp edges: steps of at least SHARP_EDGE_REL of the peak,
                # with virtual zero cells beyond both ends
                vmax = float(np.max(np.abs(values))) if values.size else 0.0
                sharp = []
                if vmax > 0:
                    padded = np.concatenate([[0.0], values, [0.0]])
                    steps = np.abs(np.diff(padded))
                    sharp = edges[steps >= SHARP_EDGE_REL * vmax]
                object.__setattr__(self, "_sharp_edges",
                                   np.asarray(sharp, dtype=float))
            else:
                object.__setattr__(self, "_c0", grid.axis(0))
                object.__setattr__(self, "_c1", grid.axis(1))
                zero = np.zeros((grid.extents[0], 1))
                object.__setattr__(
                    self, "_drow_cum_signed",
                    np.concatenate([zero, np.cumsum(values, axis=1) * cellv],
                                   axis=1))
                object.__setattr__(
                    self, "_drow_cum_abs",
                    np.concatenate(
                        [zero, np.cumsum(np.abs(values), axis=1) * cellv],
                        axis=1))
                # summed-area table: _dbox_abs[i, j] is |values| * cellv
                # summed over the cells [:i, :j]
                object.__setattr__(
                    self, "_dbox_abs",
                    np.concatenate(
                        [np.zeros((1, grid.extents[1] + 1)),
                         np.cumsum(self._drow_cum_abs, axis=0)]))

        # normalize curves; every curve walk reads the segment table
        curves = []
        for points, rho in self.curves:
            if d != 2:
                raise ValueError("curves are only supported in d = 2")
            curves.append(_as_curve(points, rho))
        object.__setattr__(self, "curves",
                           tuple((pts, rho) for pts, rho, _ in curves))
        object.__setattr__(self, "_segs", _SegmentTable.of(curves))

        for rho, length in self._curve_totals():
            tv = _finite_total_variation(tv, length, abs(rho))
        object.__setattr__(self, "_total_variation", tv)

    def _curve_totals(self):
        """(density, length) of each curve of nonzero density; the length
        sums the curve's rows of the segment table."""
        segs = self._segs
        return [(float(segs.rho[s]), float(np.sum(segs.length[s:e])))
                for s, e in segs.spans]

    def _segments(self):
        """(a, b, density) of each row of the segment table."""
        return zip(self._segs.a, self._segs.b, self._segs.rho.tolist())

    # ------------------------------------------------------------------
    # totals and structure

    def total_variation(self) -> float:
        return self._total_variation

    def total_mass(self) -> float:
        m = float(np.sum(self._aw))
        if self.density is not None:
            g, v = self.density
            m += float(np.sum(v)) * g.cell_volume
        for rho, length in self._curve_totals():
            m += rho * length
        return m

    def density_sharp_edges(self) -> np.ndarray:
        return self._sharp_edges

    def support_box(self) -> Optional[Box]:
        """Bounding box of the support; None for the zero measure."""
        los, his = [], []
        if len(self._apos):
            los.append(self._apos.min(axis=0))
            his.append(self._apos.max(axis=0))
        if self.density is not None:
            grid, values = self.density
            nz = np.nonzero(values)
            if nz[0].size:
                h = 0.5 * grid.spacing
                axes = [grid.axis(k) for k in range(self.dimension)]
                los.append(np.array([ax[idx.min()] - h
                                     for ax, idx in zip(axes, nz)]))
                his.append(np.array([ax[idx.max()] + h
                                     for ax, idx in zip(axes, nz)]))
        if self._segs.spans:
            ends = np.concatenate([self._segs.a, self._segs.b])
            los.append(ends.min(axis=0))
            his.append(ends.max(axis=0))
        if not los:
            return None
        lo = np.min(np.vstack(los), axis=0)
        hi = np.max(np.vstack(his), axis=0)
        return Box(tuple(lo), tuple(hi))

    # ------------------------------------------------------------------
    # ball queries

    def _atom_distances(self, points) -> np.ndarray:
        """(n, k) distances from points (n, d) to the k atoms.  In 2D,
        sqrt(dx * dx + dy * dy) is the sum np.linalg.norm forms, added in
        the same order: the norm's bits at about 8 times its speed."""
        dx = points[:, :1] - self._apos[None, :, 0]
        if self.dimension == 1:
            return np.abs(dx)
        dy = points[:, 1:2] - self._apos[None, :, 1]
        return np.sqrt(dx * dx + dy * dy)

    def ball_masses(self, points, radii, absolute: bool = False,
                    closed: bool = False) -> np.ndarray:
        """Mass of per-point balls: points (n, d), radii scalar or (n,).

        closed=True switches atom inclusion to the closed ball; density and
        curve contributions are continuous in the radius so the flag only
        moves their measure-zero boundary cells/chords.  A point's mass
        does not depend on the other points queried with it.  The maximal
        fields read the atoms from sorted distances and query only the
        atom-free part here.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        radii = np.broadcast_to(np.asarray(radii, dtype=float),
                                (len(points),))
        out = np.zeros(len(points))

        if len(self._apos):
            w = np.abs(self._aw) if absolute else self._aw
            rows = max(1, _EVENT_BLOCK // len(self._apos))
            for b in range(0, len(points), rows):
                D = self._atom_distances(points[b:b + rows])
                r = radii[b:b + rows, None]
                mask = D <= r if closed else D < r
                # einsum, not mask @ w, as for curve chords: it sums each
                # row alone, so the row blocks move no bit
                out[b:b + rows] += np.einsum("ij,j->i", mask, w)

        if self.density is not None:
            if self.dimension == 1:
                cum = self._dcum_abs if absolute else self._dcum_signed
                x = points[:, 0]
                upper = np.interp(x + radii, self._dedges, cum)
                lower = np.interp(x - radii, self._dedges, cum)
                out += upper - lower
            else:
                out += self._disk_density_mass(points, radii, absolute, closed)

        for a, b, rho in self._segments():
            w = abs(rho) if absolute else rho
            out += w * segment_ball_chords_at(a, b, points, radii)
        return out

    def _disk_density_mass(self, points, radii, absolute, closed):
        """Center-in-ball mass, one cell row at a time: row i holds the
        cells whose centers lie within the half-width sqrt(r^2 - dx^2) of
        the point's y, two searchsorted lookups into its prefix sums.

        Points with the same x and r share dx^2, the activity test and the
        half-width, so the points are sorted by x and split into runs of
        equal (x, r^2); that work is done once per run and repeated over
        the run's points.  Each point's arithmetic and the row order of its
        sum do not depend on the runs, so every mass is bit for bit that of
        a plain loop over rows and points, whatever else is queried with it.
        """
        cum = self._drow_cum_abs if absolute else self._drow_cum_signed
        c0, c1 = self._c0, self._c1
        n = len(points)
        order = np.argsort(points[:, 0], kind="stable")
        x = points[order, 0]
        y = points[order, 1]
        r2 = radii[order] ** 2
        new_run = np.ones(n, dtype=bool)
        new_run[1:] = (x[1:] != x[:-1]) | (r2[1:] != r2[:-1])
        starts = np.flatnonzero(new_run)
        bounds = np.append(starts, n)
        sizes = np.diff(bounds)
        run_x, run_r2 = x[starts], r2[starts]
        up_side, lo_side = _SIDES_CLOSED if closed else _SIDES_OPEN
        out = np.zeros(n)
        for i in range(len(c0)):
            dx2 = (c0[i] - run_x) ** 2
            act = dx2 < run_r2
            runs = np.flatnonzero(act)
            if runs.size == 0:
                continue
            half = np.sqrt(run_r2[runs] - dx2[runs])
            a, b = runs[0], runs[-1] + 1
            if runs.size == b - a:
                # consecutive runs, as a scalar r always gives: one slice
                pts = slice(bounds[a], bounds[b])
                hv = np.repeat(half, sizes[a:b])
            else:
                pts = np.repeat(act, sizes)
                hv = np.repeat(half, sizes[runs])
            q = y[pts]
            hi = np.searchsorted(c1, q + hv, side=up_side)
            lo = np.searchsorted(c1, q - hv, side=lo_side)
            out[pts] += cum[i][hi] - cum[i][lo]
        result = np.empty(n)
        result[order] = out
        return result

    def ball_mass(self, x, r: float, absolute: bool = False,
                  closed: bool = False) -> float:
        """Measure of the open (or closed) ball B(x, r)."""
        if r <= 0:
            raise ValueError(f"radius must be positive, got {r}")
        pt = np.asarray(as_point(x, self.dimension))[None, :]
        return float(self.ball_masses(pt, float(r), absolute=absolute,
                                      closed=closed)[0])

    # ------------------------------------------------------------------
    # singular part

    def singular_mass_ball(self, center, radius: float,
                           closed: bool = False) -> float:
        """Singular mass inside the ball around center (open by default)."""
        c = np.asarray(as_point(center, self.dimension))
        total = 0.0
        if len(self._apos):
            dist = self._atom_distances(c[None, :])[0]
            inside = dist <= radius if closed else dist < radius
            total += float(np.sum(np.abs(self._aw[inside])))
        for a, b, rho in self._segments():
            total += abs(rho) * float(segment_ball_chords_at(
                a, b, c[None, :], np.array([radius]))[0])
        return total

    def singular_support_distance(self, points) -> np.ndarray:
        """Distance from each point to the nearest atom or curve (inf if
        none).  The maximal fields take the atom part from their sorted
        distances and call this on the atom-free part only."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        best = np.full(len(points), np.inf)
        if len(self._apos):
            rows = max(1, _EVENT_BLOCK // len(self._apos))
            for b in range(0, len(points), rows):
                best[b:b + rows] = self._atom_distances(
                    points[b:b + rows]).min(axis=1)
        for a, b, _ in self._segments():
            best = np.minimum(best, point_segment_distance(points, a, b))
        return best

    def singular_parts_near(self, center, reach: float):
        """(|weights| of the atoms, |densities| of the curve segments) at
        distance at most reach from center, in the order of the atoms and
        of the segment table."""
        c = np.asarray(as_point(center, self.dimension))[None, :]
        gaps = np.array([point_segment_distance(c, a, b)[0]
                         for a, b, _ in self._segments()])
        return (np.abs(self._aw[self._atom_distances(c)[0] <= reach]),
                np.abs(self._segs.rho[gaps <= reach]))

    # ------------------------------------------------------------------
    # mollified density

    def mollified_density(self, x, eps: float) -> float:
        """|mu|(B(x, eps)) / (omega_d eps^d)."""
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        return self.ball_mass(x, eps, absolute=True) / (
            UNIT_BALL_VOLUME[self.dimension] * eps**self.dimension)

    def mollified_density_points(self, points, eps: float) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        mass = self.ball_masses(points, float(eps), absolute=True)
        return mass / (UNIT_BALL_VOLUME[self.dimension] * eps**self.dimension)

    # ------------------------------------------------------------------
    # algebra

    def absolute(self) -> "Measure":
        atoms = [(p, abs(w)) for p, w in self.atoms]
        density = None
        if self.density is not None:
            g, v = self.density
            density = (g, np.abs(v))
        curves = [(pts, abs(rho)) for pts, rho in self.curves]
        return Measure(self.dimension, tuple(atoms), density, tuple(curves))

    def __add__(self, other: "Measure") -> "Measure":
        if not isinstance(other, Measure):
            return NotImplemented
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch in measure sum")
        merged: dict = {}
        for p, w in list(self.atoms) + list(other.atoms):
            merged[p] = merged.get(p, 0.0) + w
        atoms = tuple((p, w) for p, w in merged.items() if w != 0.0)
        if self.density is not None and other.density is not None:
            ga, va = self.density
            gb, vb = other.density
            if ga != gb:
                raise ValueError("summing densities requires a shared grid")
            density = (ga, va + vb)
        else:
            density = self.density if self.density is not None else other.density
        curves = tuple(self.curves) + tuple(other.curves)
        return Measure(self.dimension, atoms, density, curves)

    # ------------------------------------------------------------------

    def restricted_to_ball(self, center, radius: float) -> "Measure":
        """Restriction to the open ball: atoms kept if strictly inside,
        density cells by the center-in rule, curve segments exactly clipped."""
        c = np.asarray(as_point(center, self.dimension))
        atoms = []
        if len(self._apos):
            dist = self._atom_distances(c[None, :])[0]
            for i in np.nonzero(dist < radius)[0]:
                atoms.append((tuple(self._apos[i]), self._aw[i]))
        density = None
        if self.density is not None:
            grid, values = self.density
            pts = grid.points()
            inside = np.linalg.norm(pts - c, axis=1) < radius
            vnew = np.where(inside.reshape(grid.extents), values, 0.0)
            density = (grid, vnew)
        curves = []
        for a, b, rho in self._segments():
            (t0,), (t1,) = segment_ball_clip(a, b, c[None, :],
                                             np.array([radius]))
            if t1 - t0 > 1e-14:
                u = b - a
                curves.append((np.vstack([a + t0 * u, a + t1 * u]), rho))
        return Measure(self.dimension, tuple(atoms), density, tuple(curves))


def unit_atom(x, dimension: int = 1) -> Measure:
    return Measure(dimension, atoms=((as_point(x, dimension), 1.0),))


# ----------------------------------------------------------------------
# sampled functions


@dataclass(frozen=True)
class GridFunction:
    """Real function sampled at the nodes of a uniform grid."""

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(self.grid.extents)
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite samples")
        object.__setattr__(self, "values", values)

    def as_density_measure(self) -> Measure:
        """Reinterpret the samples as a cell-piecewise-constant density."""
        return Measure(self.grid.dimension, density=(self.grid, self.values))
