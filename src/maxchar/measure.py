"""Finite signed measures with explicit singular/absolutely-continuous parts.

A measure is represented exactly as
  * point atoms (signed weights),
  * a cell-piecewise-constant density on a uniform grid,
  * polylines carrying a constant signed linear density (d = 2 only).
Atoms and curves make up the singular part; the density is the AC part.
Ball queries use the OPEN ball convention: an atom exactly on the boundary
does not count.  Density cells contribute by exact interval clipping in 1D
and by the center-in-ball rule in 2D; curve segments contribute their exact
chord length inside the ball times the linear density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import SignSmoothingError
from .geometry import (
    UNIT_BALL_VOLUME,
    Box,
    UniformGrid,
    as_point,
    point_segment_distance,
    segment_ball_chords_at,
    segment_box_overlap,
)

# A 1D density cell edge counts as a sharp feature when the value step across
# it is at least this fraction of the largest density magnitude.  Sharp edges
# feed the candidate-radius sets of the maximal operators.
SHARP_EDGE_REL = 0.25

_SIDES_OPEN = ("left", "right")  # upper bound excluded, lower excluded
_SIDES_CLOSED = ("right", "left")


def _as_curve(points, rho):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise ValueError("curve needs an (m, 2) array of at least two points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite curve points")
    seg = np.diff(pts, axis=0)
    lens = np.linalg.norm(seg, axis=1)
    if np.any(lens <= 0):
        raise ValueError("curve has a zero-length segment")
    return pts, float(rho), lens


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

        if d == 1 and len(apos):
            order = np.argsort(apos[:, 0], kind="stable")
            p1 = apos[order, 0]
            w1 = aw[order]
            object.__setattr__(self, "_apos1", p1)
            object.__setattr__(self, "_acum_signed",
                               np.concatenate([[0.0], np.cumsum(w1)]))
            object.__setattr__(self, "_acum_abs",
                               np.concatenate([[0.0], np.cumsum(np.abs(w1))]))
        else:
            object.__setattr__(self, "_apos1", None)
            object.__setattr__(self, "_acum_signed", None)
            object.__setattr__(self, "_acum_abs", None)

        # normalize density
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
                object.__setattr__(self, "_sharp_edges",
                                   np.empty(0, dtype=float))
        else:
            object.__setattr__(self, "_sharp_edges", np.empty(0, dtype=float))

        # normalize curves
        curves = []
        for points, rho in self.curves:
            if d != 2:
                raise ValueError("curves are only supported in d = 2")
            pts, rho, lens = _as_curve(points, rho)
            curves.append((pts, rho, lens))
        object.__setattr__(
            self, "curves",
            tuple((pts, rho) for pts, rho, _ in curves))
        object.__setattr__(self, "_curve_data", tuple(curves))

        for _, rho, lens in curves:
            tv = _finite_total_variation(tv, lens, abs(rho))
        object.__setattr__(self, "_total_variation", tv)

    # ------------------------------------------------------------------
    # totals and structure

    def total_variation(self) -> float:
        return self._total_variation

    def total_mass(self) -> float:
        m = float(np.sum(self._aw))
        if self.density is not None:
            g, v = self.density
            m += float(np.sum(v)) * g.cell_volume
        for pts, rho, lens in self._curve_data:
            m += rho * float(np.sum(lens))
        return m

    def is_zero(self) -> bool:
        return self._total_variation == 0.0

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
            if self.dimension == 1:
                idx = nz[0]
                if idx.size:
                    ax = grid.axis(0)
                    h = 0.5 * grid.spacing
                    los.append(np.array([ax[idx.min()] - h]))
                    his.append(np.array([ax[idx.max()] + h]))
            else:
                if nz[0].size:
                    h = 0.5 * grid.spacing
                    a0, a1 = grid.axis(0), grid.axis(1)
                    los.append(np.array([a0[nz[0].min()] - h,
                                         a1[nz[1].min()] - h]))
                    his.append(np.array([a0[nz[0].max()] + h,
                                         a1[nz[1].max()] + h]))
        for pts, rho, _ in self._curve_data:
            if rho != 0.0:
                los.append(pts.min(axis=0))
                his.append(pts.max(axis=0))
        if not los:
            return None
        lo = np.min(np.vstack(los), axis=0)
        hi = np.max(np.vstack(his), axis=0)
        return Box(tuple(lo), tuple(hi))

    # ------------------------------------------------------------------
    # ball queries

    def ball_masses(self, points, radii, absolute: bool = False,
                    closed: bool = False, _atom_dist=None,
                    _rows=None) -> np.ndarray:
        """Mass of per-point balls: points (n, d), radii scalar or (n,).

        closed=True switches atom inclusion to the closed ball; density and
        curve contributions are continuous in the radius so the flag only
        moves their measure-zero boundary cells/chords.  _rows (indices)
        returns the masses of those points only, bit for bit as in the
        full result.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        radii = np.broadcast_to(np.asarray(radii, dtype=float),
                                (len(points),))
        all_points, all_radii = points, radii
        if _rows is not None:
            points, radii = points[_rows], radii[_rows]
        out = np.zeros(len(points))
        up_side, lo_side = _SIDES_CLOSED if closed else _SIDES_OPEN

        if len(self._apos):
            if self.dimension == 1:
                x = points[:, 0]
                cum = self._acum_abs if absolute else self._acum_signed
                hi = np.searchsorted(self._apos1, x + radii, side=up_side)
                lo = np.searchsorted(self._apos1, x - radii, side=lo_side)
                out += cum[hi] - cum[lo]
            else:
                # BLAS rounds a row of mask @ w differently depending on
                # which other rows it receives, so this term always runs
                # over all points and _rows picks from the result
                D = _atom_dist
                if D is None:
                    D = np.linalg.norm(
                        all_points[:, None, :] - self._apos[None, :, :],
                        axis=2)
                r = all_radii[:, None]
                mask = D <= r if closed else D < r
                w = np.abs(self._aw) if absolute else self._aw
                mass = mask @ w
                out += mass if _rows is None else mass[_rows]

        if self.density is not None:
            if self.dimension == 1:
                cum = self._dcum_abs if absolute else self._dcum_signed
                x = points[:, 0]
                upper = np.interp(x + radii, self._dedges, cum)
                lower = np.interp(x - radii, self._dedges, cum)
                out += upper - lower
            else:
                out += self._disk_density_mass(points, radii, absolute, closed)

        for pts, rho, _ in self._curve_data:
            w = abs(rho) if absolute else rho
            if w == 0.0:
                continue
            for s in range(len(pts) - 1):
                out += w * segment_ball_chords_at(pts[s], pts[s + 1],
                                                  points, radii)
        return out

    def _disk_density_mass(self, points, radii, absolute, closed):
        grid, _ = self.density
        cum = self._drow_cum_abs if absolute else self._drow_cum_signed
        c0, c1 = self._c0, self._c1
        p0 = points[:, 0]
        p1 = points[:, 1]
        r2 = radii**2
        out = np.zeros(len(points))
        up_side, lo_side = _SIDES_CLOSED if closed else _SIDES_OPEN
        # loop over cell rows; vectorized over query points
        for i in range(grid.extents[0]):
            dx2 = (c0[i] - p0) ** 2
            act = dx2 < r2
            if not np.any(act):
                continue
            half = np.sqrt(r2[act] - dx2[act])
            hi = np.searchsorted(c1, p1[act] + half, side=up_side)
            lo = np.searchsorted(c1, p1[act] - half, side=lo_side)
            out[act] += cum[i][hi] - cum[i][lo]
        return out

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

    def singular_mass(self, window: Box) -> float:
        """Total-variation mass of atoms and curves inside a closed box."""
        if window.dimension != self.dimension:
            raise ValueError("window dimension mismatch")
        total = 0.0
        if len(self._apos):
            inside = window.contains_points(self._apos)
            total += float(np.sum(np.abs(self._aw[inside])))
        for pts, rho, _ in self._curve_data:
            if rho == 0.0:
                continue
            for s in range(len(pts) - 1):
                total += abs(rho) * segment_box_overlap(pts[s], pts[s + 1],
                                                        window)
        return total

    def singular_mass_ball(self, center, radius: float,
                           closed: bool = False) -> float:
        """Singular mass inside the ball around center (open by default)."""
        c = np.asarray(as_point(center, self.dimension))
        total = 0.0
        if len(self._apos):
            dist = np.linalg.norm(self._apos - c, axis=1)
            inside = dist <= radius if closed else dist < radius
            total += float(np.sum(np.abs(self._aw[inside])))
        for pts, rho, _ in self._curve_data:
            if rho == 0.0:
                continue
            for s in range(len(pts) - 1):
                total += abs(rho) * float(
                    segment_ball_chords_at(pts[s], pts[s + 1], c[None, :],
                                           np.array([radius]))[0])
        return total

    def singular_support_distance(self, points) -> np.ndarray:
        """Distance from each point to the nearest atom or curve (inf if none)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        best = np.full(len(points), np.inf)
        if len(self._apos):
            D = np.linalg.norm(points[:, None, :] - self._apos[None, :, :],
                               axis=2)
            best = np.minimum(best, D.min(axis=1))
        for pts, rho, _ in self._curve_data:
            if rho == 0.0:
                continue
            for s in range(len(pts) - 1):
                best = np.minimum(
                    best, point_segment_distance(points, pts[s], pts[s + 1]))
        return best

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

    def __mul__(self, c) -> "Measure":
        c = float(c)
        atoms = tuple((p, c * w) for p, w in self.atoms)
        density = None
        if self.density is not None:
            g, v = self.density
            density = (g, c * v)
        curves = tuple((pts, c * rho) for pts, rho in self.curves)
        return Measure(self.dimension, atoms, density, curves)

    __rmul__ = __mul__

    def __neg__(self) -> "Measure":
        return self * -1.0

    # ------------------------------------------------------------------

    def restricted_to_ball(self, center, radius: float) -> "Measure":
        """Restriction to the open ball: atoms kept if strictly inside,
        density cells by the center-in rule, curve segments exactly clipped."""
        c = np.asarray(as_point(center, self.dimension))
        atoms = []
        if len(self._apos):
            dist = np.linalg.norm(self._apos - c, axis=1)
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
        for pts, rho, _ in self._curve_data:
            for s in range(len(pts) - 1):
                a, b = pts[s], pts[s + 1]
                u = b - a
                seg2 = float(u @ u)
                w = a - c
                bq = 2.0 * float(w @ u)
                cq = float(w @ w) - radius**2
                disc = bq * bq - 4.0 * seg2 * cq
                if disc <= 0:
                    continue
                sq = math.sqrt(disc)
                t0 = max(0.0, (-bq - sq) / (2.0 * seg2))
                t1 = min(1.0, (-bq + sq) / (2.0 * seg2))
                if t1 - t0 > 1e-14:
                    curves.append((np.vstack([a + t0 * u, a + t1 * u]), rho))
        return Measure(self.dimension, tuple(atoms), density, tuple(curves))


def unit_atom(x, dimension: int = 1, weight: float = 1.0) -> Measure:
    return Measure(dimension, atoms=((as_point(x, dimension), weight),))


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

    @classmethod
    def from_callable(cls, grid: UniformGrid, fn) -> "GridFunction":
        pts = grid.points()
        if grid.dimension == 1:
            vals = np.asarray([fn(float(p[0])) for p in pts])
        else:
            vals = np.asarray([fn(tuple(p)) for p in pts])
        return cls(grid, vals.reshape(grid.extents))

    def as_density_measure(self) -> Measure:
        """Reinterpret the samples as a cell-piecewise-constant density."""
        return Measure(self.grid.dimension, density=(self.grid, self.values))

    def mean(self) -> float:
        return float(np.mean(self.values))


# ----------------------------------------------------------------------
# polar decomposition and Lipschitz sign smoothing


@dataclass(frozen=True)
class PolarDecomposition:
    """mu = eta |mu|: the absolute measure plus the sign data on its support."""

    base: Measure
    atom_signs: np.ndarray
    density_signs: Optional[np.ndarray]
    curve_signs: tuple

    def __post_init__(self):
        if len(self.atom_signs) and np.any(np.abs(self.atom_signs) != 1.0):
            raise ValueError("atom signs must be unit")
        if self.density_signs is not None and \
                np.any(np.abs(self.density_signs) > 1.0):
            raise ValueError("density signs must lie in [-1, 1]")


def polar_decomposition(mu: Measure) -> PolarDecomposition:
    atom_signs = np.sign(mu._aw) if len(mu._aw) else np.empty(0)
    density_signs = None
    if mu.density is not None:
        density_signs = np.sign(mu.density[1])
    curve_signs = tuple(float(np.sign(rho)) for _, rho in mu.curves)
    return PolarDecomposition(mu.absolute(), atom_signs, density_signs,
                              curve_signs)


class PolarMollifyResult(NamedTuple):
    polar: PolarDecomposition
    eta: GridFunction          # smoothed sign field on a sample grid
    lipschitz_constant: float  # valid for every pair of sample nodes
    error_measure: Measure     # |eta - eta_smoothed| |mu| on the support
    scale: float               # kernel radius that met the target
    error_mass: float          # achieved total of the error measure


_MAX_SMOOTH_SOURCES = 1500


def _support_samples(mu: Measure, spacing: float):
    """(positions, masses, signs) sampling the support of |mu|."""
    pos, mass, sign = [], [], []
    for i in range(len(mu._aw)):
        pos.append(mu._apos[i])
        mass.append(abs(mu._aw[i]))
        sign.append(math.copysign(1.0, mu._aw[i]))
    cell_index = []
    if mu.density is not None:
        grid, values = mu.density
        pts = grid.points()
        flat = values.ravel()
        nz = np.nonzero(flat)[0]
        for i in nz:
            pos.append(pts[i])
            mass.append(abs(flat[i]) * grid.cell_volume)
            sign.append(math.copysign(1.0, flat[i]))
            cell_index.append(i)
    curve_pieces = []
    for ci, (pts, rho) in enumerate(mu.curves):
        if rho == 0.0:
            continue
        for s in range(len(pts) - 1):
            a, b = pts[s], pts[s + 1]
            length = float(np.linalg.norm(b - a))
            nsub = max(1, int(math.ceil(length / max(spacing, 1e-12))))
            for j in range(nsub):
                t0, t1 = j / nsub, (j + 1) / nsub
                mid = a + 0.5 * (t0 + t1) * (b - a)
                pos.append(mid)
                mass.append(abs(rho) * length / nsub)
                sign.append(math.copysign(1.0, rho))
                curve_pieces.append((a + t0 * (b - a), a + t1 * (b - a), rho))
    if not pos:
        return (np.empty((0, mu.dimension)), np.empty(0), np.empty(0),
                np.empty(0, dtype=int), [])
    return (np.vstack([np.atleast_1d(p) for p in pos]).reshape(-1, mu.dimension),
            np.asarray(mass), np.asarray(sign),
            np.asarray(cell_index, dtype=int), curve_pieces)


def _aggregate_sources(pos, mass, sign, cap=_MAX_SMOOTH_SOURCES):
    """Thin dense supports so kernel sums stay affordable; preserves the
    signed and absolute totals per aggregation bucket."""
    n = len(mass)
    if n <= cap:
        return pos, mass * sign, mass
    stride = int(math.ceil(n / cap))
    signed, absolute, centers = [], [], []
    for i in range(0, n, stride):
        sl = slice(i, i + stride)
        m = mass[sl]
        s = sign[sl]
        tot = float(np.sum(m))
        if tot == 0.0:
            continue
        centers.append(np.average(pos[sl], axis=0, weights=m))
        signed.append(float(np.sum(m * s)))
        absolute.append(tot)
    return (np.vstack(centers), np.asarray(signed), np.asarray(absolute))


def _nw_smooth(targets, src_pos, src_signed, src_abs, sigma):
    """Triangular-kernel weighted mean of the sign field at target points.

    Returns (values, has_support) where has_support marks a positive kernel
    denominator.
    """
    num = np.zeros(len(targets))
    den = np.zeros(len(targets))
    chunk = max(1, int(2e6 // max(1, len(src_pos))))
    for i in range(0, len(targets), chunk):
        T = targets[i:i + chunk]
        dist = np.linalg.norm(T[:, None, :] - src_pos[None, :, :], axis=2)
        K = np.maximum(0.0, 1.0 - dist / sigma)
        num[i:i + chunk] = K @ src_signed
        den[i:i + chunk] = K @ src_abs
    ok = den > 0
    vals = np.zeros(len(targets))
    vals[ok] = num[ok] / den[ok]
    return np.clip(vals, -1.0, 1.0), ok


def polar_mollify(mu: Measure, eps_target: float,
                  sample_spacing: Optional[float] = None,
                  shrink: float = 2.0**0.25) -> PolarMollifyResult:
    """Polar sign field of mu plus a Lipschitz smoothing of it.

    Sweeps the kernel radius geometrically downward from the support
    diameter and keeps the largest radius whose smoothed field eta_s
    satisfies  sum_i m_i |eta_i - eta_s(p_i)| < eps_target  over the support
    samples.  Raises SignSmoothingError when even the finest scale fails,
    which signals sign oscillation at sample resolution.
    """
    if eps_target <= 0:
        raise ValueError("eps_target must be positive")
    polar = polar_decomposition(mu)
    d = mu.dimension

    box = mu.support_box()
    if box is None:
        grid = UniformGrid((0.0,) * d, 1.0, (1,) * d)
        eta = GridFunction(grid, np.zeros((1,) * d))
        return PolarMollifyResult(polar, eta, 0.0, Measure(d), 0.0, 0.0)

    diam = max(box.diameter(), 1e-12)
    if sample_spacing is None:
        sample_spacing = diam / (256 if d == 1 else 128)
    pos, mass, sign, cell_index, curve_pieces = _support_samples(
        mu, sample_spacing)
    src_pos, src_signed, src_abs = _aggregate_sources(pos, mass, sign)

    pad = 0.25 * diam + sample_spacing
    grid = UniformGrid.cover_cells(
        tuple(c - pad for c in box.lo), tuple(c + pad for c in box.hi),
        sample_spacing)

    sigma = max(diam, 8.0 * sample_spacing)
    sigma_min = sample_spacing
    chosen = None
    while True:
        smoothed, _ = _nw_smooth(pos, src_pos, src_signed, src_abs, sigma)
        err = float(np.sum(mass * np.abs(sign - smoothed)))
        if err < eps_target:
            chosen = (sigma, smoothed, err)
            break
        if sigma <= sigma_min:
            break
        sigma = max(sigma_min, sigma / shrink)
    if chosen is None:
        raise SignSmoothingError(
            f"no smoothing scale in [{sigma_min:g}, {diam:g}] reaches "
            f"error mass {eps_target:g}; sign oscillates at sample resolution")
    sigma, smoothed_support, err = chosen

    nodes = grid.points()
    vals, ok = _nw_smooth(nodes, src_pos, src_signed, src_abs, sigma)
    if not np.all(ok) and np.any(ok):
        # kernel support misses some nodes: extend by nearest support sample
        missing = np.nonzero(~ok)[0]
        chunk = max(1, int(2e6 // max(1, len(pos))))
        for i in range(0, len(missing), chunk):
            idx = missing[i:i + chunk]
            D = np.linalg.norm(nodes[idx][:, None, :] - pos[None, :, :], axis=2)
            vals[idx] = smoothed_support[np.argmin(D, axis=1)]
    eta = GridFunction(grid, vals.reshape(grid.extents))

    vgrid = eta.values
    slopes = [0.0]
    if grid.extents[0] > 1:
        slopes.append(float(np.max(np.abs(np.diff(vgrid, axis=0)))))
    if d == 2 and grid.extents[1] > 1:
        slopes.append(float(np.max(np.abs(np.diff(vgrid, axis=1)))))
    lipschitz = math.sqrt(d) * max(slopes) / grid.spacing

    # error measure shares the support structure of |mu|
    pointwise = np.abs(sign - smoothed_support)
    n_atoms = len(mu._aw)
    atoms = []
    for i in range(n_atoms):
        w = mass[i] * pointwise[i]
        if w > 0.0:
            atoms.append((tuple(mu._apos[i]), w))
    density = None
    if mu.density is not None:
        gridd, values = mu.density
        dv = np.zeros(values.size)
        k0 = n_atoms
        dv[cell_index] = np.abs(values.ravel()[cell_index]) * \
            pointwise[k0:k0 + len(cell_index)]
        density = (gridd, dv.reshape(gridd.extents))
    curves = []
    k0 = n_atoms + len(cell_index)
    for j, (a, b, rho) in enumerate(curve_pieces):
        w = abs(rho) * pointwise[k0 + j]
        if w > 0.0:
            curves.append((np.vstack([a, b]), w))
    nu = Measure(d, tuple(atoms), density, tuple(curves))
    return PolarMollifyResult(polar, eta, lipschitz, nu, sigma, err)
