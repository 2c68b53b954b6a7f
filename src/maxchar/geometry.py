"""Points, boxes, uniform grids, and exact segment geometry in d = 1, 2."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ResolutionError

# Volume of the unit ball, hard-coded for the two supported dimensions.
UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi}

SUPPORTED_DIMENSIONS = (1, 2)

# the most nodes UniformGrid.cover_cells builds: 32 times the largest grid
# of the tests, specs, verify and benchmark workloads (65,536 nodes)
GRID_NODE_BUDGET = 1 << 21


def ball_volume(dimension: int, r: float) -> float:
    """Volume of the open ball of radius r (boundary has measure zero)."""
    return UNIT_BALL_VOLUME[dimension] * r**dimension


def as_point(x, dimension: int) -> tuple[float, ...]:
    """Coerce a scalar or coordinate sequence to a finite tuple of length d."""
    if np.isscalar(x):
        pt = (float(x),)
    else:
        pt = tuple(float(c) for c in x)
    if len(pt) != dimension:
        raise ValueError(f"dimension mismatch: expected {dimension} "
                         f"coordinates, got {len(pt)}")
    if not all(math.isfinite(c) for c in pt):
        raise ValueError(f"non-finite coordinates: {pt}")
    return pt


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lo, hi] per axis.  Containment is closed."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(c) for c in self.lo)
        hi = tuple(float(c) for c in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise ValueError("lo/hi dimension mismatch")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError(f"empty box: {lo} .. {hi}")

    @property
    def dimension(self) -> int:
        return len(self.lo)

    def diameter(self) -> float:
        return math.dist(self.lo, self.hi)

    def contains_box(self, other: "Box") -> bool:
        return all(a <= b for a, b in zip(self.lo, other.lo)) and all(
            a >= b for a, b in zip(self.hi, other.hi)
        )


@dataclass(frozen=True)
class UniformGrid:
    """Uniform node lattice: node i sits at origin + i * spacing per axis.

    `extents` counts nodes per axis.  A node doubles as the center of a cell
    of side `spacing`, so a grid carrying a density covers the box
    [origin - h/2, last node + h/2] exactly and the covered volume is
    prod(extents) * spacing**d.
    """

    origin: tuple[float, ...]
    spacing: float
    extents: tuple[int, ...]

    def __post_init__(self):
        origin = tuple(float(c) for c in self.origin)
        extents = tuple(int(n) for n in self.extents)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "spacing", float(self.spacing))
        if self.spacing <= 0 or not math.isfinite(self.spacing):
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        if len(origin) != len(extents):
            raise ValueError("origin/extents dimension mismatch")
        if len(origin) not in SUPPORTED_DIMENSIONS:
            raise ValueError(f"unsupported dimension {len(origin)}")
        if any(n < 1 for n in extents):
            raise ValueError(f"extents must be >= 1, got {extents}")
        if not all(math.isfinite(c) for c in origin):
            raise ValueError("non-finite origin")

    @property
    def dimension(self) -> int:
        return len(self.origin)

    @property
    def node_count(self) -> int:
        return int(np.prod(self.extents))

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dimension

    def axis(self, k: int) -> np.ndarray:
        return self.origin[k] + self.spacing * np.arange(self.extents[k])

    def points(self) -> np.ndarray:
        """All nodes as an (n, d) array, row-major in node index order."""
        if self.dimension == 1:
            return self.axis(0)[:, None]
        c0, c1 = np.meshgrid(self.axis(0), self.axis(1), indexing="ij")
        return np.column_stack([c0.ravel(), c1.ravel()])

    def cell_box(self) -> Box:
        """Box covered by the cells (nodes padded by half a spacing)."""
        half = 0.5 * self.spacing
        return Box(tuple(c - half for c in self.origin),
                   tuple(c + self.spacing * (n - 1) + half
                         for c, n in zip(self.origin, self.extents)))

    @classmethod
    def cover_cells(cls, lo, hi, spacing: float,
                    name: str = "evaluation window") -> "UniformGrid":
        """Cell-centered grid covering [lo, hi]: first node at lo + h/2.

        Refused before anything is built: with a BudgetError when the node
        count, found from the spans (inf past the float range), passes
        GRID_NODE_BUDGET, and with a ResolutionError when floats near the
        box are more than h / 1024 apart, so that node positions could not
        resolve h.  Both messages open with the caller's name for the
        grid."""
        lo, hi = ([float(c) for c in np.ravel(v)] for v in (lo, hi))
        extents = [max(1, int(round(s))) if math.isfinite(s) else math.inf
                   for s in ((b - a) / spacing for a, b in zip(lo, hi))]
        box = " x ".join(f"[{a:.6g}, {b:.6g}]" for a, b in zip(lo, hi))
        nodes = math.prod(map(float, extents))
        if nodes > GRID_NODE_BUDGET:
            raise BudgetError(f"{name} {box} at h={spacing:g} "
                              f"holds about {nodes:.3g} nodes, over "
                              f"{GRID_NODE_BUDGET}")
        gap = math.ulp(max(abs(c) for c in (*lo, *hi)))
        if gap > spacing * 2.0 ** -10:
            raise ResolutionError(f"{name} {box} cannot resolve "
                                  f"h={spacing:g}: floats there are "
                                  f"{gap:.3g} apart")
        origin = tuple(a + 0.5 * spacing for a in lo)
        return cls(origin, spacing, extents)


def segment_ball_clip(a: np.ndarray, b: np.ndarray, centers: np.ndarray,
                      radii: np.ndarray):
    """Where one segment runs inside per-center balls: (t0, t1), two (n,)
    arrays, so that a + t (b - a) for t in [t0, t1] is the part inside.
    Both lie in [0, 1], and t0 = t1 where the segment misses the ball
    (always, for a segment of length 0).

    centers is (n, d), radii is (n,), the segment is fixed.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    radii = np.asarray(radii, dtype=float)
    u = b - a
    seg2 = float(u @ u)
    w = a - centers  # (n, d)
    # einsum, not w @ u: BLAS rounds a row differently depending on which
    # other rows it receives, and a chord must not depend on them
    bq = 2.0 * np.einsum("ij,j->i", w, u)
    cq = np.einsum("ij,ij->i", w, w) - radii**2
    disc = bq * bq - 4.0 * seg2 * cq
    t0, t1 = np.zeros(len(centers)), np.zeros(len(centers))
    ok = disc > 0
    if np.any(ok):
        sq = np.sqrt(disc[ok])
        t0[ok] = np.clip((-bq[ok] - sq) / (2.0 * seg2), 0.0, 1.0)
        t1[ok] = np.clip((-bq[ok] + sq) / (2.0 * seg2), 0.0, 1.0)
    return t0, t1


def segment_ball_chords_at(a: np.ndarray, b: np.ndarray, centers: np.ndarray,
                           radii: np.ndarray) -> np.ndarray:
    """Total chord length of one segment inside per-center balls.

    centers is (n, d), radii is (n,), the segment is fixed.  Returns (n,).
    """
    t0, t1 = segment_ball_clip(a, b, centers, radii)
    u = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    return (t1 - t0) * math.sqrt(float(u @ u))


def point_segment_distance(pts: np.ndarray, a: np.ndarray,
                           b: np.ndarray) -> np.ndarray:
    """Distance from each row of pts (n, d) to segment [a, b]."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    u = b - a
    seg2 = float(u @ u)
    if seg2 == 0.0:
        return np.linalg.norm(pts - a, axis=1)
    t = np.clip(((pts - a) @ u) / seg2, 0.0, 1.0)
    proj = a + t[:, None] * u
    return np.linalg.norm(pts - proj, axis=1)
