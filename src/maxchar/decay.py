"""Log-normalized decay quantity for time-dependent derivative fields.

Q(B; delta) = |log delta|^-1 * int_0^T int_B min(1/delta, M|Db_t|) dx dt.

Its small-delta limit vanishes exactly when the spatial derivative has no
singular part on the ball, so the sweep verdict classifies the field.  The
inner integral needs care near singular support where M blows up like
mass/dist^d: meshes are graded geometrically toward atoms in d=1, uniform
with an explicit resolution guard in d=2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ResolutionError
from .geometry import UniformGrid, as_point
from .level_sets import DECAYS, TailVerdict, classify_tail
from .maximal import RadiusGrid, maximal_values_at
from .measure import Measure

_LADDER_PER_DECADE = 24
_BACKGROUND_CELLS = 256
_REFINE_SPAN_CELLS = 4  # ladder reaches this many background cells out
_CLIP_MARGIN = 8.0      # finest cell = transition_radius / (CLIP_MARGIN / 2)
_PER_DECADE = 64        # default radius samples per decade


@dataclass(frozen=True)
class TimeField:
    """Per-time spatial derivative magnitudes plus the evaluation ball."""

    times: tuple
    slices: tuple
    ball_center: tuple
    ball_radius: float
    horizon: float = 1.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.size == 0:
            raise ValueError("need at least one time sample")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if len(self.slices) != t.size:
            raise ValueError("one derivative slice per time sample")
        if not all(isinstance(s, Measure) for s in self.slices):
            raise ValueError("slices must be Measure instances")
        dims = {s.dimension for s in self.slices}
        if len(dims) != 1:
            raise ValueError("slices must share a dimension")
        d = dims.pop()
        center = as_point(self.ball_center, d)
        if not (math.isfinite(self.ball_radius) and self.ball_radius > 0):
            raise ValueError("ball radius must be finite and positive")
        if not math.isfinite(self.horizon):
            raise ValueError("horizon must be finite")
        if not (self.horizon > 0 and t[0] > 0 and t[-1] < self.horizon):
            raise ValueError("times must lie strictly inside (0, horizon)")
        object.__setattr__(self, "times", tuple(t))
        object.__setattr__(self, "slices", tuple(self.slices))
        object.__setattr__(self, "ball_center", center)
        object.__setattr__(self, "ball_radius", float(self.ball_radius))
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "_t", t)

    @property
    def dimension(self) -> int:
        return self.slices[0].dimension

    def time_weights(self) -> np.ndarray:
        """Length of each sample's share of (0, horizon): cells between the
        midpoints of consecutive times, closed off by 0 and the horizon."""
        t = self._t
        edges = np.concatenate([[0.0], 0.5 * (t[:-1] + t[1:]),
                                [self.horizon]])
        return np.diff(edges)

    @classmethod
    def steady(cls, derivative: Measure, ball_center,
               ball_radius: float) -> "TimeField":
        """Time-independent field on (0, 1), sampled at its midpoint."""
        return cls(times=(0.5,), slices=(derivative,),
                   ball_center=ball_center, ball_radius=ball_radius)

    def total_variation_timeintegral(self) -> float:
        """|Db_t|(closed ball) integrated over (0, horizon)."""
        w = self.time_weights()
        masses = [s.ball_mass(self.ball_center, self.ball_radius,
                              absolute=True, closed=True)
                  for s in self.slices]
        return float(np.dot(w, masses))

    def singular_timeintegral(self, closed: bool = True) -> float:
        w = self.time_weights()
        masses = [s.singular_mass_ball(self.ball_center, self.ball_radius,
                                       closed=closed)
                  for s in self.slices]
        return float(np.dot(w, masses))


def _graded_edges_1d(a: float, b: float, mu: Measure, delta: float,
                     h_bg: float) -> np.ndarray:
    """Cell edges on [a, b]: uniform background plus geometric ladders that
    refine toward each atom, down to a fraction of the clipping radius
    mass*delta/2 where min(1/delta, M) saturates."""
    n_bg = max(8, UniformGrid.cover_cells([a], [b], h_bg,
                                          "decay mesh").extents[0])
    edges = [np.linspace(a, b, n_bg + 1)]
    span = _REFINE_SPAN_CELLS * (b - a) / n_bg
    ratio = 10.0 ** (1.0 / _LADDER_PER_DECADE)
    for loc, mass in ((float(p[0]), abs(w)) for p, w in mu.atoms):
        if loc < a - span or loc > b + span:
            continue
        d_min = delta * mass / _CLIP_MARGIN
        d_min = max(d_min, 1e-13 * (b - a))
        if d_min >= span:
            continue
        steps = int(math.ceil(math.log(span / d_min) / math.log(ratio))) + 1
        ladder = d_min * ratio ** np.arange(steps)
        ladder = ladder[ladder <= span * (1 + 1e-12)]
        edges.append(np.asarray([loc]))
        edges.append(loc + ladder)
        edges.append(loc - ladder)
    all_edges = np.sort(np.clip(np.concatenate(edges), a, b))
    keep = np.concatenate([[True], np.diff(all_edges) > 1e-15 * (b - a)])
    out = all_edges[keep]
    if out[-1] != b:
        out = np.concatenate([out, [b]])
    return out


def _radius_grid_for(mu: Measure, a: float, b: float, r_min: float,
                     per_decade: int) -> RadiusGrid:
    sb = mu.support_box()
    lo, hi = a, b
    if sb is not None:
        lo = min(lo, *sb.lo)
        hi = max(hi, *sb.hi)
    r_max = 1.05 * max(hi - lo, b - a)
    return RadiusGrid.geometric(max(r_min, 1e-14 * r_max), r_max,
                                per_decade=per_decade)


def _slice_field(mu: Measure, center, radius: float, delta: float,
                 h_bg: float, per_decade: int):
    """(values, weights): M of one slice at quadrature nodes inside the
    ball and the nodes' cell measures, on graded 1D cells or a uniform 2D
    mesh.  The atoms and curve segments within _REFINE_SPAN_CELLS cells of
    the ball (exact distances) set the smallest radius, and in 2D the guard
    on the distance where the delta-clipping saturates: pi t^2 =
    mass*delta for an atom, t = rho*delta/pi for a line density."""
    atoms, rhos = mu.singular_parts_near(
        center, radius + _REFINE_SPAN_CELLS * h_bg)
    a, b = center[0] - radius, center[0] + radius
    if mu.dimension == 1:
        edges = _graded_edges_1d(a, b, mu, delta, h_bg)
        nodes = (0.5 * (edges[:-1] + edges[1:]))[:, None]
        weights = np.diff(edges)
    else:
        t_clip = np.concatenate([np.sqrt(atoms * delta / math.pi),
                                 rhos * delta / math.pi])
        unresolved = h_bg > 0.5 * t_clip
        if np.any(unresolved):
            raise ResolutionError(
                f"mesh width {h_bg:g} cannot resolve the clipping radius "
                f"{t_clip[np.argmax(unresolved)]:g} at delta={delta:g}; "
                "refine the mesh or use a larger delta")
        cx, cy = center
        grid = UniformGrid.cover_cells((a, cy - radius), (b, cy + radius),
                                       h_bg, "decay mesh")
        pts = grid.points()
        inside = (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2 < radius ** 2
        nodes = pts[inside]
        weights = np.full(len(nodes), h_bg * h_bg)
    r_min = min([h_bg, *(0.9 * delta * atoms / _CLIP_MARGIN),
                 *(0.9 * rhos * delta / math.pi)])
    rg = _radius_grid_for(mu, a, b, r_min, per_decade)
    values, _ = maximal_values_at(mu, nodes, rg, "M")
    return values, weights


def _prepare_slices(tf: TimeField, delta: float, h_bg: Optional[float],
                    per_decade: int):
    d = tf.dimension
    if h_bg is None:
        h_bg = 2.0 * tf.ball_radius / (_BACKGROUND_CELLS if d == 1 else 128)
    no_nodes = (np.empty(0), np.empty(0))  # for a slice of no mass
    return [_slice_field(mu, tf.ball_center, tf.ball_radius, delta, h_bg,
                         per_decade) if mu.total_variation() else no_nodes
            for mu in tf.slices]


def _validate_delta(delta: float):
    if not (0 < delta <= 0.5):
        raise ValueError("delta must lie in (0, 1/2]")


def _q_value(w: np.ndarray, fields, delta: float) -> float:
    total = math.fsum(
        wi * float(np.dot(weights, np.minimum(1.0 / delta, values)))
        for wi, (values, weights) in zip(w, fields))
    return total / abs(math.log(delta))


def decay_quantity(tf: TimeField, delta: float, h: Optional[float] = None,
                   radii_per_decade: int = _PER_DECADE) -> float:
    """Q(B; delta) by graded-mesh quadrature, exact time weighting.  h is
    the background cell size, by default the ball's diameter over 256 (1D)
    or 128 (2D); radii_per_decade samples the maximal function's radii."""
    _validate_delta(delta)
    fields = _prepare_slices(tf, delta, h, radii_per_decade)
    return _q_value(tf.time_weights(), fields, delta)


DEFAULT_DELTAS = tuple(10.0 ** -k for k in range(1, 7))


@dataclass(frozen=True)
class DecayReport:
    deltas: tuple
    q_values: tuple
    verdict: TailVerdict
    singular_mass_timeintegral: float
    singular_mass_timeintegral_closed: float

    def __post_init__(self):
        dl = np.asarray(self.deltas)
        if np.any(np.diff(dl) >= 0):
            raise ValueError("delta samples must be strictly decreasing")
        if any(q < 0 for q in self.q_values):
            raise ValueError("Q must be nonnegative")


def decay_sweep(tf: TimeField, threshold: Optional[float] = None,
                h: Optional[float] = None,
                radii_per_decade: int = _PER_DECADE) -> DecayReport:
    """Q across DEFAULT_DELTAS, classified over the smallest decade; h and
    radii_per_decade as in decay_quantity.  Meshes are built once at the
    finest delta and reused; the clipped integrand only loosens at coarser
    delta, so the finest mesh dominates every coarser requirement.
    """
    deltas = DEFAULT_DELTAS
    sing_open = tf.singular_timeintegral(closed=False)
    sing_closed = tf.singular_timeintegral(closed=True)
    tv_closed = tf.total_variation_timeintegral()
    if threshold is None:
        threshold = 0.2 * tv_closed
    if tv_closed == 0:
        qs = tuple(0.0 for _ in deltas)
        return DecayReport(deltas, qs, TailVerdict(
            DECAYS, 0.0, 0.0, 0.0, True, float(threshold)), 0.0, 0.0)
    fields = _prepare_slices(tf, deltas[-1], h, radii_per_decade)
    w = tf.time_weights()
    qs = [_q_value(w, fields, delta) for delta in deltas]
    dl = np.asarray(deltas)
    decade = dl <= dl[-1] * 10.0 * (1 + 1e-9)
    verdict = classify_tail(np.asarray(qs)[decade], threshold)
    return DecayReport(deltas, tuple(qs), verdict, sing_open, sing_closed)


def level_integral_slice(mu: Measure, ball_center, ball_radius: float,
                         delta: float) -> float:
    """int_{delta^-1/2}^{delta^-1} vol({M(1_B' |mu|) > lam} cap B) dlam.

    B' is the ball shrunk by two background cells, r / 64 in all: the
    localization device that links the clipped integral to the level-set
    lower bound.  The lambda integral is exact for the sampled field: each
    node contributes weight * (min(value, lam_hi) - lam_lo)+.
    """
    _validate_delta(delta)
    if mu.dimension != 1:
        raise ValueError("the slice diagnostic is one-dimensional")
    h_bg = 2.0 * ball_radius / _BACKGROUND_CELLS
    restricted = mu.absolute().restricted_to_ball(ball_center,
                                                  ball_radius - 2.0 * h_bg)
    values, weights = _slice_field(restricted, as_point(ball_center, 1),
                                   ball_radius, delta, h_bg, _PER_DECADE)
    lam_lo = delta ** -0.5
    lam_hi = 1.0 / delta
    gain = np.maximum(0.0, np.minimum(values, lam_hi) - lam_lo)
    return float(np.dot(weights, gain))
