from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from maxchar import corpus, decay, maximal
from maxchar.errors import BudgetError, WindowTooSmallError
from maxchar.geometry import UNIT_BALL_VOLUME, UniformGrid
from maxchar.level_sets import distribution_experiment
from maxchar.maximal import (_RUN_PATH_WIDTH, RadiusGrid, _monotone_runs,
                             _node_window, _oscillation_field_1d,
                             _run_deviations, _span_margin, maximal_field,
                             maximal_point, maximal_values_at,
                             oscillation_field, oscillation_point)
from maxchar.measure import GridFunction, Measure, unit_atom

RG = RadiusGrid.geometric(1e-3, 8.0, 32)


class TestRadiusGrid:
    def test_geometric_span(self):
        rg = RadiusGrid.geometric(0.1, 10.0, 10)
        assert rg.r_min == pytest.approx(0.1)
        assert rg.r_max == pytest.approx(10.0)
        assert rg.count == 21

    def test_count_past_the_budget(self, monkeypatch):
        # 10^9 per decade over 4 decades: raised before np.geomspace runs
        def allocated(*args):
            raise AssertionError("radii allocated")

        monkeypatch.setattr(np, "geomspace", allocated)
        with pytest.raises(BudgetError, match="4e\\+09 radii, over 16384"):
            RadiusGrid.geometric(1e-3, 10.0, 10**9)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadiusGrid(np.array([1.0]))
        with pytest.raises(ValueError):
            RadiusGrid(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            RadiusGrid(np.array([1.0, 1.0]))


class TestMeasureVariants:
    def test_unit_atom_closed_form(self):
        # event radii make the sweep exact: M(x) = 1 / (2|x|)
        mu = unit_atom(0.0)
        for x in (0.05, 0.3, 1.0, -2.5):
            assert maximal_point(mu, [x], RG) == pytest.approx(
                1.0 / (2.0 * abs(x)), abs=1e-14)

    def test_signed_bounded_by_full(self):
        mu = Measure(1, atoms=(((-1.0,), 1.0), ((1.0,), -1.0),
                               ((0.3,), 0.5)))
        pts = np.linspace(-3.0, 3.0, 41).reshape(-1, 1)
        full, _ = maximal_values_at(mu, pts, RG, "M")
        signed, _ = maximal_values_at(mu, pts, RG, "Mbar")
        assert np.all(signed <= full + 1e-14)

    def test_cancellation_at_midpoint(self):
        mu = Measure(1, atoms=(((-1.0,), 1.0), ((1.0,), -1.0)))
        assert maximal_point(mu, [0.0], RG, "Mbar") == 0.0
        assert maximal_point(mu, [0.0], RG, "M") == pytest.approx(1.0)

    def test_stopped_variant_kills_far_field(self):
        mu = unit_atom(0.0)
        tau = 0.5
        # no admissible radius reaches the atom from beyond tau
        assert maximal_point(mu, [2.0], RG, "Mtau", tau=tau) == 0.0
        # inside tau the event radius still lands exactly
        assert maximal_point(mu, [0.2], RG, "Mtau", tau=tau) == pytest.approx(
            2.5, abs=1e-14)

    def test_stopped_needs_valid_tau(self):
        with pytest.raises(ValueError):
            maximal_point(unit_atom(0.0), [1.0], RG, "Mtau", tau=None)
        with pytest.raises(ValueError):
            maximal_point(unit_atom(0.0), [1.0], RG, "Mtau", tau=1e-6)

    def test_flags_near_singular_support(self):
        mu = unit_atom(0.0)
        pts = np.array([[1e-5], [0.5]])
        _, flags = maximal_values_at(mu, pts, RG)
        assert flags.tolist() == [True, False]

    def test_refinement_monotone(self):
        mu = Measure(1, atoms=(((0.0,), 1.0), ((1.3,), 0.7)))
        pts = np.linspace(-2.0, 3.0, 23).reshape(-1, 1)
        coarse, _ = maximal_values_at(mu, pts, RG)
        # RG plus a four times denser geometric grid over the same range
        fine_radii = np.geomspace(RG.r_min, RG.r_max, 4 * (RG.count - 1) + 1)
        fine_rg = RadiusGrid(np.unique(np.concatenate([RG.radii, fine_radii])))
        fine, _ = maximal_values_at(mu, pts, fine_rg)
        assert np.all(fine >= coarse - 1e-15)

    def test_window_must_cover_support(self):
        mu = unit_atom(10.0)
        grid = UniformGrid.cover_cells([-1.0], [1.0], 0.1)
        with pytest.raises(WindowTooSmallError):
            maximal_field(mu, grid, RG)

    def test_2d_atom_closed_form(self):
        mu = Measure(2, atoms=(((0.0, 0.0), 1.0),))
        val = maximal_point(mu, (1.0, 0.0), RG)
        assert val == pytest.approx(1.0 / np.pi, abs=1e-14)


def tent_function(h=1e-3, pad=2.0):
    grid = UniformGrid.cover_cells([-1.0 - pad], [1.0 + pad], h)
    x = grid.axis(0)
    return GridFunction(grid, np.maximum(0.0, 1.0 - np.abs(x)))


class TestOscillation:
    def test_affine_profile_flank_value(self):
        # slope s on a symmetric ball gives s/2 in the continuum; a K-node
        # discrete window at radius just above K h overshoots by at most
        # (K+1)/(K+1/2), which at the smallest admitted window (K = 3 for
        # r_min = 4h) caps the sup at s/2 * 8/7
        grid = UniformGrid.cover_cells([-1.0], [1.0], 1e-3)
        f = GridFunction(grid, 3.0 * grid.axis(0))
        rg = RadiusGrid.geometric(4e-3, 0.9, 48)
        val = oscillation_point(f, [0.0], rg)
        assert not val.skipped_all
        assert 1.5 - 1e-9 <= val.value <= 1.5 * 8.0 / 7.0 + 1e-9

    def test_boundary_balls_are_skipped(self):
        grid = UniformGrid.cover_cells([-1.0], [1.0], 0.01)
        f = GridFunction(grid, np.ones(grid.extents[0]))
        rg = RadiusGrid.geometric(0.5, 0.9, 8)
        edge = oscillation_point(f, [-0.99], rg)
        assert edge.skipped_all
        mid = oscillation_point(f, [0.0], rg)
        assert not mid.skipped_all and mid.value == 0.0

    def test_field_matches_pointwise(self):
        f = tent_function(h=0.01, pad=0.5)
        rg = RadiusGrid.geometric(0.04, 1.0, 16)
        fld = oscillation_field(f, rg)
        ax = f.grid.axis(0)
        for idx in (10, 80, 150, 240):
            pt = oscillation_point(f, [ax[idx]], rg)
            assert fld.values[idx] == pytest.approx(pt.value, abs=1e-12)
            assert bool(fld.flags[idx]) == pt.skipped_all

    def test_2d_is_rejected(self):
        grid = UniformGrid.cover_cells([-1.0, -1.0], [1.0, 1.0], 0.05)
        f = GridFunction(grid, np.ones(grid.extents))
        rg = RadiusGrid.geometric(0.1, 0.8, 8)
        with pytest.raises(ValueError, match="one-dimensional"):
            oscillation_field(f, rg)
        with pytest.raises(ValueError, match="one-dimensional"):
            oscillation_point(f, [0.0, 0.0], rg)


# ----------------------------------------------------------------------
# the run path of the 1D oscillation field against the sliding window


def forced_field(f, rg, path):
    """_oscillation_field_1d with every width on one kernel: a path width
    of 0 takes the run kernel for every K >= 1, one above the node count
    the window kernel; path None keeps the cost rule."""
    if path is None:
        return _oscillation_field_1d(f, rg)
    width = 0 if path == "runs" else len(f.values) + 1
    with mock.patch.object(maximal, "_RUN_PATH_WIDTH", width):
        return _oscillation_field_1d(f, rg)


def assert_paths_agree(f, rg):
    runs = forced_field(f, rg, "runs")
    window = forced_field(f, rg, "window")
    # both paths take the window means from one prefix sum, whose rounding
    # (eps * sum |v|) is all a field that is 0 in exact arithmetic shows
    floor = np.finfo(float).eps * np.sum(np.abs(f.values)) / f.grid.spacing
    tol = 1e-10 * float(np.max(window[0])) + floor
    assert np.max(np.abs(runs[0] - window[0])) <= tol
    assert np.array_equal(runs[1], window[1])
    return runs, window


@st.composite
def piecewise_affine_samples(draw):
    """Node values of a piecewise-affine function: pieces of 1-60 nodes
    with a jump in front, a third of them flat."""
    values = []
    level = draw(st.floats(min_value=-2.0, max_value=2.0))
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        count = draw(st.integers(min_value=1, max_value=60))
        level += draw(st.one_of(st.just(0.0),
                                st.floats(min_value=-3.0, max_value=3.0)))
        slope = draw(st.one_of(st.just(0.0), st.just(0.0),
                               st.floats(min_value=-0.5, max_value=0.5)))
        values.extend(level + slope * np.arange(count))
        level = values[-1]
    return np.array(values)


class TestOscillationRunPath:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(piecewise_affine_samples(), st.integers(min_value=0, max_value=30),
           st.lists(st.integers(min_value=1, max_value=120), max_size=6),
           st.floats(min_value=4.0, max_value=150.0))
    def test_runs_match_sliding_window(self, samples, pad, multiples, top):
        h = 0.01
        samples = np.concatenate([np.full(pad, samples[0]), samples,
                                  np.full(pad, samples[-1])])
        grid = UniformGrid((0.0,), h, (len(samples),))
        # r = 4h, exact multiples of h and a geometric sweep up to top * h
        radii = np.concatenate([[4 * h], h * np.asarray(multiples, float),
                                np.geomspace(h, top * h, 12)])
        rg = RadiusGrid(np.unique(radii))
        assert_paths_agree(GridFunction(grid, samples), rg)

        runs = _monotone_runs(samples)
        assert [s for s, _, _, _ in runs] == \
            [0] + [e for _, e, _, _ in runs[:-1]]
        assert runs[-1][1] == len(samples)
        for _, _, key, _ in runs:
            assert np.all(np.diff(key) >= 0)

    def test_noisy_samples_take_the_fallback(self):
        rng = np.random.default_rng(7)
        grid = UniformGrid.cover_cells([-1.0], [1.0], 0.01)
        x = grid.axis(0)
        f = GridFunction(grid, np.abs(x) + 0.05 * rng.standard_normal(len(x)))
        rg = RadiusGrid.geometric(0.04, 1.0, 24)
        # every window is narrower than 16 nodes per run
        assert 16 * len(_monotone_runs(f.values)) > len(x)
        _, window = assert_paths_agree(f, rg)
        fld = oscillation_field(f, rg)
        assert np.array_equal(fld.values, window[0])
        assert np.array_equal(fld.flags, window[1])

    def test_samples_equal_to_the_window_mean(self):
        # integer ramps and plateaus: every window mean on a ramp is a
        # sample, exactly, so ties between v and m decide nothing
        samples = np.concatenate([np.zeros(20), np.arange(40.0),
                                  np.full(20, 39.0), np.arange(39.0, -1, -1)])
        grid = UniformGrid((0.0,), 1.0, (len(samples),))
        rg = RadiusGrid(np.arange(2.0, 12.0))
        runs, _ = assert_paths_agree(GridFunction(grid, samples), rg)
        # on the rising ramp, sum |j - i| over |j - i| <= K is K (K + 1)
        i = 40
        expect = max(K * (K + 1) / (2 * K + 1) / (K + 1.0)
                     for K in range(1, 11))
        assert runs[0][i] == pytest.approx(expect, rel=1e-14)


# ----------------------------------------------------------------------
# the pruned oscillation field against the full loop


# the two kernels as first written, kept verbatim as the reference bits:
# the field's kernels may change how they compute, never what


def _window_deviations_reference(vals, i_lo, K, means):
    """Mean |v - m| over each window [i-K, i+K], i = i_lo, i_lo+1, ...,
    from explicit sliding windows: O(W) per centre."""
    W = 2 * K + 1
    windows = sliding_window_view(vals, W)
    dev = np.empty(len(means))
    block = max(1, int(4_000_000 // W))
    for b in range(0, len(means), block):
        e = min(b + block, len(means))
        segs = windows[i_lo - K + b:i_lo - K + e]
        dev[b:e] = np.mean(np.abs(segs - means[b:e, None]), axis=1)
    return dev


def _run_deviations_reference(prefix, runs, i_lo, K, means):
    """Mean |v - m| over the same windows as _window_deviations, from
    sum |v - m| = 2 sum_{v > m} (v - m): inside a monotone run {v > m} is
    one contiguous block, found by one searchsorted and summed by prefix
    sums, so a centre costs O(log n) per run its window meets.  Rounding
    can leave values slightly below 0; callers clamp."""
    excess = np.zeros(len(means))
    i_hi = i_lo + len(means) - 1
    for s, e, key, rising in runs:
        a = max(s - K, i_lo) - i_lo
        b = min(e - 1 + K, i_hi) - i_lo + 1
        if a >= b:
            continue  # no window meets this run
        centers = np.arange(i_lo + a, i_lo + b)
        m = means[a:b]
        lo = np.maximum(centers - K, s)
        hi = np.minimum(centers + K + 1, e)
        if rising:
            first = s + np.searchsorted(key, m, side="right")
            lo = np.clip(first, lo, hi)
        else:
            stop = s + np.searchsorted(key, -m, side="left")
            hi = np.clip(stop, lo, hi)
        excess[a:b] += prefix[hi] - prefix[lo] - m * (hi - lo)
    return 2.0 * excess / (2 * K + 1)


def _oscillation_field_reference(f, rg, path=None):
    """_oscillation_field_1d without its pruning, on the frozen kernels:
    every radius, every admitted centre, the zero pads included."""
    vals = f.values
    n = len(vals)
    h = f.grid.spacing
    prefix = np.concatenate([[0.0], np.cumsum(vals)])
    runs = _monotone_runs(vals)
    best = np.zeros(n)
    admitted = np.zeros(n, dtype=bool)
    for r in rg.radii:
        K = _node_window(r, h)
        i_lo = max(K, _span_margin(r, h))
        i_hi = n - 1 - i_lo
        if i_lo > i_hi:
            continue
        admitted[i_lo:i_hi + 1] = True
        if K == 0:
            continue
        W = 2 * K + 1
        centers = np.arange(i_lo, i_hi + 1)
        means = (prefix[centers + K + 1] - prefix[centers - K]) / W
        if path is None:
            use_runs = W > _RUN_PATH_WIDTH * len(runs)
        else:
            use_runs = path == "runs"
        if use_runs:
            dev = _run_deviations_reference(prefix, runs, i_lo, K, means)
        else:
            dev = _window_deviations_reference(vals, i_lo, K, means)
        out = slice(i_lo, i_hi + 1)
        np.maximum(best[out], dev / r, out=best[out])
    return best, ~admitted


@st.composite
def zero_padded_samples(draw):
    """Piecewise-affine samples with zero pads on neither, one or both
    sides, interior zero plateaus and a nonzero constant right tail; one
    draw in ten has no nonzero sample."""
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return np.zeros(draw(st.integers(min_value=1, max_value=80)))
    body = draw(piecewise_affine_samples())
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        at = draw(st.integers(min_value=0, max_value=len(body)))
        plateau = draw(st.integers(min_value=1, max_value=30))
        body = np.insert(body, at, np.zeros(plateau))
    tail = np.full(draw(st.integers(min_value=0, max_value=30)),
                   draw(st.sampled_from([1.0, -0.3, 1e-3, 7.25])))
    pad = st.one_of(st.just(0), st.integers(min_value=1, max_value=40))
    return np.concatenate([np.zeros(draw(pad)), body, tail,
                           np.zeros(draw(pad))])


def assert_same_bits(got, expect):
    assert np.array_equal(got[0].view(np.uint64), expect[0].view(np.uint64))
    assert np.array_equal(got[1], expect[1])


class TestOscillationPruning:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(zero_padded_samples(), st.sampled_from([0.01, 0.37, 1.0]),
           st.floats(min_value=0.05, max_value=3.0),
           st.floats(min_value=4.0, max_value=150.0),
           st.integers(min_value=2, max_value=160),
           st.lists(st.integers(min_value=1, max_value=60), max_size=4))
    def test_matches_the_full_loop_bit_for_bit(self, samples, h, bottom, top,
                                               count, multiples):
        grid = UniformGrid((0.0,), h, (len(samples),))
        f = GridFunction(grid, samples)
        # radii from below h (K = 0) up, often closer than h (repeated K),
        # and exact multiples of h
        radii = np.concatenate([np.geomspace(bottom * h, top * h, count),
                                h * np.asarray(multiples, float)])
        rg = RadiusGrid(np.unique(radii))
        for path in (None, "runs", "window"):
            assert_same_bits(forced_field(f, rg, path),
                             _oscillation_field_reference(f, rg, path=path))

    def test_one_pass_per_window_width_over_the_nonzero_span(self,
                                                             monkeypatch):
        f = tent_function(h=0.01, pad=1.0)
        nonzero = np.flatnonzero(f.values)
        rg = RadiusGrid.geometric(0.005, 0.9, 96)
        widths = []

        def counted(prefix, runs, i_lo, K, means):
            widths.append(K)
            # only centres whose window meets the nonzero span
            assert i_lo >= nonzero[0] - K
            assert i_lo + len(means) - 1 <= nonzero[-1] + K
            return _run_deviations(prefix, runs, i_lo, K, means)

        monkeypatch.setattr(maximal, "_run_deviations", counted)
        got = forced_field(f, rg, "runs")
        n = len(f.values)
        computed = [_node_window(r, 0.01) for r in rg.radii
                    if 2 * max(_node_window(r, 0.01),
                               _span_margin(r, 0.01)) <= n - 1]
        assert widths == sorted(set(computed) - {0})
        assert len(widths) < len(computed)
        monkeypatch.undo()
        assert_same_bits(got, _oscillation_field_reference(f, rg, "runs"))


def unpruned_values_at(mu, points, rg, variant, tau=None):
    """maximal_values_at without the prune: every node at every radius,
    then the same event radii, the atom part read from the kernel's sorted
    running sums and the rest queried on the atom-free measure."""
    d = mu.dimension
    omega = UNIT_BALL_VOLUME[d]
    radii = rg.radii if variant != "Mtau" else rg.radii[rg.radii < tau]
    signed = variant == "Mbar"
    dist, sums = maximal._sorted_atom_sums(mu, points, signed)
    # sums[i, c]: the mass of the c atoms nearest to point i
    sums = np.hstack([np.zeros((len(points), 1)), sums])
    free = Measure(d, density=mu.density, curves=mu.curves)
    best = np.zeros(len(points))

    def ball(r, closed):
        # a sweep radius is a scalar there, an event radius one per point
        vol = np.broadcast_to(omega * r**d, (len(points),))
        r = np.broadcast_to(r, (len(points),))
        # the closed ball holds every atom at distance r, ties included
        count = np.count_nonzero(dist <= r[:, None] if closed
                                 else dist < r[:, None], axis=1)
        ok = (r > 0) & (r >= rg.r_min)
        ok &= r < tau if variant == "Mtau" else r <= rg.r_max
        m = sums[np.arange(len(points)), count][ok] + free.ball_masses(
            points[ok], r[ok], absolute=not signed, closed=closed)
        best[ok] = np.maximum(best[ok], np.abs(m) / vol[ok])

    for r in radii:
        ball(r, closed=False)
    for j in range(len(mu._apos)):
        ball(dist[:, j], closed=True)
    for e in mu.density_sharp_edges():
        ball(np.abs(points[:, 0] - e), closed=False)
    return best, mu.singular_support_distance(points) < rg.r_min


def index_order_values_at(mu, points, rg, variant, tau=None):
    """The sweep and event radii of unpruned_values_at, with every mass
    from Measure.ball_masses of the whole measure, which sums the atoms in
    index order: the rule before the sorted running sums."""
    d = mu.dimension
    omega = UNIT_BALL_VOLUME[d]
    radii = rg.radii if variant != "Mtau" else rg.radii[rg.radii < tau]
    signed = variant == "Mbar"
    best = np.zeros(len(points))

    def event(r, closed):
        ok = (r > 0) & (r >= rg.r_min)
        ok &= r < tau if variant == "Mtau" else r <= rg.r_max
        if np.any(ok):
            m = mu.ball_masses(points[ok], r[ok], absolute=not signed,
                               closed=closed)
            best[ok] = np.maximum(best[ok], np.abs(m) / (omega * r[ok]**d))

    for r in radii:
        m = mu.ball_masses(points, float(r), absolute=not signed)
        np.maximum(best, np.abs(m) / (omega * r**d), out=best)
    dist = mu._atom_distances(points)
    for j in range(len(mu._apos)):
        event(dist[:, j], closed=True)
    for e in mu.density_sharp_edges():
        event(np.abs(points[:, 0] - e), closed=False)
    return best


_coord = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
_weight = st.floats(min_value=0.05, max_value=3.0).flatmap(
    lambda w: st.sampled_from([w, -w]))


@st.composite
def mixed_measures(draw):
    """Signed atoms, a signed density with zero cells at its rim and, in
    2D, signed polylines; never purely atomic, since only a density or a
    curve puts a measure on the radius sweep."""
    d = draw(st.sampled_from([1, 2]))
    locs = draw(st.lists(st.tuples(*[_coord] * d), max_size=4, unique=True))
    atoms = tuple((loc, draw(_weight)) for loc in locs)
    density = None
    if d == 1 or draw(st.booleans()):
        extents = tuple(draw(st.integers(1, 12)) for _ in range(d))
        # non-dyadic origins and spacings, so that cell edges and the
        # support box round apart
        grid = UniformGrid(tuple(draw(st.integers(-200, 200)) / 101
                                 for _ in range(d)),
                           1.0 / draw(st.integers(3, 97)), extents)
        values = np.array(draw(st.lists(
            st.sampled_from([0.0, 0.0, 0.7, -1.3, 2.0, 0.25]),
            min_size=int(np.prod(extents)), max_size=int(np.prod(extents)))))
        density = (grid, values.reshape(extents))
    curves = ()
    if d == 2:
        curves = tuple(
            (np.array(pts), draw(_weight))
            for pts in draw(st.lists(
                st.lists(st.tuples(_coord, _coord), min_size=2, max_size=3,
                         unique=True), min_size=density is None,
                max_size=2)))
    return Measure(d, atoms=atoms, density=density, curves=curves)


def touching_points(mu, radii):
    """Points whose ball at one of the radii touches the support box, from
    the side and, in 2D, at a corner."""
    box = mu.support_box()
    if box is None:
        return np.empty((0, mu.dimension))
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    pts = []
    for r in radii:
        if mu.dimension == 1:
            pts += [lo - r, hi + r]
        else:
            mid = 0.5 * (lo + hi)
            pts += [(lo[0] - r, mid[1]), (mid[0], hi[1] + r),
                    (hi[0] + 0.6 * r, lo[1] - 0.8 * r)]
    pts = np.asarray(pts, dtype=float).reshape(-1, mu.dimension)
    # and their neighbours one ulp inward and outward
    return np.vstack([pts, np.nextafter(pts, -np.inf),
                      np.nextafter(pts, np.inf)])


class TestPrunedSweep:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(mixed_measures(), st.data())
    def test_matches_unpruned_sweep_bit_for_bit(self, mu, data):
        d = mu.dimension
        rg = RadiusGrid.geometric(
            data.draw(st.floats(min_value=0.005, max_value=0.2)),
            data.draw(st.floats(min_value=1.0, max_value=6.0)),
            data.draw(st.integers(min_value=4, max_value=24)))
        tau = float(rg.radii[len(rg.radii) // 2])
        # at the last radius a variant reaches, a ball that only touches
        # the support has nothing larger to hide behind
        picks = data.draw(st.lists(st.sampled_from(list(rg.radii)),
                                   max_size=3))
        picks += [rg.radii[-1], rg.radii[rg.radii < tau][-1]]
        free = data.draw(st.lists(st.tuples(*[st.floats(-4.0, 4.0)] * d),
                                  max_size=12))
        points = np.vstack([np.asarray(free, dtype=float).reshape(-1, d),
                            touching_points(mu, picks)])
        if len(points) == 0:
            points = np.zeros((1, d))
        for variant in ("M", "Mbar", "Mtau"):
            got = maximal_values_at(mu, points, rg, variant, tau=tau)
            want = unpruned_values_at(mu, points, rg, variant, tau=tau)
            assert np.array_equal(got[0], want[0]), variant
            assert np.array_equal(got[1], want[1]), variant

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(mixed_measures(), st.data())
    def test_matches_the_index_order_sweep(self, mu, data):
        # the sorted running sums change only the order of the atom sum
        d = mu.dimension
        rg = RadiusGrid.geometric(
            data.draw(st.floats(min_value=0.005, max_value=0.2)),
            data.draw(st.floats(min_value=1.0, max_value=6.0)),
            data.draw(st.integers(min_value=4, max_value=24)))
        tau = float(rg.radii[len(rg.radii) // 2])
        free = data.draw(st.lists(st.tuples(*[st.floats(-4.0, 4.0)] * d),
                                  min_size=1, max_size=12))
        points = np.vstack([np.asarray(free, dtype=float).reshape(-1, d),
                            mu._apos, touching_points(mu, rg.radii[:2])])
        for variant in ("M", "Mbar", "Mtau"):
            got, _ = maximal_values_at(mu, points, rg, variant, tau=tau)
            want = index_order_values_at(mu, points, rg, variant, tau=tau)
            assert np.all(np.abs(got - want) <= 1e-12 * want), variant

    def test_atoms_never_reach_ball_masses(self, monkeypatch):
        # the atom part comes from the sorted running sums alone
        ball_masses = Measure.ball_masses
        support_distance = Measure.singular_support_distance

        def atom_free(method):
            def checked(self, *args, **kwargs):
                assert len(self._apos) == 0
                return method(self, *args, **kwargs)
            return checked

        rng = np.random.default_rng(4)
        atoms_1d = Measure(1, atoms=tuple(
            ((float(x),), float(w)) for x, w in
            zip(rng.uniform(-1, 1, 6), rng.uniform(-2, 2, 6))))
        atoms_2d = Measure(2, atoms=tuple(
            (tuple(p), float(w)) for p, w in
            zip(rng.uniform(-1, 1, (6, 2)), rng.uniform(-2, 2, 6))))
        density_1d = Measure(1, density=(UniformGrid((-0.5,), 0.1, (10,)),
                                         rng.uniform(-1, 2, 10)))
        density_2d = Measure(2, density=(UniformGrid((-0.5, -0.4), 0.1,
                                                     (9, 8)),
                                         rng.uniform(-1, 2, (9, 8))),
                             curves=((rng.uniform(-1, 1, (3, 2)), 0.7),))
        rg = RadiusGrid.geometric(0.01, 5.0, 24)
        monkeypatch.setattr(Measure, "ball_masses", atom_free(ball_masses))
        monkeypatch.setattr(Measure, "singular_support_distance",
                            atom_free(support_distance))
        for mu, points in ((atoms_1d + density_1d, rng.uniform(-2, 2, 41)),
                           (atoms_2d + density_2d,
                            rng.uniform(-2, 2, (41, 2))),
                           (atoms_2d, rng.uniform(-2, 2, (41, 2)))):
            for variant in ("M", "Mbar", "Mtau"):
                values, _ = maximal_values_at(mu, points.reshape(41, -1), rg,
                                              variant, tau=0.5)
                assert np.any(values > 0)

    def test_measure_2d_cases_match_unpruned_sweep(self):
        # the swept 2D shapes of the benchmark, shrunk: a density square
        # and the square plus an atom (the atom cluster takes the event
        # path, TestAtomicEvents)
        grid = UniformGrid((0.05, 0.05), 0.1, (10, 10))
        square = Measure(2, density=(grid, np.ones((10, 10))))
        nodes = UniformGrid.cover_cells([-0.5, -0.5], [1.5, 1.5],
                                        0.05).points()
        rg = RadiusGrid.geometric(0.05, 2.5, 32)
        for mu in (square, square + unit_atom((0.3, 0.6), 2)):
            for variant in ("M", "Mbar"):
                got = maximal_values_at(mu, nodes, rg, variant)
                want = unpruned_values_at(mu, nodes, rg, variant)
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])

    def test_ball_touching_the_box_keeps_its_rounding_sliver(self):
        # the box edge rounds past the first cell edge, so the ball at r = 1
        # that touches the box picks up a sliver of mass
        grid = UniformGrid((12 / 101,), 1 / 7, (4,))
        mu = Measure(1, density=(grid, np.ones(4)))
        pt = np.array([[mu.support_box().hi[0] + 1.0]])
        rg = RadiusGrid(np.array([0.1, 0.5, 1.0]))
        got, _ = maximal_values_at(mu, pt, rg)
        want, _ = unpruned_values_at(mu, pt, rg, "M")
        assert got[0] > 0.0 and np.array_equal(got, want)

    def test_mass_rounded_past_the_total_variation(self):
        # the ball at r2 holds all the mass, summed by rows to one ulp
        # above |mu|, and the r1 ratio equals |mu| / (pi r2^2) to rounding
        vals = np.array([[0.64, 0.9, 0.41, 0.43, 0.48],
                         [0.71, 0.13, 0.12, 0.14, 0.74],
                         [0.41, 0.16, 0.13, 0.13, 0.55],
                         [0.75, 0.12, 0.14, 0.09, 0.15],
                         [0.14, 0.58, 0.53, 0.85, 0.12]])
        mu = Measure(2, density=(UniformGrid((-0.2, -0.2), 0.1, (5, 5)),
                                 vals))
        pt = np.zeros((1, 2))
        r1, r2 = 0.15, 0.43039176219523206
        tv = mu.total_variation()
        assert mu.ball_masses(pt, r2, absolute=True)[0] > tv
        assert mu.ball_masses(pt, r1, absolute=True)[0] / (np.pi * r1**2) \
            >= tv / (np.pi * r2**2)
        rg = RadiusGrid(np.array([r1, r2]))
        got, _ = maximal_values_at(mu, pt, rg)
        want, _ = unpruned_values_at(mu, pt, rg, "M")
        assert np.array_equal(got, want)

    def test_zero_measure_sweeps_nothing(self):
        values, flags = maximal_values_at(Measure(2), np.ones((3, 2)), RG)
        assert values.tolist() == [0.0] * 3 and not flags.any()

    @staticmethod
    def count_disc_rows(monkeypatch):
        """Record the number of points of every _disk_density_mass call."""
        rows = []
        disk = Measure._disk_density_mass

        def counting(self, points, radii, absolute, closed):
            rows.append(len(points))
            return disk(self, points, radii, absolute, closed)

        monkeypatch.setattr(Measure, "_disk_density_mass", counting)
        return rows

    def test_box_bound_queries_fewer_disc_rows(self, monkeypatch):
        # the square-atom shape of the benchmark, shrunk: past the atom's
        # event radius most nodes hold a value that no ball can beat
        grid = UniformGrid((0.05, 0.05), 0.1, (10, 10))
        mu = Measure(2, density=(grid, np.ones((10, 10)))) \
            + unit_atom((0.3, 0.65), 2)
        nodes = UniformGrid.cover_cells([-0.5, -0.5], [1.5, 1.5],
                                        0.05).points()
        rg = RadiusGrid.geometric(0.05, 2.5, 32)
        rows = self.count_disc_rows(monkeypatch)
        box_bound = maximal._box_bound

        def no_box_bound(mu, points):
            return lambda r, live: np.full(len(live), np.inf)

        for variant in ("M", "Mbar"):
            rows.clear()
            got = maximal_values_at(mu, nodes, rg, variant)
            with_bound = sum(rows)
            monkeypatch.setattr(maximal, "_box_bound", no_box_bound)
            rows.clear()
            alone = maximal_values_at(mu, nodes, rg, variant)
            monotone_only = sum(rows)
            monkeypatch.setattr(maximal, "_box_bound", box_bound)
            want = unpruned_values_at(mu, nodes, rg, variant)
            for field in (got, alone):
                assert np.array_equal(field[0], want[0])
                assert np.array_equal(field[1], want[1])
            assert with_bound < 0.5 * monotone_only, variant

    def test_box_bound_skips_one_radius_only(self, monkeypatch):
        # a light cell under the node and a heavy one 1.5 away: at r = 0.2
        # the square around the node holds only the light cell, whose ratio
        # the node already beats, so no node is queried; the heavy cell
        # still lifts the value at r = 2
        values = np.zeros((16, 1))
        values[0, 0], values[15, 0] = 100.0, 2e5
        mu = Measure(2, density=(UniformGrid((0.0, 0.0), 0.1, (16, 1)),
                                 values))
        nodes = np.array([[0.0, 0.0], [0.01, 0.0], [0.0, -0.02]])
        rg = RadiusGrid(np.array([0.06, 0.2, 2.0]))
        rows = self.count_disc_rows(monkeypatch)
        for variant in ("M", "Mbar"):
            # one radius per query, so each call shows one radius's rows
            with mock.patch.object(maximal, "_SWEEP_BATCH", 1):
                rows.clear()
                got, flags = maximal_values_at(mu, nodes, rg, variant)
                assert rows == [3, 3], variant  # r = 0.06 and r = 2
            want = unpruned_values_at(mu, nodes, rg, variant)
            assert np.array_equal(got, want[0])
            assert np.array_equal(flags, want[1])
            assert got == pytest.approx(2001.0 / (np.pi * 4.0), rel=1e-12)
            batched, batched_flags = maximal_values_at(mu, nodes, rg, variant)
            assert np.array_equal(batched, got)
            assert np.array_equal(batched_flags, flags)

    def test_small_tails_share_a_query(self, monkeypatch):
        # the square-atom shape of test_box_bound_queries_fewer_disc_rows:
        # past the first radius few nodes stay live, and their pairs go to
        # the disc kernel together instead of one call per radius
        grid = UniformGrid((0.05, 0.05), 0.1, (10, 10))
        mu = Measure(2, density=(grid, np.ones((10, 10)))) \
            + unit_atom((0.3, 0.65), 2)
        nodes = UniformGrid.cover_cells([-0.5, -0.5], [1.5, 1.5],
                                        0.05).points()
        rg = RadiusGrid.geometric(0.05, 2.5, 32)
        rows = self.count_disc_rows(monkeypatch)
        for variant in ("M", "Mbar"):
            with mock.patch.object(maximal, "_SWEEP_BATCH", 1):
                rows.clear()
                alone = maximal_values_at(mu, nodes, rg, variant)
            # one call for the atom's event radii, then one per live radius
            live_radii = len(rows) - 1
            rows.clear()
            got = maximal_values_at(mu, nodes, rg, variant)
            assert len(rows) - 1 < live_radii, variant
            assert np.array_equal(got[0], alone[0])
            assert np.array_equal(got[1], alone[1])

    @pytest.mark.parametrize("batch", [1, 7, maximal._SWEEP_BATCH, 1 << 20])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(mixed_measures(), st.data())
    def test_batch_size_keeps_the_bits(self, batch, mu, data):
        d = mu.dimension
        rg = RadiusGrid.geometric(
            data.draw(st.floats(min_value=0.005, max_value=0.2)),
            data.draw(st.floats(min_value=1.0, max_value=6.0)),
            data.draw(st.integers(min_value=4, max_value=24)))
        tau = float(rg.radii[len(rg.radii) // 2])
        free = data.draw(st.lists(st.tuples(*[st.floats(-4.0, 4.0)] * d),
                                  min_size=1, max_size=40))
        points = np.vstack([np.asarray(free, dtype=float).reshape(-1, d),
                            touching_points(mu, rg.radii[-1:])])
        for variant in ("M", "Mbar", "Mtau"):
            with mock.patch.object(maximal, "_SWEEP_BATCH", batch):
                got = maximal_values_at(mu, points, rg, variant, tau=tau)
            want = unpruned_values_at(mu, points, rg, variant, tau=tau)
            assert np.array_equal(got[0], want[0]), variant
            assert np.array_equal(got[1], want[1]), variant

    @pytest.mark.parametrize("batch", [1, 7, maximal._SWEEP_BATCH, 1 << 20])
    def test_batches_flushed_at_the_break(self, batch):
        # atoms, a signed density and, in 2D, a signed curve, swept far
        # past the support: M and Mbar stop before the last radius with
        # pairs still queued when the batch is large
        values = np.array([0.7, -1.3, 2.0, 0.0, 0.25, 2.0, -1.3])
        mu_1d = Measure(1, atoms=(((0.3,), 0.8), ((0.71,), -0.5)),
                        density=(UniformGrid((-0.2,), 0.1, (7,)), values))
        mu_2d = Measure(2, atoms=(((0.3, 0.2), 0.8), ((-0.1, 0.4), -0.5)),
                        density=(UniformGrid((-0.2, -0.3), 0.1, (6, 7)),
                                 np.tile(values, (6, 1))),
                        curves=((np.array([[-0.5, 0.0], [0.2, 0.9],
                                           [0.8, 0.1]]), -0.6),))
        rg = RadiusGrid.geometric(0.01, 50.0, 16)
        swept = []

        class Counted(np.ndarray):  # records the radii the sweep visits
            def __iter__(self):
                for r in self.view(np.ndarray):
                    swept.append(r)
                    yield r

        counted = RadiusGrid(rg.radii)
        object.__setattr__(counted, "radii", rg.radii.view(Counted))
        rng = np.random.default_rng(19)
        for mu in (mu_1d, mu_2d):
            points = rng.uniform(-1.5, 1.5, (40, mu.dimension))
            for variant in ("M", "Mbar", "Mtau"):
                swept.clear()
                with mock.patch.object(maximal, "_SWEEP_BATCH", batch):
                    got = maximal_values_at(mu, points, counted, variant,
                                            tau=1.0)
                if variant != "Mtau":
                    assert len(swept) < rg.count, variant
                want = unpruned_values_at(mu, points, rg, variant, tau=1.0)
                assert np.array_equal(got[0], want[0]), variant
                assert np.array_equal(got[1], want[1]), variant


@st.composite
def density_measures_2d(draw):
    """A signed 2D density with a zero rim on a non-dyadic grid, signed
    atoms and signed polylines."""
    inner = (draw(st.integers(1, 10)), draw(st.integers(1, 10)))
    grid = UniformGrid(tuple(draw(st.integers(-200, 200)) / 101
                             for _ in range(2)),
                       1.0 / draw(st.integers(3, 97)),
                       (inner[0] + 2, inner[1] + 2))
    values = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.7, -1.3, 2.0, 0.25, -1e-3]),
        min_size=inner[0] * inner[1], max_size=inner[0] * inner[1])))
    density = (grid, np.pad(values.reshape(inner), 1))
    locs = draw(st.lists(st.tuples(_coord, _coord), max_size=4, unique=True))
    atoms = tuple((loc, draw(_weight)) for loc in locs)
    # vertices on a 1/199 lattice: distinct ones are never a rounding apart
    vertex = st.tuples(*[st.integers(-400, 400).map(lambda k: k / 199)] * 2)
    curves = tuple(
        (np.array(pts), draw(_weight))
        for pts in draw(st.lists(st.lists(vertex, min_size=2, max_size=3,
                                          unique=True), max_size=2)))
    return Measure(2, atoms=atoms, density=density, curves=curves)


class TestBoxBound:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(density_measures_2d(), st.data())
    def test_bounds_the_computed_ball_mass(self, mu, data):
        grid, _ = mu.density
        h = grid.spacing
        r = data.draw(st.one_of(st.floats(min_value=1e-3, max_value=3.0),
                                st.integers(1, 8).map(lambda k: k * h)))
        centres = grid.points()
        picks = centres[data.draw(st.lists(
            st.integers(0, len(centres) - 1), min_size=1, max_size=6))]
        # points exactly r from a centre, along the axes and (0.6, 0.8)
        steps = np.array([[r, 0.0], [-r, 0.0], [0.0, r], [0.0, -r],
                          [0.6 * r, 0.8 * r]])
        at_r = (picks[:, None, :] + steps[None]).reshape(-1, 2)
        free = data.draw(st.lists(st.tuples(st.floats(-4.0, 4.0),
                                            st.floats(-4.0, 4.0)),
                                  max_size=8))
        points = np.vstack([picks, at_r, np.nextafter(at_r, -np.inf),
                            np.nextafter(at_r, np.inf),
                            np.asarray(free, dtype=float).reshape(-1, 2)])
        rows = np.arange(len(points))
        free = Measure(2, density=mu.density, curves=mu.curves)
        box = maximal._box_bound(free, points)(r, rows)
        slack = maximal._PRUNE_SLACK
        for absolute in (True, False):
            # the sweep adds the |atom mass| it reads from the sorted sums
            dist, sums = maximal._sorted_atom_sums(mu, points, not absolute)
            sums = np.hstack([np.zeros((len(points), 1)), sums])
            for closed in (False, True):
                count = np.count_nonzero(dist <= r if closed else dist < r,
                                         axis=1)
                atoms = np.abs(sums[rows, count])
                bound = (box + atoms) * (1.0 + slack) \
                    + slack * mu.total_variation()
                m = mu.ball_masses(points, r, absolute=absolute,
                                   closed=closed)
                assert np.all(bound >= np.abs(m))


# ----------------------------------------------------------------------
# the two-pass 2D density sweep against the ascending sweep, kept verbatim
# as the reference: the order of the radii may change, never the bits


def _ascending_block_values(mu, free, points, rg, signed, tau):
    """_block_values before the two-pass 2D sweep: every radius ascending,
    the box bound alone beside the monotone test."""
    dist, sums = maximal._sorted_atom_sums(mu, points, signed)
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
            at_min = np.abs(maximal._atom_mass(dist, sums, rg.r_min))
            best = np.maximum(at_min / (omega * rg.r_min**d), best)
        return best, flags

    def open_ratio(rows, r, vol):  # |mu(B(x, r))| / vol, r per row
        m = free.ball_masses(points[rows], r, absolute=absolute)
        if dist.shape[1]:
            m += maximal._atom_mass(dist[rows], sums[rows], r[:, None])
        return np.abs(m, out=m) / vol

    # sharp density edges (open balls) are event radii too
    for e in free.density_sharp_edges():
        r = np.abs(points[:, 0] - e)
        ok = in_range(r)
        if np.any(ok):
            r = r[ok]
            best[ok] = np.maximum(best[ok], open_ratio(ok, r, omega * r**d))

    # pruned sweep: a ball farther than r from the support box holds no
    # mass, and no ratio exceeds |mu| / (omega r^d), which falls with r
    # while best rises, so a node past that bound stays past it
    gap = maximal._support_gap(mu, points)
    reach = 1.0 + maximal._PRUNE_SLACK
    total = mu.total_variation() * reach
    gap_max = gap.max(initial=0.0)
    box_bound = None
    if d == 2 and free.density is not None:
        box_bound = maximal._box_bound(free, points)
        slack = maximal._PRUNE_SLACK * mu.total_variation()
    radii = rg.radii if tau is None else rg.radii[rg.radii < tau]
    # each radius's live rows, with the radius and its volume, wait here
    # until about _SWEEP_BATCH rows are queued; a flush queries them in
    # one call, one radius per row, and raises best radius by radius
    pending, queued = [], 0

    def flush():
        parts, r, vol = zip(*pending)
        sizes = [len(part) for part in parts]
        ratio = open_ratio(np.concatenate(parts), np.repeat(r, sizes),
                           np.repeat(vol, sizes))
        for part, value in zip(parts, np.split(ratio, np.cumsum(sizes[:-1]))):
            best[part] = np.maximum(best[part], value)
        pending.clear()

    for r in radii:
        vol = omega * r**d
        live = (best < total / vol) & (gap < r * reach)
        rows = np.flatnonzero(live)
        if rows.size == 0:
            if gap_max < r * reach:
                break  # every ball reaches the support and no node is live
            continue
        if box_bound is not None:
            # the box bound is not monotone in r: it skips a node at this
            # radius only, and the break above keeps the monotone test
            b = box_bound(r, rows)
            if dist.shape[1]:
                b += np.abs(maximal._atom_mass(dist[rows], sums[rows], r))
            rows = rows[best[rows] < (b * reach + slack) / vol]
            if rows.size == 0:
                continue
        pending.append((rows, r, vol))
        queued += rows.size
        if queued >= maximal._SWEEP_BATCH:
            flush()
            queued = 0
    if pending:
        flush()
    return best, flags


def ascending_values_at(mu, points, rg, variant, tau=None):
    """maximal_values_at, row blocks and all, on the ascending sweep."""
    with mock.patch.object(maximal, "_block_values",
                           _ascending_block_values):
        return maximal_values_at(mu, points, rg, variant, tau=tau)


class TestTwoPassSweep:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(density_measures_2d(), st.data())
    def test_matches_the_ascending_sweep_bit_for_bit(self, mu, data):
        rg = RadiusGrid.geometric(
            data.draw(st.floats(min_value=0.005, max_value=0.2)),
            data.draw(st.floats(min_value=1.0, max_value=6.0)),
            data.draw(st.integers(min_value=4, max_value=40)))
        tau = float(rg.radii[data.draw(st.integers(1, rg.count - 1))])
        box = mu.density[0].cell_box()  # of the zero density too
        lo, hi = np.asarray(box.lo) - 0.5, np.asarray(box.hi) + 0.5
        nodes = UniformGrid.cover_cells(lo, hi, max(hi - lo) / 14).points()
        free = data.draw(st.lists(st.tuples(st.floats(-4.0, 4.0),
                                            st.floats(-4.0, 4.0)),
                                  max_size=12))
        points = np.vstack([nodes,
                            np.asarray(free, dtype=float).reshape(-1, 2),
                            mu._apos, touching_points(mu, rg.radii[-1:])])
        batch = data.draw(st.sampled_from([1, 7, maximal._SWEEP_BATCH]))
        for variant in ("M", "Mbar", "Mtau"):
            with mock.patch.object(maximal, "_SWEEP_BATCH", batch):
                got = maximal_values_at(mu, points, rg, variant, tau=tau)
                want = ascending_values_at(mu, points, rg, variant, tau=tau)
            assert np.array_equal(got[0], want[0]), variant
            assert np.array_equal(got[1], want[1]), variant

    def test_unit_square_queries_fewer_points(self, monkeypatch):
        # measure-2d's square, unit density on 50 x 50 cells of [0, 1]^2,
        # on distribution_experiment's grid and radii at h = 0.025
        square = Measure(2, density=(UniformGrid((0.01, 0.01), 0.02,
                                                 (50, 50)), np.ones((50, 50))))
        points = []
        ball_masses = Measure.ball_masses

        def counted(self, pts, radii, absolute=False, closed=False):
            points.append(len(pts))
            return ball_masses(self, pts, radii, absolute, closed)

        monkeypatch.setattr(Measure, "ball_masses", counted)
        got = distribution_experiment(square, "M", h=0.025).field
        two_pass = sum(points)
        points.clear()
        with mock.patch.object(maximal, "_block_values",
                               _ascending_block_values):
            want = distribution_experiment(square, "M", h=0.025).field
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.flags, want.flags)
        assert two_pass <= 0.65 * sum(points)


# ----------------------------------------------------------------------
# the event path of purely atomic measures against the exact sup


def exact_atomic_sup(mu, x, rg, variant, tau=None):
    """sup over r in [r_min, r_max] (r < tau for Mtau) of the ball ratio in
    exact arithmetic: the open ball at r_min and the closed ball at every
    atom distance in range, with the distances Measure computes."""
    d = mu.dimension
    dist = [Fraction(r) for r in mu._atom_distances(
        np.asarray(x, dtype=float).reshape(1, d))[0].tolist()]
    weights = [Fraction(w if variant == "Mbar" else abs(w))
               for w in mu._aw.tolist()]
    lo, hi = Fraction(rg.r_min), Fraction(rg.r_max)
    top = Fraction(tau) if variant == "Mtau" else None
    balls = [(lo, False)]
    for r in set(dist):
        if 0 < r and lo <= r and (r < top if top is not None else r <= hi):
            balls.append((r, True))
    best = Fraction(0)
    for r, closed in balls:
        mass = sum((w for w, dw in zip(weights, dist)
                    if (dw <= r if closed else dw < r)), Fraction(0))
        best = max(best, abs(mass) / (Fraction(UNIT_BALL_VOLUME[d]) * r ** d))
    return best


_dyadic = st.integers(-16, 16).map(lambda k: k / 8)
_dyadic_weight = st.integers(1, 12).map(lambda k: k / 4).flatmap(
    lambda w: st.sampled_from([w, -w]))


@st.composite
def atomic_measures(draw):
    """Signed atoms at dyadic or free locations with dyadic or free
    weights, plus symmetric pairs of opposite weight about dyadic centres."""
    d = draw(st.sampled_from([1, 2]))
    coord = st.one_of(_dyadic, _coord)
    atoms = {loc: draw(st.one_of(_weight, _dyadic_weight))
             for loc in draw(st.lists(st.tuples(*[coord] * d), min_size=1,
                                      max_size=5, unique=True))}
    for _ in range(draw(st.integers(0, 2))):
        centre = np.array(draw(st.tuples(*[_dyadic] * d)))
        offset = np.array(draw(st.tuples(*[_dyadic] * d)))
        w = draw(st.one_of(_weight, _dyadic_weight))
        pair = (tuple(centre + offset), tuple(centre - offset))
        if pair[0] != pair[1] and not set(pair) & set(atoms):
            atoms.update({pair[0]: w, pair[1]: -w})
    return Measure(d, atoms=tuple(atoms.items()))


@st.composite
def radius_grids(draw):
    """(grid, tau): a random geometric grid, or dyadic r_min, tau and r_max
    that dyadic atoms and nodes hit exactly."""
    if draw(st.booleans()):
        rg = RadiusGrid.geometric(
            draw(st.floats(min_value=0.005, max_value=0.2)),
            draw(st.floats(min_value=1.0, max_value=6.0)),
            draw(st.integers(min_value=4, max_value=24)))
        return rg, float(rg.radii[len(rg.radii) // 2])
    r_min = draw(st.sampled_from([1 / 16, 1 / 8, 1 / 4]))
    r_max = draw(st.sampled_from([2.0, 3.0, 4.0]))
    tau = draw(st.sampled_from([0.5, 1.0, 1.5]))
    radii = np.geomspace(r_min, r_max, draw(st.integers(4, 24)))
    return RadiusGrid(np.unique(np.append(radii, tau))), tau


def event_nodes(mu, rg, tau, free):
    """Free points, the atoms themselves, dyadic points (ties between
    dyadic atoms) and points at r_min, tau, r_max or a grid radius from
    each atom, along the axes and, in 2D, along (0.6, 0.8)."""
    d = mu.dimension
    pts = [np.asarray(free, dtype=float).reshape(-1, d), mu._apos,
           np.arange(-8, 9).reshape(-1, 1) / 4 * np.ones((1, d))]
    for r in (rg.r_min, tau, rg.r_max, rg.radii[len(rg.radii) // 3]):
        if d == 1:
            steps = np.array([[r], [-r]])
        else:
            steps = np.array([[r, 0.0], [0.0, -r], [0.6 * r, 0.8 * r]])
        pts.append((mu._apos[:, None, :] + steps[None]).reshape(-1, d))
    return np.vstack(pts)


class TestAtomicEvents:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(atomic_measures(), radius_grids(), st.data())
    def test_matches_exact_sup_and_bounds_the_sweep(self, mu, grid, data):
        rg, tau = grid
        d = mu.dimension
        free = data.draw(st.lists(st.tuples(*[st.floats(-4.0, 4.0)] * d),
                                  max_size=8))
        points = event_nodes(mu, rg, tau, free)
        for variant in ("M", "Mbar", "Mtau"):
            got, flags = maximal_values_at(mu, points, rg, variant, tau=tau)
            sweep, sweep_flags = unpruned_values_at(mu, points, rg, variant,
                                                    tau=tau)
            assert np.array_equal(flags, sweep_flags), variant
            for x, value, low in zip(points, got, sweep):
                want = exact_atomic_sup(mu, x, rg, variant, tau)
                assert abs(Fraction(value) - want) <= Fraction(1e-12) * want, \
                    (variant, x)
                # the sweep decides membership by the same distances
                assert value >= low * (1 - 1e-12), (variant, x)

    def test_cluster_matches_exact_sup(self):
        # the measure-2d atom cluster, shrunk
        rng = np.random.default_rng(3)
        mu = Measure(2, atoms=tuple(
            (tuple(p), w) for p, w in zip(rng.uniform(0.0, 0.05, (12, 2)),
                                         rng.uniform(0.5, 2.0, 12))))
        nodes = UniformGrid.cover_cells([-0.5, -0.5], [1.5, 1.5],
                                        0.05).points()
        rg = RadiusGrid.geometric(0.05, 2.5, 32)
        for variant in ("M", "Mbar"):
            got, flags = maximal_values_at(mu, nodes, rg, variant)
            sweep, sweep_flags = unpruned_values_at(mu, nodes, rg, variant)
            assert np.array_equal(flags, sweep_flags)
            assert np.all(got >= sweep * (1 - 1e-12))
            for i in range(0, len(nodes), 7):
                want = exact_atomic_sup(mu, nodes[i], rg, variant)
                assert abs(Fraction(got[i]) - want) <= \
                    Fraction(1e-12) * want

    def test_zero_density_curve_keeps_the_event_path(self, monkeypatch):
        atoms = (((0.2, -0.1), 1.0), ((-0.4, 0.3), -2.0))
        alone = Measure(2, atoms=atoms)
        mu = Measure(2, atoms=atoms,
                     curves=(([(-1.0, 0.1), (1.0, 0.1)], 0.0),))
        nodes = UniformGrid.cover_cells([-1, -1], [1, 1], 0.1).points()
        rg = RadiusGrid.geometric(0.05, 2.5, 16)
        want = {v: maximal_values_at(alone, nodes, rg, v, tau=1.0)
                for v in ("M", "Mbar", "Mtau")}

        def no_query(*args, **kwargs):
            raise AssertionError("ball_masses called")

        monkeypatch.setattr(Measure, "ball_masses", no_query)
        for variant, (values, flags) in want.items():
            got, got_flags = maximal_values_at(mu, nodes, rg, variant,
                                               tau=1.0)
            assert np.array_equal(got.view(np.uint64),
                                  values.view(np.uint64)), variant
            assert np.array_equal(got_flags, flags), variant

    @pytest.mark.parametrize("block", [1, 3, 7, 64])
    def test_row_blocks_do_not_change_bits(self, monkeypatch, block):
        rng = np.random.default_rng(4)
        cases = [
            (Measure(1, atoms=tuple(((float(x),), float(w)) for x, w in
                                    zip(rng.uniform(-2, 2, 5),
                                        rng.uniform(-2, 2, 5)))),
             rng.uniform(-3, 3, (301, 1))),
            (Measure(2, atoms=tuple((tuple(p), float(w)) for p, w in
                                    zip(rng.uniform(-1, 1, (9, 2)),
                                        rng.uniform(-2, 2, 9)))),
             rng.uniform(-2, 2, (301, 2))),
        ]
        # the swept shapes: the same atoms plus a signed density and, in
        # 2D, a curve; 2D nodes on a lattice, so that the disc rows share
        # x across blocks
        density_1d = Measure(1, density=(UniformGrid((-0.7,), 0.13, (11,)),
                                         rng.uniform(-1, 1, 11)))
        density_2d = Measure(
            2, density=(UniformGrid((-0.5, -0.4), 0.1, (9, 8)),
                        rng.uniform(-1, 1, (9, 8))),
            curves=((np.array([[-1.0, 0.3], [0.2, 0.9], [1.1, -0.4]]), 0.7),))
        nodes_2d = np.vstack([UniformGrid.cover_cells(
            [-1.5, -1.5], [1.5, 1.5], 0.25).points(),
            rng.uniform(-2, 2, (40, 2))])
        curve_2d = Measure(2, curves=density_2d.curves)
        cases += [(cases[0][0] + density_1d, cases[0][1]),
                  (cases[1][0] + density_2d, nodes_2d),
                  (cases[1][0] + curve_2d, nodes_2d),
                  (curve_2d, nodes_2d),
                  (density_1d, cases[0][1]),
                  (Measure(2, density=density_2d.density), nodes_2d)]
        rg = RadiusGrid.geometric(0.01, 5.0, 24)
        want = [maximal_values_at(mu, pts, rg, v, tau=0.5)
                for mu, pts in cases for v in ("M", "Mbar", "Mtau")]
        monkeypatch.setattr(maximal, "_EVENT_BLOCK", block)
        got = [maximal_values_at(mu, pts, rg, v, tau=0.5)
               for mu, pts in cases for v in ("M", "Mbar", "Mtau")]
        for (gv, gf), (wv, wf) in zip(got, want):
            assert np.array_equal(gv, wv) and np.array_equal(gf, wf)
        # the flags are the block-free support distances below r_min
        for i, (mu, pts) in enumerate(cases):
            near = mu.singular_support_distance(pts) < rg.r_min
            for _, gf in got[3 * i:3 * i + 3]:
                assert np.array_equal(gf, near)

    @pytest.mark.parametrize("block", [1, 3, 7, 64])
    def test_one_distance_pass_per_row_block(self, monkeypatch, block):
        # flags and kernel share each row block's point-atom distances,
        # and no block holds more than _EVENT_BLOCK of them (one row at
        # least)
        rng = np.random.default_rng(8)
        atoms = Measure(2, atoms=tuple((tuple(p), 1.0) for p in
                                       rng.uniform(-1, 1, (5, 2))))
        density = Measure(2, density=(UniformGrid((-0.5, -0.4), 0.1, (9, 8)),
                                      rng.uniform(0, 1, (9, 8))))
        points = rng.uniform(-2, 2, (53, 2))
        rg = RadiusGrid.geometric(0.01, 5.0, 24)
        sizes = []
        original = Measure._atom_distances

        def counted(self, pts):
            dist = original(self, pts)
            sizes.append(dist.size)
            return dist

        monkeypatch.setattr(Measure, "_atom_distances", counted)
        monkeypatch.setattr(maximal, "_EVENT_BLOCK", block)
        for mu in (atoms, atoms + density, density):
            k = len(mu.atoms)
            rows = max(1, block // k) if k else len(points)
            sizes.clear()
            maximal_values_at(mu, points, rg, "M")
            assert len(sizes) == -(-len(points) // rows)
            assert max(sizes) <= max(block, k)

    def test_atom_beside_a_density_holds_its_closed_form(self):
        # a unit atom and a far light density keep the sweep, whose closed
        # ball at |x - a| once read the atom by the rounded position x +-
        # |x - a| and missed it on 6 of these nodes, up to 3.3 % low
        a = float(np.random.default_rng(1).uniform(-1, 1))
        density = (UniformGrid((5.0,), 0.01, (10,)), np.full(10, 0.01))
        mu = Measure(1, atoms=(((a,), 1.0),), density=density)
        nodes = UniformGrid.cover_cells([-1.0], [1.0], 1e-3).points()
        rg = RadiusGrid.geometric(1e-3, 10, 64)
        got, flags = maximal_values_at(mu, nodes, rg)
        want = 1.0 / (2.0 * np.abs(nodes[:, 0] - a))
        assert np.count_nonzero(~flags) == 1998
        assert np.all(got[~flags] >= want[~flags])

    def test_atom_pair_decay_nodes_closed_form(self):
        # the graded nodes of the atom_pair decay slice: the closed ball at
        # x + |x - a| used to round below a on some of them, so that M fell
        # back to the next grid radius, up to 3.2 % low
        tf = dict((name, tf) for name, tf, _ in
                  corpus.flow_corpus())["atom_pair"]
        mu = tf.slices[0]
        delta = decay.DEFAULT_DELTAS[-1]
        h_bg = 2.0 * tf.ball_radius / decay._BACKGROUND_CELLS
        edges = decay._graded_edges_1d(-1.0, 1.0, mu, delta, h_bg)
        x = 0.5 * (edges[:-1] + edges[1:])
        r_min = 0.9 * delta * 1.0 / decay._CLIP_MARGIN
        rg = decay._radius_grid_for(mu, -1.0, 1.0, r_min, 64)
        got, _ = decay._slice_field(mu, (0.0,), 1.0, delta, h_bg, 64)
        a = mu._apos[:, 0]
        dist = np.abs(x[:, None] - a[None, :])
        # the positions x +- |x - a| miss a on some nodes
        assert np.any((x[:, None] + dist < a) & (x[:, None] < a))
        near, far = dist.min(axis=1), dist.max(axis=1)
        assert rg.r_max > far.max()
        # each unit atom at distance s alone gives 1 / (2 s); both, 2 / (2 s)
        want = np.maximum(1.0 / (2.0 * near), 2.0 / (2.0 * far))
        clear = near >= rg.r_min
        assert clear.sum() > 0.9 * len(x)
        np.testing.assert_allclose(got[clear], want[clear], rtol=1e-14,
                                   atol=0.0)
