import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxchar.errors import WindowTooSmallError
from maxchar.geometry import UniformGrid
from maxchar.maximal import (RadiusGrid, _monotone_runs,
                             _oscillation_field_1d, maximal_field,
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

    def test_refined_is_superset(self):
        rg = RadiusGrid.geometric(0.1, 1.0, 5)
        fine = rg.refined(3)
        assert set(rg.radii) <= set(fine.radii)

    def test_union(self):
        a = RadiusGrid(np.array([0.1, 1.0]))
        b = RadiusGrid(np.array([0.5, 1.0, 2.0]))
        assert a.union(b).radii.tolist() == [0.1, 0.5, 1.0, 2.0]

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
        fine, _ = maximal_values_at(mu, pts, RG.refined(4))
        assert np.all(fine >= coarse - 1e-15)

    def test_threads_match_serial(self):
        mu = Measure(1, atoms=(((0.0,), 1.0), ((2.0,), -0.4)))
        grid = UniformGrid.cover_cells([-3.0], [5.0], 0.01)
        serial = maximal_field(mu, grid, RG, "M", threads=1)
        parallel = maximal_field(mu, grid, RG, "M", threads=4)
        assert np.array_equal(serial.values, parallel.values)

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

    def test_2d_constant_is_zero(self):
        grid = UniformGrid.cover_cells([-1.0, -1.0], [1.0, 1.0], 0.05)
        f = GridFunction(grid, np.ones(grid.extents))
        rg = RadiusGrid.geometric(0.1, 0.8, 8)
        fld = oscillation_field(f, rg)
        inner = fld.values[~fld.flags]
        assert inner.size > 0
        assert np.all(inner == 0.0)


# ----------------------------------------------------------------------
# the run path of the 1D oscillation field against the sliding window


def assert_paths_agree(f, rg):
    runs = _oscillation_field_1d(f, rg, path="runs")
    window = _oscillation_field_1d(f, rg, path="window")
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
