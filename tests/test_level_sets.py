"""Distribution curves, tail verdicts, and the pointwise checks."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxchar import level_sets
from maxchar.bv import BVFunction1D
from maxchar.errors import TruncationError
from maxchar.geometry import Box, UniformGrid
from maxchar.level_sets import (
    DECAYS,
    INCONCLUSIVE,
    PERSISTS,
    DistributionCurve,
    LambdaGrid,
    TailVerdict,
    classify_tail,
    distribution_curve,
    distribution_experiment,
    evaluation_window,
    reverse_weak11_check,
    semigroup_check,
    sobolev_experiment,
    superlevel_volume,
    tail_verdict,
    weak11_constant,
)
from maxchar.maximal import MaximalField, RadiusGrid, maximal_field
from maxchar.measure import GridFunction, Measure, unit_atom


def atom_field(h=1e-3, half_width=2.0, per_decade=64):
    mu = unit_atom(0.0)
    grid = UniformGrid.cover_cells([-half_width], [half_width], h)
    rg = RadiusGrid.geometric(h, 4.0 * half_width, per_decade)
    return maximal_field(mu, grid, rg, "M")


def synthetic_curve(lambdas, volumes, flags=None):
    lambdas = tuple(lambdas)
    if flags is None:
        flags = (False,) * len(lambdas)
    return DistributionCurve(lambdas=lambdas, volumes=tuple(volumes),
                             flags=tuple(flags))


class TestLambdaGrid:
    def test_geometric_span(self):
        lg = LambdaGrid.geometric(0.1, 10.0, per_decade=8)
        assert lg.lambdas[0] == pytest.approx(0.1)
        assert lg.lambdas[-1] == pytest.approx(10.0)
        assert len(lg.lambdas) == 17

    def test_validation(self):
        with pytest.raises(ValueError):
            LambdaGrid((1.0,))
        with pytest.raises(ValueError):
            LambdaGrid((0.0, 1.0))
        with pytest.raises(ValueError):
            LambdaGrid((2.0, 1.0))
        with pytest.raises(ValueError):
            LambdaGrid.geometric(1.0, 0.5)


class TestSuperlevelVolume:
    def test_atom_volume_is_exact(self):
        # M for a unit atom is 1/(2|x|); {M > lam} = (-1/(2 lam), 1/(2 lam)).
        # 1/value is affine in |x|, so the harmonic subcell model is exact.
        fld = atom_field()
        for lam in (0.5, 1.0, 5.0, 20.0):
            vol, touches = superlevel_volume(fld, lam)
            assert vol == pytest.approx(1.0 / lam, rel=1e-10)
            assert not touches

    def test_boundary_flag(self):
        fld = atom_field(half_width=1.0)
        # {M > 0.3} = (-5/3, 5/3) spills out of [-1, 1]
        vol, touches = superlevel_volume(fld, 0.3)
        assert touches
        assert vol == pytest.approx(2.0, rel=1e-6)

    def test_single_node_window(self):
        mu = unit_atom(0.5)
        grid = UniformGrid.cover_cells([0.0], [1.0], 1.0)
        fld = maximal_field(mu, grid, RadiusGrid.geometric(0.5, 2.0, 8), "M")
        vol, touches = superlevel_volume(fld, 0.5)
        assert vol == 1.0 and touches
        vol, touches = superlevel_volume(fld, 2.0)
        assert vol == 0.0 and not touches

    def test_2d_counts_nodes(self):
        mu = unit_atom([0.0, 0.0], dimension=2)
        grid = UniformGrid.cover_cells([-1.5, -1.5], [1.5, 1.5], 0.25)
        fld = maximal_field(mu, grid, RadiusGrid.geometric(0.25, 6.0, 16), "M")
        lam = 1.0 / math.pi  # level set is the unit disk, area pi
        vol, touches = superlevel_volume(fld, lam)
        assert vol == pytest.approx(math.pi, rel=0.15)
        assert not touches
        _, touches_low = superlevel_volume(fld, 0.05)
        assert touches_low

    @pytest.mark.parametrize("scale", [1e-300, 1e-310])
    def test_subnormal_values_keep_the_harmonic_model(self, scale):
        # 1/value overflows below about 5.6e-309; the fraction must not
        field = _field([scale, 3.0 * scale, 0.0], 1.0, (3,))
        vol, touches = superlevel_volume(field, 2.0 * scale)
        assert vol == pytest.approx(0.25 + 1.0 / 3.0, rel=1e-12)
        assert not touches

    def test_overflowing_lower_value_keeps_its_fraction(self):
        # 1/lo overflows while 1/lam and 1/hi do not: the cell's fraction
        # is about lo/lam = 1e-5, not 0
        field = _field([1e-310, 1e-300, 0.0], 1.0, (3,))
        vol, _ = superlevel_volume(field, 1e-305)
        cell = (1e-300 - 1e-305) / (1e-300 - 1e-310) * 1e-5
        assert vol == pytest.approx(cell + (1e-300 - 1e-305) / 1e-300,
                                    rel=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 16), min_size=1, max_size=30),
           st.lists(st.integers(0, 16), min_size=1, max_size=10),
           st.one_of(st.sampled_from([1.0, 1e-300, 1e-308, 1e-310]),
                     st.floats(1e-310, 1.0)))
    def test_volumes_scale_with_the_field(self, quarters, eighths, c):
        # node values k/4 and levels (2k+1)/8 keep every difference far
        # above the rounding of c * v, even for subnormal c * v
        values = np.array(quarters) / 4.0
        lam = np.unique((2.0 * np.array(eighths) + 1.0) / 8.0)
        want, want_flags = level_sets._superlevel_volumes(
            _field(values, 1.0, (values.size,)), lam)
        got, flags = level_sets._superlevel_volumes(
            _field(c * values, 1.0, (values.size,)), c * lam)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
        assert flags.tolist() == want_flags.tolist()


def _superlevel_loop(field, lam):
    """The volume of {field > lam} and its boundary flag counted at one
    level: the reference for the one-pass kernel."""
    v = field.values
    h = field.grid.spacing
    if field.grid.dimension == 1:
        a, b = v[:-1], v[1:]
        above_a = a > lam
        above_b = b > lam
        volume = h * float(np.count_nonzero(above_a & above_b))
        cross = above_a != above_b
        if np.any(cross):
            hi = np.maximum(a[cross], b[cross])
            lo = np.minimum(a[cross], b[cross])
            frac = np.empty(hi.shape)
            pos = lo > 0
            frac[pos] = ((1.0 / lam - 1.0 / hi[pos])
                         / (1.0 / lo[pos] - 1.0 / hi[pos]))
            frac[~pos] = (hi[~pos] - lam) / (hi[~pos] - lo[~pos])
            volume += h * float(np.sum(frac))
        if v.size == 1:
            return (h if v[0] > lam else 0.0), bool(v[0] > lam)
        volume += 0.5 * h * (float(above_a[0]) + float(above_b[-1]))
        return volume, bool(above_a[0] or above_b[-1])
    above = v > lam
    volume = float(np.count_nonzero(above)) * h * h
    return volume, bool(above[0, :].any() or above[-1, :].any()
                        or above[:, 0].any() or above[:, -1].any())


def _field(values, h, extents):
    grid = UniformGrid((0.0,) * len(extents), h, extents)
    return MaximalField(grid, np.asarray(values, dtype=float),
                        RadiusGrid.geometric(h, 2.0 * h, 8))


@st.composite
def fields_and_levels(draw):
    """A 1D field (single nodes included) or a 2D one (1 x n included) whose
    values repeat a few levels and hold zeros, or a constant field; and
    increasing levels, some of them equal to node values."""
    if draw(st.booleans()):
        extents = (draw(st.integers(1, 40)),)
    else:
        extents = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    n = math.prod(extents)
    palette = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4))
    values = draw(st.lists(
        st.one_of(st.just(0.0), st.sampled_from(palette),
                  st.floats(0.0, 1e3, allow_subnormal=False)),
        min_size=n, max_size=n))
    if draw(st.booleans()):
        values = [values[0]] * n
    on_nodes = sorted({x for x in values if x > 0}) or [1.0]
    levels = draw(st.lists(st.one_of(st.sampled_from(on_nodes),
                                     st.floats(1e-3, 2e3)),
                           min_size=1, max_size=30))
    field = _field(values, draw(st.floats(1e-3, 1.0)), extents)
    return field, np.unique(levels)


@st.composite
def crossed_levels(draw):
    """A 1D zigzag whose k = 7, 8 or 9 cells all cross the levels in (1, 2),
    padded at both ends by cells crossing fewer levels above 3: both sides
    of the short-run split of `_crossing_sums` in one field."""
    k = draw(st.sampled_from([7, 8, 9]))
    low = st.one_of(st.just(0.0),
                    st.floats(0.0, 1.0, allow_subnormal=False))
    zigzag = [draw(st.floats(2.0, 3.0)) if i % 2 else draw(low)
              for i in range(k + 1)]
    pad = st.lists(st.floats(3.0, 6.0), max_size=3)
    values = draw(pad) + zigzag + draw(pad)
    levels = draw(st.lists(st.floats(1.0, 2.0, exclude_min=True,
                                     exclude_max=True),
                           min_size=1, max_size=20))
    levels += draw(st.lists(st.floats(1e-3, 7.0), max_size=10))
    field = _field(values, draw(st.floats(1e-3, 1.0)), (len(values),))
    return field, np.unique(levels)


def _as_bits(volumes):
    return np.asarray(volumes, dtype=float).view(np.uint64)


class TestSuperlevelVolumes:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(fields_and_levels(), crossed_levels()),
           st.sampled_from([(None, None), (3, 5), (1, 1)]))
    def test_matches_the_level_loop_bit_for_bit(self, case, blocks):
        field, lam = case
        cell_block, pair_block = blocks
        with mock.patch.object(level_sets, "_CELL_BLOCK",
                               cell_block or level_sets._CELL_BLOCK), \
                mock.patch.object(level_sets, "_PAIR_BLOCK",
                                  pair_block or level_sets._PAIR_BLOCK):
            volumes, flags = level_sets._superlevel_volumes(field, lam)
        want = [_superlevel_loop(field, level) for level in lam]
        assert np.array_equal(_as_bits(volumes),
                              _as_bits([w[0] for w in want]))
        assert flags.tolist() == [w[1] for w in want]
        one = superlevel_volume(field, float(lam[-1]))
        assert _as_bits([one[0]]) == _as_bits([want[-1][0]])
        assert one[1] is want[-1][1]

    def test_short_sums_add_left_to_right(self):
        # the short-run table relies on np.sum adding fewer than 8 terms
        # left to right from zero, as the last column of a cumsum does
        rng = np.random.default_rng(16)
        width = level_sets._SHORT_RUN - 1
        for n in range(1, level_sets._SHORT_RUN):
            terms = rng.random((2000, n)) * 10.0 ** rng.uniform(-8, 8,
                                                                (2000, n))
            table = np.zeros((2000, width))
            table[:, :n] = terms
            want = np.array([np.sum(row) for row in terms])
            assert np.array_equal(_as_bits(np.cumsum(table, axis=1)[:, -1]),
                                  _as_bits(want)), n

    def test_alternating_field_spans_several_level_blocks(self):
        # most of the 20,000 cells cross all 97 levels: about 1.9 million
        # crossing pairs, expanded a level block at a time
        values = np.where(np.arange(20_001) % 2, 0.0, 500.0)
        values[::7] = 3.0
        field = _field(values, 1e-3, (values.size,))
        lg = LambdaGrid.geometric(1.0, 100.0, 48)
        curve = distribution_curve(field, lg)
        want = [_superlevel_loop(field, level) for level in lg.lambdas]
        assert np.array_equal(_as_bits(curve.volumes),
                              _as_bits([w[0] for w in want]))
        assert list(curve.flags) == [w[1] for w in want]


class TestDistributionCurve:
    def test_products(self):
        c = synthetic_curve((1.0, 2.0, 4.0), (1.0, 0.5, 0.25))
        np.testing.assert_allclose(c.products, [1.0, 1.0, 1.0])
        assert len(c.lambdas) == 3

    def test_rejects_increasing_volumes(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            synthetic_curve((1.0, 2.0), (0.5, 1.0))

    def test_rejects_negative_volume(self):
        with pytest.raises(ValueError, match="negative"):
            synthetic_curve((1.0, 2.0), (1.0, -0.1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_volume(self, bad):
        with pytest.raises(ValueError, match="finite"):
            synthetic_curve((1.0, 2.0), (bad, 0.5))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatched"):
            DistributionCurve(lambdas=(1.0, 2.0), volumes=(1.0,),
                              flags=(False, False))

    def test_truncation_guard(self):
        # every node closer to the atom than r_min gets flagged
        mu = unit_atom(0.0)
        grid = UniformGrid.cover_cells([-0.01], [0.01], 1e-3)
        fld = maximal_field(mu, grid, RadiusGrid.geometric(0.05, 1.0, 8), "M")
        assert fld.flagged_fraction == 1.0
        with pytest.raises(TruncationError):
            distribution_curve(fld, LambdaGrid.geometric(0.1, 10.0))


class TestTailVerdict:
    def test_persists(self):
        lam = np.geomspace(1.0, 100.0, 60)
        v = tail_verdict(synthetic_curve(lam, 1.0 / lam), threshold=0.05)
        assert v.classification == PERSISTS
        assert v.tail_min == pytest.approx(1.0)
        assert v.tail_last == pytest.approx(1.0)
        assert v.monotone

    def test_decays(self):
        lam = np.geomspace(1.0, 100.0, 60)
        v = tail_verdict(synthetic_curve(lam, 1e-6 / lam), threshold=0.01)
        assert v.classification == DECAYS
        assert v.tail_max < 0.01

    def test_straddle_is_inconclusive(self):
        lam = np.geomspace(1.0, 10.0, 40)
        v = tail_verdict(synthetic_curve(lam, 0.5 / lam ** 2), threshold=0.1)
        assert v.classification == INCONCLUSIVE
        assert v.reason == "tail straddles threshold"
        assert v.monotone

    def test_boundary_flag_is_inconclusive(self):
        lam = np.geomspace(1.0, 100.0, 60)
        flags = [False] * 59 + [True]
        v = tail_verdict(synthetic_curve(lam, 1.0 / lam, flags),
                         threshold=0.05)
        assert v.classification == INCONCLUSIVE
        assert "boundary" in v.reason

    def test_flag_below_decade_is_ignored(self):
        lam = np.geomspace(1.0, 100.0, 61)
        flags = [True] + [False] * 60
        v = tail_verdict(synthetic_curve(lam, 1.0 / lam, flags),
                         threshold=0.05)
        assert v.classification == PERSISTS

    def test_callers_reason_wins_over_a_boundary_flag(self):
        lam = np.geomspace(1.0, 100.0, 60)
        flags = [False] * 59 + [True]
        v = tail_verdict(synthetic_curve(lam, 1.0 / lam, flags),
                         threshold=0.05, unresolved="grid sees a constant")
        assert v.classification == INCONCLUSIVE
        assert v.reason == "grid sees a constant"
        assert v.tail_min == pytest.approx(1.0)

    def test_needs_a_full_decade(self):
        lam = np.geomspace(1.0, 5.0, 20)
        with pytest.raises(ValueError, match="decade"):
            tail_verdict(synthetic_curve(lam, 1.0 / lam), threshold=0.05)

    def test_stat_order_validated(self):
        with pytest.raises(ValueError, match="out of order"):
            TailVerdict(PERSISTS, tail_min=1.0, tail_max=2.0, tail_last=5.0,
                        monotone=True, threshold=0.1)


def _former_decay_rule(tail, threshold):
    """decay_sweep's own classification before it called classify_tail,
    kept verbatim as the reference."""
    liminf_est = float(tail.min())
    limsup_est = float(tail.max())
    if limsup_est < threshold:
        verdict = DECAYS
    elif liminf_est > threshold:
        verdict = PERSISTS
    else:
        verdict = INCONCLUSIVE
    return verdict


@st.composite
def tails_and_thresholds(draw):
    """A nonnegative tail of 2-8 samples and a threshold, some samples
    equal to it."""
    sample = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
    threshold = draw(sample)
    tail = draw(st.lists(st.one_of(sample, st.just(threshold)),
                         min_size=2, max_size=8))
    return np.asarray(tail), threshold


class TestClassifyTail:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tails_and_thresholds())
    def test_matches_the_former_decay_rule(self, case):
        tail, threshold = case
        v = classify_tail(tail, threshold)
        assert v.classification == _former_decay_rule(tail, threshold)
        assert (v.tail_min, v.tail_max, v.tail_last) == (
            tail.min(), tail.max(), tail[-1])
        assert v.threshold == threshold
        assert (v.reason == "") == (v.classification != INCONCLUSIVE)


class TestWeak11Constant:
    def test_atom_normalization(self):
        fld = atom_field(h=2e-3, half_width=1.0, per_decade=48)
        curve = distribution_curve(fld, LambdaGrid.geometric(1.0, 100.0, 24))
        assert weak11_constant(curve, 1.0) == pytest.approx(1.0, rel=1e-6)

    def test_rejects_zero_mass(self):
        c = synthetic_curve((1.0, 2.0), (1.0, 0.5))
        with pytest.raises(ValueError):
            weak11_constant(c, 0.0)


class TestEvaluationWindow:
    def test_margin_inverts_the_mass_bound(self):
        box = evaluation_window(unit_atom(0.0), lam_min=0.1)
        assert box.lo[0] == pytest.approx(-5.25)
        assert box.hi[0] == pytest.approx(5.25)

    def test_2d_margin(self):
        box = evaluation_window(unit_atom([0.0, 0.0], dimension=2),
                                lam_min=0.1)
        want = 1.05 * math.sqrt(1.0 / (math.pi * 0.1))
        assert box.hi[0] == pytest.approx(want)

    def test_zero_measure_default_box(self):
        assert evaluation_window(Measure(1), 1.0) == Box((-1.0,), (1.0,))

    def test_validation(self):
        with pytest.raises(ValueError):
            evaluation_window(unit_atom(0.0), 0.0)


class TestGridBudget:
    def test_level_floor(self):
        floor = level_sets._level_floor
        tiny = math.ulp(0.0)
        assert floor(100.0, 2.0) == 100.0 / 10.0 ** 2.0
        assert floor(100.0, 308.5) == floor(100.0, 400.0) == tiny
        assert floor(1e-20, 307.0) == tiny


class TestDistributionExperiment:
    def test_atom_persists_with_unit_products(self):
        res = distribution_experiment(unit_atom(0.0), "M", h=2e-3)
        assert res.verdict.classification == PERSISTS
        assert res.verdict.tail_last == pytest.approx(1.0, rel=1e-3)
        assert weak11_constant(res.curve, 1.0) == pytest.approx(1.0, rel=1e-3)

    def test_uniform_density_decays(self):
        grid = UniformGrid.cover_cells([0.0], [1.0], 2e-3)
        chi = Measure(1, density=(grid, np.ones(grid.extents[0])))
        res = distribution_experiment(chi, "M", h=2e-3)
        # M of a unit-height density never exceeds 1, so the top decade
        # (levels up to 100) carries empty superlevel sets
        assert res.verdict.classification == DECAYS
        assert res.verdict.tail_max == 0.0

    def test_zero_measure_short_circuits(self):
        res = distribution_experiment(Measure(1))
        assert res.verdict.classification == DECAYS

    def test_lam_max_override(self):
        res = distribution_experiment(unit_atom(0.0), "M", h=5e-3,
                                      lam_max=50.0, radii_per_decade=32)
        assert res.curve.lambdas[-1] == pytest.approx(50.0)
        assert res.curve.lambdas[0] == pytest.approx(0.5)

    def test_stopped_variant_requires_small_radii(self):
        res = distribution_experiment(unit_atom(0.0), "Mtau", tau=0.05,
                                      h=5e-3, radii_per_decade=32)
        # radii stop at tau, so {Mtau > lam} is empty below 1/(2 tau) = 10
        # and the default two-decade tail still ends at lam_max = 100
        assert res.verdict.classification == INCONCLUSIVE or \
            res.verdict.tail_last == pytest.approx(1.0, rel=1e-3)


class TestSobolevExperiment:
    def test_tent_decays(self):
        f = BVFunction1D(breakpoints=(-1.0, 0.0, 1.0), slopes=(1.0, -1.0),
                         compact_support=True)
        res = sobolev_experiment(f, h=2e-3)
        assert res.verdict.classification == DECAYS
        assert max(res.field.values) < 0.56

    def test_step_persists(self):
        f = BVFunction1D(jumps=((0.0, 1.0), (1.0, -1.0)),
                         compact_support=True)
        res = sobolev_experiment(f, h=2e-3)
        assert res.verdict.classification == PERSISTS
        assert res.verdict.tail_min >= 0.5

    def test_constant_function_decays(self):
        res = sobolev_experiment(BVFunction1D(initial_value=3.0), h=5e-3)
        assert res.verdict.classification == DECAYS
        assert res.verdict.tail_max == 0.0

    @pytest.mark.parametrize("h", [2.0, 10.0])
    def test_step_between_samples_is_inconclusive(self, h):
        # every node misses [0, 1), so the sampled step is 0 and A = 0
        f = BVFunction1D(jumps=((0.0, 1.0), (1.0, -1.0)),
                         compact_support=True)
        res = sobolev_experiment(f, h=h)
        assert not np.any(res.field.values)
        assert res.verdict.classification == INCONCLUSIVE
        assert res.verdict.reason == (f"no grid sample at h={h:g} differs "
                                      "from the left-tail value of f")


class TestReverseWeak11:
    @staticmethod
    def chi_function(h=1e-3, pad=1.0):
        grid = UniformGrid.cover_cells([-pad], [1.0 + pad], h)
        xs = grid.axis(0)
        vals = ((xs > 0.0) & (xs < 1.0)).astype(float)
        return GridFunction(grid, vals)

    def test_indicator_at_half(self):
        res = reverse_weak11_check(self.chi_function(), t=0.5)
        assert res.rhs == pytest.approx(1.0, rel=2e-3)
        assert res.lhs == pytest.approx(0.5, rel=2e-2)
        assert res.holds

    def test_validation(self):
        f = self.chi_function(h=0.01)
        with pytest.raises(ValueError):
            reverse_weak11_check(f, t=0.0)
        bad = GridFunction(f.grid, np.full_like(np.asarray(f.values), -1.0))
        with pytest.raises(ValueError, match="nonnegative"):
            reverse_weak11_check(bad, t=0.5)

    def test_zero_density(self):
        grid = UniformGrid.cover_cells([0.0], [1.0], 0.1)
        f = GridFunction(grid, np.zeros(grid.extents[0]))
        res = reverse_weak11_check(f, t=1.0)
        assert res.holds and res.rhs == 0.0


class TestSemigroup:
    def test_atom_cases_hold(self):
        mu = unit_atom(0.0)
        for x, r, eps in [(0.3, 0.2, 0.1), (0.0, 0.5, 0.5), (1.0, 0.3, 0.05)]:
            res = semigroup_check(mu, [x], r, eps)
            assert res.holds
            assert res.avg <= res.bound * (1.0 + 1e-6) + 1e-12

    def test_2d_case_holds(self):
        mu = unit_atom([0.2, -0.1], dimension=2)
        res = semigroup_check(mu, [0.0, 0.0], 0.4, 0.2)
        assert res.holds and res.nodes > 100

    def test_validation(self):
        with pytest.raises(ValueError):
            semigroup_check(unit_atom(0.0), [0.0], 0.0, 0.1)
        with pytest.raises(ValueError):
            semigroup_check(unit_atom(0.0), [0.0], 0.1, -1.0)
