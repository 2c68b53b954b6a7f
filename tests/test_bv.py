"""Exact-calculus tests for piecewise-affine BV functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxchar.bv import (
    BVFunction1D,
    ReversePoincareResult,
    any_vector_penalty_check,
    derivative_measure,
    ramp_plateau_counterexample,
    reverse_poincare_check,
)


def tent():
    return BVFunction1D(breakpoints=(-1.0, 0.0, 1.0), slopes=(1.0, -1.0),
                        compact_support=True)


def step():
    # indicator of [0, 1), right-continuous
    return BVFunction1D(jumps=((0.0, 1.0), (1.0, -1.0)), compact_support=True)


def ramp():
    # f(x) = clamp(x, -1, 1)
    return BVFunction1D(breakpoints=(-1.0, 1.0), slopes=(1.0,),
                        initial_value=-1.0)


class TestConstruction:
    def test_slope_count_mismatch(self):
        with pytest.raises(ValueError, match="one slope per"):
            BVFunction1D(breakpoints=(0.0, 1.0), slopes=(1.0, 2.0))

    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            BVFunction1D(breakpoints=(0.0, 0.0, 1.0), slopes=(1.0, 1.0))

    def test_duplicate_jump_locations(self):
        with pytest.raises(ValueError, match="distinct"):
            BVFunction1D(jumps=((0.0, 1.0), (0.0, 2.0)))

    def test_compact_support_requires_zero_tails(self):
        with pytest.raises(ValueError, match="zero tails"):
            BVFunction1D(breakpoints=(0.0, 1.0), slopes=(1.0,),
                         compact_support=True)

    def test_slopes_without_breakpoints(self):
        with pytest.raises(ValueError, match="slopes without"):
            BVFunction1D(slopes=(1.0,))

    def test_jumps_are_sorted_on_construction(self):
        f = BVFunction1D(jumps=((1.0, -1.0), (0.0, 1.0)),
                         compact_support=True)
        assert f.jumps == ((0.0, 1.0), (1.0, -1.0))


class TestEvaluation:
    def test_tent_values(self):
        f = tent()
        for x, want in [(-1.0, 0.0), (-0.25, 0.75), (0.0, 1.0),
                        (0.5, 0.5), (1.0, 0.0), (3.0, 0.0), (-3.0, 0.0)]:
            assert f.value(x) == pytest.approx(want, abs=1e-15)

    def test_step_is_right_continuous(self):
        f = step()
        assert f.value(0.0) == 1.0
        assert f.value(-1e-12) == 0.0
        assert f.value(0.5) == 1.0
        assert f.value(1.0) == 0.0

    def test_vectorized_value(self):
        f = ramp()
        xs = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(f.value(xs),
                                   [-1.0, -0.5, 0.0, 0.5, 1.0], atol=1e-15)

    def test_support_span(self):
        assert tent().support_span() == (-1.0, 1.0)
        assert step().support_span() == (0.0, 1.0)
        assert BVFunction1D(initial_value=2.0).support_span() == (0.0, 0.0)


class TestVariation:
    def test_totals(self):
        assert tent().total_variation() == pytest.approx(2.0)
        assert step().total_variation() == pytest.approx(2.0)
        assert step().jump_variation() == pytest.approx(2.0)
        assert tent().jump_variation() == 0.0

    def test_tv_open_excludes_endpoint_jumps(self):
        f = step()
        assert f.tv_open(0.0, 1.0) == 0.0
        assert f.tv_open(-0.5, 0.5) == pytest.approx(1.0)
        assert f.tv_open(-1.0, 2.0) == pytest.approx(2.0)

    def test_tv_open_clips_slope_intervals(self):
        f = tent()
        assert f.tv_open(-0.5, 0.5) == pytest.approx(1.0)
        assert f.tv_open(0.25, 0.75) == pytest.approx(0.5)
        assert f.tv_open(1.0, 0.0) == 0.0


class TestIntegrals:
    def test_tent_integral_and_mean(self):
        f = tent()
        assert f.integral(-1.0, 1.0) == pytest.approx(1.0)
        # the mean over B(x, r) is integral(x - r, x + r) / (2 r)
        assert f.integral(-1.0, 1.0) / 2.0 == pytest.approx(0.5)
        # inner ball: 2 * int_0^0.5 (1 - x) dx = 0.75, mean over width 1
        assert f.integral(-0.5, 0.5) / (2 * 0.5) == pytest.approx(0.75)

    def test_abs_deviation_with_sign_crossing(self):
        # int |x| over (-1, 1) forces the crossing split inside one segment
        assert ramp().l1_norm(-1.0, 1.0) == pytest.approx(1.0)
        assert tent().abs_deviation_integral(-1.0, 1.0, 0.5) == \
            pytest.approx(0.5)

    def test_integral_splits_at_jumps(self):
        f = step()
        assert f.integral(-1.0, 2.0) == pytest.approx(1.0)
        assert f.integral(0.25, 0.75) == pytest.approx(0.5)
        assert f.l1_norm(-1.0, 2.0) == pytest.approx(1.0)


class TestPenalties:
    def test_directional_penalty_on_monotone_ramp(self):
        f = ramp()
        # derivative sign is +1 throughout, so nu = +1 cancels the penalty
        assert f.penalty_integral(-1.0, 1.0, 1.0) == pytest.approx(0.0)
        assert f.penalty_integral(-1.0, 1.0, -1.0) == pytest.approx(4.0)

    def test_penalty_requires_unit_direction(self):
        with pytest.raises(ValueError, match="unit"):
            ramp().penalty_integral(-1.0, 1.0, 0.5)

    def test_any_vector_penalty_at_zero_gives_twice_tv(self):
        assert tent().any_vector_penalty(-1.0, 1.0, 0.0) == pytest.approx(4.0)
        assert step().any_vector_penalty(-0.5, 1.5, 0.0) == pytest.approx(4.0)

    def test_any_vector_matches_directional_for_mixed_signs(self):
        # tent has both derivative signs: v = 1 leaves 2*|(-1)-1|*1 = 4
        assert tent().any_vector_penalty(-1.0, 1.0, 1.0) == pytest.approx(4.0)


class TestRampPlateau:
    def test_exact_profile(self):
        f = ramp_plateau_counterexample(4)
        assert f.value(-1.0) == pytest.approx(-1.0)
        assert f.value(-0.75) == pytest.approx(0.0, abs=1e-15)
        assert f.value(0.0) == pytest.approx(0.0, abs=1e-15)
        assert f.value(0.875) == pytest.approx(0.5)
        assert f.value(1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
    def test_exact_invariants(self, n):
        f = ramp_plateau_counterexample(n)
        assert f.integral(-1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert f.l1_norm(-1.0, 1.0) == pytest.approx(1.0 / n)
        assert f.total_variation() == pytest.approx(2.0)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            ramp_plateau_counterexample(0)

    @pytest.mark.parametrize("n,want", [(1, True), (2, False), (16, False)])
    def test_matched_balls_fail_for_large_n(self, n, want):
        res = reverse_poincare_check(ramp_plateau_counterexample(n),
                                     0.0, 1.0, nu=1.0, c1=0.5, c2=1.0)
        assert res.holds is want
        assert res.rhs == pytest.approx(2.0)
        assert res.oscillation_term == pytest.approx(1.0 / n)
        assert res.penalty_term == pytest.approx(0.0, abs=1e-12)

    def test_enlarged_ball_restores_the_bound(self):
        res = reverse_poincare_check(ramp_plateau_counterexample(16),
                                     0.0, 1.0, nu=1.0, c1=1.0, c2=2.0)
        assert res.holds
        assert res.lhs == pytest.approx(2.0 + 1.0 / 16.0)


class TestChecks:
    def test_reverse_poincare_validates_arguments(self):
        with pytest.raises(ValueError):
            reverse_poincare_check(tent(), 0.0, -1.0, 1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            reverse_poincare_check(tent(), 0.0, 1.0, 1.0, 0.5, 0.5)

    def test_any_vector_check_consistency(self):
        res = any_vector_penalty_check(tent(), 0.0, 1.0, v=0.3,
                                       c1=0.5, c2=1.0)
        assert res.holds
        res0 = any_vector_penalty_check(tent(), 0.0, 1.0, v=0.0,
                                        c1=0.5, c2=1.0)
        assert res0.penalty_term == pytest.approx(4.0)


class TestDerivative:
    def test_jump_part_becomes_atoms(self):
        mu = derivative_measure(step())
        assert mu.density is None
        assert mu.atoms == (((0.0,), 1.0), ((1.0,), -1.0))
        assert mu.total_variation() == pytest.approx(2.0)
        assert mu.total_mass() == pytest.approx(0.0)

    def test_tent_derivative_mass_and_variation(self):
        mu = derivative_measure(tent())
        assert not mu.atoms
        assert mu.total_variation() == pytest.approx(2.0, rel=1e-12)
        assert mu.total_mass() == pytest.approx(0.0, abs=1e-12)
        # signed mass over half-lines recovers the slopes
        assert mu.ball_mass([-0.5], 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_atoms_are_jumps_and_cells_are_increments(self):
        f = BVFunction1D(breakpoints=(-1.0, -0.3, 0.4, 1.0),
                         slopes=(2.0, -1.0, 0.5),
                         jumps=((0.1, 0.7), (-0.6, -0.25)),
                         initial_value=-1.0)
        mu = derivative_measure(f)
        assert mu.atoms == (((-0.6,), -0.25), ((0.1,), 0.7))
        grid, values = mu.density
        h = grid.spacing
        edges = grid.origin[0] - 0.5 * h + h * np.arange(grid.extents[0] + 1)
        # f is right-continuous: a cell (a, b] gains the jumps inside it
        jumps = np.array([sum(j for x, j in f.jumps if x <= e)
                          for e in edges])
        np.testing.assert_allclose(values * h,
                                   np.diff(f.value(edges) - jumps),
                                   rtol=0, atol=1e-12)


# ----------------------------------------------------------------------
# The scalar calculus as first written, one interval at a time through a
# generator of pieces, kept verbatim as the reference bits for the batched
# piece table.

_EPS = 1e-12


def _segments_reference(f, a, b):
    if b <= a:
        return
    cuts = [a, b]
    cuts.extend(t for t in f._bp if a < t < b)
    cuts.extend(t for t in f._jloc if a < t < b)
    cuts = sorted(set(cuts))
    for x0, x1 in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (x0 + x1)
        k = np.searchsorted(f._bp, mid) - 1
        slope = float(f._sl[k]) if 0 <= k < len(f._sl) else 0.0
        yield x0, x1, float(f.value(mid)), slope


def _integral_reference(f, a, b):
    return math.fsum((x1 - x0) * fm
                     for x0, x1, fm, _ in _segments_reference(f, a, b))


def _abs_deviation_reference(f, a, b, m):
    total = 0.0
    for x0, x1, fm, s in _segments_reference(f, a, b):
        half = 0.5 * (x1 - x0)
        g0 = fm - m - s * half
        g1 = fm - m + s * half
        if g0 * g1 < 0:
            t = abs(g0) / (abs(g0) + abs(g1))
            total += 0.5 * (x1 - x0) * (abs(g0) * t + abs(g1) * (1 - t))
        else:
            total += 0.5 * (abs(g0) + abs(g1)) * (x1 - x0)
    return float(total)


def _variation_reference(f, a, b, weight):
    if b <= a:
        return 0.0
    total = 0.0
    if f._bp.size:
        lo = np.maximum(f._bp[:-1], a)
        hi = np.minimum(f._bp[1:], b)
        lens = np.maximum(0.0, hi - lo)
        total += float(np.sum(weight(np.sign(f._sl)) * np.abs(f._sl) * lens))
    jh = f._jh[(f._jloc > a) & (f._jloc < b)]
    total += float(np.sum(weight(np.sign(jh)) * np.abs(jh)))
    return total


def _tv_open_reference(f, a, b):
    return _variation_reference(f, a, b, lambda eta: 1.0)


def _penalty_reference(f, a, b, nu):
    return _variation_reference(f, a, b, lambda eta: 1.0 - nu * eta)


def _any_vector_penalty_reference(f, a, b, v):
    return 2.0 * _variation_reference(f, a, b, lambda eta: np.abs(eta - v))


def _penalized_bound_reference(f, x, r, c1, c2, penalty):
    R = c2 * r
    m = _integral_reference(f, x - R, x + R) / (2.0 * R)
    osc = _abs_deviation_reference(f, x - R, x + R, m) / r
    pen = penalty(x - R, x + R)
    lhs = osc + pen
    rhs = _tv_open_reference(f, x - r, x + r)
    holds = lhs >= c1 * rhs - _EPS * (1.0 + abs(lhs) + abs(rhs))
    return lhs, rhs, holds, osc, pen


def _reverse_poincare_reference(f, x, r, nu, c1, c2):
    return _penalized_bound_reference(
        f, x, r, c1, c2, lambda a, b: _penalty_reference(f, a, b, nu))


def _any_vector_reference(f, x, r, v, c1, c2):
    sides = _penalized_bound_reference(
        f, x, r, c1, c2,
        lambda a, b: _any_vector_penalty_reference(f, a, b, v))
    consistency = True
    if v != 0.0:
        R = c2 * r
        unit = v / abs(v)
        etas = [math.copysign(1.0, s) for s in f._sl if s != 0.0]
        etas += [math.copysign(1.0, h) for loc, h in
                 zip(f._jloc, f._jh) if x - R < loc < x + R]
        consistency = all(2 * abs(e - v) >= 1 - unit * e - _EPS
                          for e in etas)
    return (*sides, consistency)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def assert_same_fields(got, want):
    """Field by field: each array entry has the reference's bits, and a
    scalar field is a Python float or bool."""
    for g, w in zip(got, want):
        if np.ndim(g) == 0:
            assert type(g) is (bool if isinstance(w, (bool, np.bool_))
                               else float)
        assert np.array_equal(_bits(g), _bits(w))


_spot = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False,
                  allow_infinity=False)


@st.composite
def rough_functions(draw):
    """Up to 24 slope intervals and 24 jumps in [-2, 2], often none."""
    nbp = draw(st.sampled_from([0, 1, 2, 5, 9, 25]))
    bps = sorted(draw(st.lists(_spot, min_size=nbp, max_size=nbp,
                               unique=True)))
    slopes = draw(st.lists(st.floats(min_value=-3.0, max_value=3.0),
                           min_size=max(0, nbp - 1), max_size=max(0, nbp - 1)))
    njump = draw(st.sampled_from([0, 1, 3, 8, 9, 24]))
    jlocs = draw(st.lists(st.one_of(_spot, st.sampled_from(bps or [0.0])),
                          min_size=njump, max_size=njump, unique=True))
    jhs = draw(st.lists(st.floats(min_value=-2.0, max_value=2.0),
                        min_size=njump, max_size=njump))
    return BVFunction1D(breakpoints=tuple(bps), slopes=tuple(slopes),
                        jumps=tuple(zip(jlocs, jhs)),
                        initial_value=draw(st.floats(-2.0, 2.0)))


def _ends(f):
    """Interval ends: arbitrary, or exactly on a breakpoint or a jump."""
    features = list(f._bp) + list(f._jloc)
    return st.one_of(_spot, st.sampled_from(features)) if features else _spot


@st.composite
def batches(draw):
    """A function and 1 to 6 intervals (a, b), b <= a allowed, with a
    per-interval parameter; also the function's whole span."""
    f = draw(rough_functions())
    n = draw(st.integers(1, 6))
    a = draw(st.lists(_ends(f), min_size=n, max_size=n))
    b = draw(st.lists(_ends(f), min_size=n, max_size=n))
    lo, hi = f.support_span()
    a.append(lo - 0.5)
    b.append(hi + 0.5)
    p = draw(st.lists(_spot, min_size=n + 1, max_size=n + 1))
    return f, np.array(a), np.array(b), np.array(p)


class TestBatchedCalculusKeepsTheBits:
    """The batched piece table gives, interval by interval, the bits of the
    scalar calculus: for array arguments, scalar ones, and the two mixed."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(batches())
    def test_integrals_and_variations(self, batch):
        f, a, b, p = batch
        nu = np.where(p < 0, -1.0, 1.0)
        pairs = [
            (f.integral, _integral_reference, (a, b)),
            (f.abs_deviation_integral, _abs_deviation_reference, (a, b, p)),
            (f.tv_open, _tv_open_reference, (a, b)),
            (f.penalty_integral, _penalty_reference, (a, b, nu)),
            (f.any_vector_penalty, _any_vector_penalty_reference, (a, b, p)),
        ]
        for batched, reference, args in pairs:
            want = [reference(f, *row) for row in zip(*args)]
            assert_same_fields([batched(*args)], [np.array(want)])
            assert_same_fields([batched(*(x[0] for x in args))], want[:1])
            # a scalar last argument broadcasts against the arrays
            mixed = [reference(f, *row, args[-1][0])
                     for row in zip(*args[:-1])]
            assert_same_fields([batched(*args[:-1], args[-1][0])],
                               [np.array(mixed)])
        r = np.abs(b) + 0.1
        assert_same_fields([f.integral(a - r, a + r) / (2.0 * r)],
                           [np.array([_integral_reference(
                               f, x - ri, x + ri) / (2.0 * ri)
                               for x, ri in zip(a, r)])])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(batches(), st.sampled_from([1.0, 1.5, 2.0]),
           st.sampled_from([1e-3, 0.5, 1.0]))
    def test_penalized_checks(self, batch, c2, c1):
        f, x, b, v = batch
        r = np.abs(b - x) + 0.01
        nu = np.where(v < 0, -1.0, 1.0)
        v = np.where(np.arange(v.size) % 3 == 0, 0.0, v)
        # both checks return the five fields of ReversePoincareResult; the
        # any-vector reference adds the pointwise domination flag, which
        # the checks no longer carry
        for batched, reference, p in (
                (reverse_poincare_check, _reverse_poincare_reference, nu),
                (any_vector_penalty_check, _any_vector_reference, v)):
            want = [reference(f, *row, c1, c2)[:5] for row in zip(x, r, p)]
            got = batched(f, x, r, p, c1, c2)
            assert type(got) is ReversePoincareResult
            assert_same_fields(got, [np.array(w) for w in zip(*want)])
            assert_same_fields(batched(f, x[0], r[0], p[0], c1, c2), want[0])
            mixed = batched(f, x[0], r, p[0], c1, c2)
            assert_same_fields(mixed, [np.array(w) for w in zip(*(
                reference(f, x[0], ri, p[0], c1, c2)[:5] for ri in r))])

    @pytest.mark.parametrize("n", [7, 8, 9, 100, 300, 1000])
    def test_many_jumps_in_one_ball(self, n):
        # np.sum pairs terms once a row has 8 or more; each batched row
        # must still add as the 1D sum of the same terms does
        rng = np.random.default_rng(n)
        f = BVFunction1D(breakpoints=tuple(np.linspace(-1.0, 1.0, n + 1)),
                         slopes=tuple(rng.normal(size=n)),
                         jumps=tuple(zip(rng.uniform(-1.0, 1.0, n),
                                         rng.normal(size=n))))
        x = np.array([0.0, 0.3, -0.2, 5.0])
        r = np.array([1.2, 0.5, 0.9, 0.1])
        for batched, reference, p in (
                (reverse_poincare_check, _reverse_poincare_reference,
                 np.array([1.0, -1.0, 1.0, -1.0])),
                (any_vector_penalty_check, _any_vector_reference,
                 np.array([0.0, 0.5, -0.7, 2.0]))):
            want = [reference(f, *row, 1e-3, 2.0)[:5]
                    for row in zip(x, r, p)]
            assert_same_fields(batched(f, x, r, p, 1e-3, 2.0),
                               [np.array(w) for w in zip(*want)])

    def test_array_shapes_come_back(self):
        f = tent()
        a = np.array([[-1.0, -0.5], [0.0, 0.5]])
        assert f.integral(a, 1.0).shape == (2, 2)
        res = reverse_poincare_check(f, a, 0.5, 1.0, 0.5, 1.0)
        assert res.lhs.shape == res.holds.shape == (2, 2)
        assert res.holds.dtype == bool
