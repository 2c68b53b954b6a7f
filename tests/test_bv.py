"""Exact-calculus tests for piecewise-affine BV functions."""

import numpy as np
import pytest

from maxchar.bv import (
    BVFunction1D,
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
        assert f.mean_ball(0.0, 1.0) == pytest.approx(0.5)
        # inner ball: 2 * int_0^0.5 (1 - x) dx = 0.75, mean over width 1
        assert f.mean_ball(0.0, 0.5) == pytest.approx(0.75)

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
        assert res.consistency_ok
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
