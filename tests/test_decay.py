"""Decay quantity Q(B; delta) and its sweep verdicts."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maxchar import decay
from maxchar.bv import BVFunction1D, derivative_measure
from maxchar.decay import (
    DEFAULT_DELTAS,
    DecayReport,
    TimeField,
    decay_quantity,
    decay_sweep,
    level_integral_slice,
)
from maxchar.errors import ResolutionError
from maxchar.geometry import UniformGrid
from maxchar.level_sets import DECAYS, INCONCLUSIVE, PERSISTS
from maxchar.measure import Measure, unit_atom

LN10 = math.log(10.0)


def sign_field():
    """Unit ball (0, 1) probing a mass-2 atom sitting on its boundary."""
    mu = Measure(1, atoms=(((0.0,), 2.0),))
    return TimeField.steady(mu, [0.5], 0.5)


def tent_field():
    f = BVFunction1D(breakpoints=(-1.0, 0.0, 1.0), slopes=(1.0, -1.0),
                     compact_support=True)
    return TimeField.steady(derivative_measure(f), [0.0], 1.0)


class TestTimeField:
    def test_validation(self):
        mu = unit_atom(0.0)
        with pytest.raises(ValueError):
            TimeField(times=(), slices=(), ball_center=[0.0], ball_radius=1.0)
        with pytest.raises(ValueError, match="increasing"):
            TimeField(times=(0.5, 0.5), slices=(mu, mu), ball_center=[0.0],
                      ball_radius=1.0)
        with pytest.raises(ValueError, match="per time"):
            TimeField(times=(0.5,), slices=(mu, mu), ball_center=[0.0],
                      ball_radius=1.0)
        with pytest.raises(ValueError, match="dimension"):
            TimeField(times=(0.5,), slices=(mu,), ball_center=[0.0, 0.0],
                      ball_radius=1.0)
        with pytest.raises(ValueError, match="radius"):
            TimeField(times=(0.5,), slices=(mu,), ball_center=[0.0],
                      ball_radius=0.0)
        with pytest.raises(ValueError, match="horizon"):
            TimeField(times=(1.5,), slices=(mu,), ball_center=[0.0],
                      ball_radius=1.0, horizon=1.0)

    def test_time_weights_partition_the_horizon(self):
        mu = unit_atom(0.0)
        tf = TimeField(times=(0.2, 0.4, 0.8), slices=(mu, mu, mu),
                       ball_center=[0.0], ball_radius=1.0, horizon=1.0)
        np.testing.assert_allclose(tf.time_weights(), [0.3, 0.3, 0.4])

    def test_steady_midpoint(self):
        tf = TimeField.steady(unit_atom(0.0), [0.0], 1.0)
        assert tf.times == (0.5,)
        assert tf.time_weights().sum() == pytest.approx(1.0)

    def test_boundary_atom_open_vs_closed(self):
        tf = sign_field()
        assert tf.singular_timeintegral(closed=False) == 0.0
        assert tf.singular_timeintegral(closed=True) == pytest.approx(2.0)
        assert tf.total_variation_timeintegral() == pytest.approx(2.0)


class TestDecayQuantity:
    def test_atom_closed_form(self):
        # M of the mass-2 atom is 1/|x| on (0, 1), so the clipped integral
        # is 1 + |log delta| and Q = 1 + 1/|log delta|
        for delta in (1e-2, 1e-3, 1e-4):
            q = decay_quantity(sign_field(), delta)
            assert q == pytest.approx(1.0 + 1.0 / abs(math.log(delta)),
                                      rel=3e-3)

    def test_bounded_density_scales_inversely_with_log(self):
        q1 = decay_quantity(tent_field(), 1e-1)
        q4 = decay_quantity(tent_field(), 1e-4)
        assert q1 / q4 == pytest.approx(4.0, rel=1e-2)

    def test_delta_range_validated(self):
        with pytest.raises(ValueError):
            decay_quantity(sign_field(), 0.9)
        with pytest.raises(ValueError):
            decay_quantity(sign_field(), 0.0)

    def test_2d_atom_closed_form(self):
        # with the atom at the ball center, the integral of the clipped
        # field over B(0, R) is 1 + log(pi R^2 / delta)
        tf = TimeField.steady(unit_atom([0.0, 0.0], dimension=2),
                              [0.0, 0.0], 0.2)
        delta = 1e-2
        q = decay_quantity(tf, delta, h=0.0025)
        want = (1.0 + math.log(math.pi * 0.04 / delta)) / abs(math.log(delta))
        assert q == pytest.approx(want, rel=2e-2)

    def test_2d_mesh_guard(self):
        tf = TimeField.steady(unit_atom([0.0, 0.0], dimension=2),
                              [0.0, 0.0], 1.0)
        with pytest.raises(ResolutionError, match="refine the mesh"):
            decay_quantity(tf, 1e-4)

    @pytest.mark.parametrize("a,b", [((-1.0, 0.0), (1.0, 0.0)),
                                     ((-1.02, 0.0), (0.98, 0.0))])
    def test_2d_mesh_guard_sees_a_curve_by_its_distance(self, a, b):
        # both segments cross B(0, 0.01); points 0.05 apart along the
        # shifted one lie 0.02 and 0.03 from the centre, beyond the guard's
        # reach of 0.010625, so only the exact distance sees it
        mu = Measure(2, curves=((np.array([a, b]), 1.0),))
        with pytest.raises(ResolutionError,
                           match="clipping radius 3.1831e-07 at delta=1e-06"):
            decay_sweep(TimeField.steady(mu, [0.0, 0.0], 0.01))

    def test_zero_density_curve_leaves_the_2d_report(self):
        grid = UniformGrid.cover_cells((-0.5, -0.5), (0.5, 0.5), 0.02)
        density = (grid, np.ones(grid.extents))
        curve = (np.array([[-1.0, 0.1], [1.0, 0.1]]), 0.0)
        alone = decay_sweep(TimeField.steady(
            Measure(2, density=density), [0.0, 0.0], 0.3))
        # a curve of density 0 has clipping radius 0 but carries nothing
        got = decay_sweep(TimeField.steady(
            Measure(2, density=density, curves=(curve,)), [0.0, 0.0], 0.3))
        assert got == alone


class TestDecaySweep:
    def test_atom_persists(self):
        rep = decay_sweep(sign_field())
        assert rep.verdict == PERSISTS
        assert rep.threshold == pytest.approx(0.4)
        assert rep.singular_mass_timeintegral == 0.0
        assert rep.singular_mass_timeintegral_closed == pytest.approx(2.0)
        assert rep.liminf_est > 1.0
        # sweep entries match the per-delta closed form
        for delta, q in zip(rep.deltas, rep.q_values):
            assert q == pytest.approx(1.0 + 1.0 / abs(math.log(delta)),
                                      rel=3e-3)

    def test_tent_vanishes(self):
        rep = decay_sweep(tent_field())
        assert rep.verdict == DECAYS
        assert rep.limsup_est < rep.threshold
        assert rep.q_values[0] / rep.q_values[3] == pytest.approx(4.0,
                                                                  rel=1e-2)

    def test_zero_field_short_circuits(self):
        tf = TimeField.steady(Measure(1), [0.0], 1.0)
        rep = decay_sweep(tf)
        assert rep.verdict == DECAYS
        assert rep.q_values == (0.0,) * len(DEFAULT_DELTAS)

    def test_time_dependent_mixture(self):
        # singular mass only on the first half of the horizon: integrals
        # and Q both halve, the verdict still clears the 0.2 * tv threshold
        mu = Measure(1, atoms=(((0.0,), 2.0),))
        tf = TimeField(times=(0.25, 0.75), slices=(mu, Measure(1)),
                       ball_center=[0.5], ball_radius=0.5)
        rep = decay_sweep(tf)
        assert rep.verdict == PERSISTS
        assert rep.singular_mass_timeintegral_closed == pytest.approx(1.0)
        assert rep.q_values[2] == pytest.approx(
            0.5 * (1.0 + 1.0 / (3.0 * LN10)), rel=3e-3)

    def test_report_validation(self):
        with pytest.raises(ValueError, match="decreasing"):
            DecayReport(deltas=(1e-2, 1e-1), q_values=(1.0, 1.0),
                        liminf_est=1.0, limsup_est=1.0, verdict=INCONCLUSIVE,
                        singular_mass_timeintegral=0.0,
                        singular_mass_timeintegral_closed=0.0, threshold=0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            DecayReport(deltas=(1e-1, 1e-2), q_values=(1.0, -1.0),
                        liminf_est=1.0, limsup_est=1.0, verdict=INCONCLUSIVE,
                        singular_mass_timeintegral=0.0,
                        singular_mass_timeintegral_closed=0.0, threshold=0.1)


class TestLevelIntegralSlice:
    def test_atom_log_integral(self):
        # field 1/|x| on (-1, 1): the lambda integral from delta^-1/2 to
        # 1/delta collapses to 3 ln 10 at delta = 1e-3
        mu = Measure(1, atoms=(((0.0,), 2.0),))
        out = level_integral_slice(mu, [0.0], 1.0, 1e-3)
        assert out == pytest.approx(3.0 * LN10, rel=5e-3)

    def test_margin_excludes_near_boundary_mass(self):
        # the atom sits inside the ball but outside the core shrunk by r/64
        mu = Measure(1, atoms=(((0.999,), 2.0),))
        out = level_integral_slice(mu, [0.0], 1.0, 1e-3)
        assert out == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            level_integral_slice(unit_atom([0.0, 0.0], dimension=2),
                                 [0.0, 0.0], 1.0, 1e-3)


class TestGradedEdges:
    @pytest.mark.parametrize("seed", range(6))
    def test_sorted_edges_keep_the_bits_of_unique(self, seed, monkeypatch):
        # the diff mask drops the exact duplicates that np.unique dropped:
        # atoms on background edges and ladders clipped at the ends
        rng = np.random.default_rng(seed)
        locs = np.concatenate([rng.uniform(-1.2, 1.2, 4),
                               np.linspace(-1.0, 1.0, 9)[
                                   rng.choice(9, 3, replace=False)]])
        mu = Measure(1, atoms=tuple(((float(x),), float(w)) for x, w in
                                    zip(locs, rng.uniform(0.1, 3.0,
                                                          len(locs)))))
        got = decay._graded_edges_1d(-1.0, 1.0, mu, 1e-3, 0.25)
        monkeypatch.setattr(decay.np, "sort", np.unique)
        want = decay._graded_edges_1d(-1.0, 1.0, mu, 1e-3, 0.25)
        assert np.array_equal(got, want)

    def test_decay_run_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on its first call, which a decay run
        # would pay for in time and memory
        spec = Path(__file__).resolve().parents[1] / "specs" \
            / "tent_field.json"
        code = ("import sys\n"
                "from maxchar.cli import main\n"
                f"assert main(['decay', '--input', {str(spec)!r}]) == 0\n"
                "assert 'numpy.ma' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
