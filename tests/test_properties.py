"""Property-based invariants across random measures and BV functions."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxchar import corpus
from maxchar.bv import BVFunction1D, derivative_measure
from maxchar.geometry import UniformGrid
from maxchar.level_sets import semigroup_check, superlevel_volume
from maxchar.maximal import RadiusGrid, maximal_field, maximal_values_at
from maxchar.measure import Measure
from maxchar.specio import load_bv, load_measure
from maxchar.verify import _POINCARE_PAIRS

RELAXED = settings(max_examples=40, deadline=None, derandomize=True)

coords = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                   allow_infinity=False)
weights = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False,
                    allow_infinity=False).filter(lambda w: abs(w) > 1e-6)


@st.composite
def atomic_measures(draw):
    locs = draw(st.lists(coords, min_size=1, max_size=5, unique=True))
    ws = draw(st.lists(weights, min_size=len(locs), max_size=len(locs)))
    return Measure(1, atoms=tuple(((x,), w) for x, w in zip(locs, ws)))


@st.composite
def bv_functions(draw):
    nbp = draw(st.integers(min_value=0, max_value=4))
    bps = tuple(sorted(draw(st.lists(coords, min_size=nbp, max_size=nbp,
                                     unique=True))))
    slopes = tuple(draw(st.lists(
        st.floats(min_value=-3.0, max_value=3.0), min_size=max(0, nbp - 1),
        max_size=max(0, nbp - 1))))
    jlocs = draw(st.lists(coords, min_size=0, max_size=3, unique=True))
    jhs = draw(st.lists(weights, min_size=len(jlocs), max_size=len(jlocs)))
    init = draw(st.floats(min_value=-2.0, max_value=2.0))
    return BVFunction1D(breakpoints=bps, slopes=slopes,
                        jumps=tuple(zip(jlocs, jhs)), initial_value=init)


RG = RadiusGrid.geometric(1e-2, 20.0, 16)


class TestMeasureInvariants:
    @RELAXED
    @given(atomic_measures(), coords, st.floats(min_value=0.05, max_value=2.0),
           st.floats(min_value=1.0, max_value=4.0))
    def test_absolute_ball_mass_monotone_in_radius(self, mu, x, r, factor):
        small = mu.ball_mass(x, r, absolute=True)
        large = mu.ball_mass(x, r * factor, absolute=True)
        assert small <= large + 1e-12
        assert abs(mu.ball_mass(x, r)) <= small + 1e-12

    @RELAXED
    @given(atomic_measures(), atomic_measures())
    def test_algebra_totals(self, mu, nu):
        both = mu + nu
        assert both.total_mass() == pytest.approx(
            mu.total_mass() + nu.total_mass(), abs=1e-12)
        assert both.total_variation() <= \
            mu.total_variation() + nu.total_variation() + 1e-12

    @RELAXED
    @given(atomic_measures(), st.lists(coords, min_size=1, max_size=4))
    def test_variant_domination(self, mu, xs):
        pts = np.asarray(xs).reshape(-1, 1)
        m, _ = maximal_values_at(mu, pts, RG, "M")
        mbar, _ = maximal_values_at(mu, pts, RG, "Mbar")
        mtau_small, _ = maximal_values_at(mu, pts, RG, "Mtau", tau=0.3)
        mtau_large, _ = maximal_values_at(mu, pts, RG, "Mtau", tau=3.0)
        slack = 1e-12 * (1.0 + np.abs(m))
        assert np.all(mbar <= m + slack)
        assert np.all(mtau_small <= mtau_large + slack)
        assert np.all(mtau_large <= m + slack)

    @RELAXED
    @given(atomic_measures(), st.lists(coords, min_size=1, max_size=4))
    def test_radius_refinement_monotone(self, mu, xs):
        pts = np.asarray(xs).reshape(-1, 1)
        coarse, _ = maximal_values_at(mu, pts, RG, "M")
        # RG plus a three times denser geometric grid over the same range
        fine_radii = np.geomspace(RG.r_min, RG.r_max, 3 * (RG.count - 1) + 1)
        fine_rg = RadiusGrid(np.unique(np.concatenate([RG.radii, fine_radii])))
        fine, _ = maximal_values_at(mu, pts, fine_rg, "M")
        assert np.all(coarse <= fine + 1e-12 * (1.0 + np.abs(fine)))

    @RELAXED
    @given(atomic_measures(), st.floats(min_value=0.05, max_value=5.0),
           st.floats(min_value=1.5, max_value=20.0))
    def test_superlevel_volume_monotone_in_level(self, mu, lam, factor):
        grid = UniformGrid.cover_cells([-4.0], [4.0], 0.05)
        fld = maximal_field(mu.absolute(), grid, RG, "M")
        lo, _ = superlevel_volume(fld, lam)
        hi, _ = superlevel_volume(fld, lam * factor)
        assert hi <= lo + 1e-12

    @RELAXED
    @given(atomic_measures(), coords,
           st.floats(min_value=0.05, max_value=1.0),
           st.floats(min_value=0.05, max_value=1.0))
    def test_semigroup_bound(self, mu, x, r, eps):
        res = semigroup_check(mu.absolute(), [x], r, eps)
        assert res.holds


class TestBVInvariants:
    @RELAXED
    @given(bv_functions(), coords, coords, coords)
    def test_tv_open_superadditive(self, f, a, b, c):
        a, b, c = sorted((a, b, c))
        whole = f.tv_open(a, c)
        parts = f.tv_open(a, b) + f.tv_open(b, c)
        assert parts <= whole + 1e-12 * (1.0 + whole)
        assert whole <= f.total_variation() + 1e-12

    @RELAXED
    @given(bv_functions(), coords, coords)
    def test_total_variation_bounds_increments(self, f, a, b):
        inc = abs(f.value(b) - f.value(a))
        assert inc <= f.total_variation() + 1e-9 * (1.0 + inc)

    @RELAXED
    @given(bv_functions())
    def test_derivative_mass_telescopes(self, f):
        lo, hi = f.support_span()
        mu = derivative_measure(f)
        want = f.value(hi + 1.0) - f.value(lo - 1.0)
        assert mu.total_mass() == pytest.approx(want, abs=1e-9)

    @RELAXED
    @given(bv_functions(), coords, st.floats(min_value=0.1, max_value=2.0))
    def test_mean_value_between_extremes(self, f, x, r):
        xs = np.linspace(x - r, x + r, 257)
        vals = f.value(xs)
        m = f.integral(x - r, x + r) / (2 * r)
        assert vals.min() - 1e-9 <= m <= vals.max() + 1e-9


_BV_CORPUS = corpus.bv_corpus()


class TestPenaltyIdentities:
    """On an open interval (a, b), with eta the sign of Df, the rising and
    falling parts of |Df| are (TV + D) / 2 and (TV - D) / 2, where
    TV = |Df|((a, b)) and D = Df((a, b)) = f(b-) - f(a+).  The directional
    penalty P(nu) = int (1 - nu eta) d|Df| and the any-vector penalty
    A(v) = 2 int |eta - v| d|Df| are fixed by them."""

    @pytest.mark.parametrize("f", [f for _, f in _BV_CORPUS],
                             ids=[name for name, _ in _BV_CORPUS])
    @pytest.mark.parametrize("c2", [1.0, 2.0])
    def test_penalties_split_the_variation(self, f, c2):
        x, r = np.array(_POINCARE_PAIRS).T
        a, b = x - c2 * r, x + c2 * r
        tv = f.tv_open(a, b)
        # f is right-continuous: f(a+) = f(a), f(b-) = f(b) less a jump at b
        at_b = np.array([sum(h for loc, h in f.jumps if loc == e) for e in b])
        d = f.value(b) - at_b - f.value(a)
        tol = 1e-12 * (1.0 + tv)
        plus = f.penalty_integral(a, b, 1.0)
        minus = f.penalty_integral(a, b, -1.0)
        assert np.all(np.abs(plus + minus - 2.0 * tv) <= tol)
        assert np.all(np.abs(minus - plus - 2.0 * d) <= tol)
        for v in (0.0, 0.5, -0.7, 1.0, 2.0, -3.0):
            want = abs(1.0 - v) * (tv + d) + abs(1.0 + v) * (tv - d)
            assert np.all(np.abs(f.any_vector_penalty(a, b, v) - want)
                          <= tol * (1.0 + abs(v)))


class TestSpecRoundTrip:
    @RELAXED
    @given(atomic_measures())
    def test_measure_round_trip(self, mu):
        payload = {"dimension": 1,
                   "atoms": [{"location": p[0], "weight": w}
                             for p, w in mu.atoms]}
        fd, path = tempfile.mkstemp(suffix=".json")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh)
            back = load_measure(path)
        finally:
            os.unlink(path)
        assert sorted(back.atoms) == sorted(mu.atoms)
        assert back.total_variation() == mu.total_variation()

    @RELAXED
    @given(bv_functions(), st.lists(coords, min_size=1, max_size=5))
    def test_bv_round_trip(self, f, xs):
        payload = {"breakpoints": list(f.breakpoints),
                   "slopes": list(f.slopes),
                   "jumps": [list(j) for j in f.jumps],
                   "initial_value": f.initial_value}
        fd, path = tempfile.mkstemp(suffix=".json")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh)
            back = load_bv(path)
        finally:
            os.unlink(path)
        pts = np.asarray(xs)
        np.testing.assert_array_equal(back.value(pts), f.value(pts))
        assert back.total_variation() == f.total_variation()

