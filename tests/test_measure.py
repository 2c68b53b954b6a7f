import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxchar import measure
from maxchar.geometry import (
    Box,
    UniformGrid,
    point_segment_distance,
    segment_ball_chords_at,
)
from maxchar.measure import GridFunction, Measure, unit_atom


def box_density(lo, hi, cells, value=1.0):
    grid = UniformGrid.cover_cells([lo], [hi], (hi - lo) / cells)
    return Measure(1, density=(grid, np.full(cells, value)))


class TestAtoms:
    def test_totals(self):
        mu = Measure(1, atoms=(((0.0,), 2.0), ((1.0,), -0.5)))
        assert mu.total_variation() == 2.5
        assert mu.total_mass() == 1.5
        assert Measure(1).total_variation() == 0

    def test_open_ball_convention(self):
        mu = unit_atom(1.0)
        # the atom sits exactly on the boundary of B(0, 1)
        assert mu.ball_mass(0.0, 1.0) == 0.0
        assert mu.ball_mass(0.0, 1.0, closed=True) == 1.0
        assert mu.ball_mass(0.0, 1.0 + 1e-12) == 1.0

    def test_signed_vs_absolute(self):
        mu = Measure(1, atoms=(((-1.0,), 1.0), ((1.0,), -1.0)))
        assert mu.ball_mass(0.0, 2.0) == 0.0
        assert mu.ball_mass(0.0, 2.0, absolute=True) == 2.0

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError):
            Measure(1, atoms=(((0.0,), 1.0), ((0.0,), 2.0)))

    def test_zero_weight_atoms_dropped(self):
        mu = Measure(1, atoms=(((0.0,), 0.0), ((1.0,), 1.0)))
        assert len(mu.atoms) == 1

    def test_2d_ball_queries(self):
        mu = Measure(2, atoms=(((0.0, 0.0), 1.0), ((3.0, 4.0), 2.0)))
        assert mu.ball_mass((0.0, 0.0), 5.0) == 1.0  # second atom on boundary
        assert mu.ball_mass((0.0, 0.0), 5.0, closed=True) == 3.0


class TestDensity:
    def test_interval_clipping_is_exact(self):
        mu = box_density(0.0, 1.0, 1000)
        assert mu.total_variation() == pytest.approx(1.0)
        assert mu.ball_mass(0.5, 0.25) == pytest.approx(0.5)
        # ball sticking out on the left only collects the overlap
        assert mu.ball_mass(0.0, 0.5) == pytest.approx(0.5)

    def test_signed_density(self):
        grid = UniformGrid.cover_cells([0.0], [1.0], 0.25)
        mu = Measure(1, density=(grid, np.array([1.0, -1.0, 1.0, -1.0])))
        assert mu.total_mass() == pytest.approx(0.0)
        assert mu.total_variation() == pytest.approx(1.0)
        assert mu.ball_mass(0.5, 0.5, absolute=True) == pytest.approx(1.0)

    def test_sharp_edges_detected(self):
        mu = box_density(0.0, 1.0, 10)
        edges = mu.density_sharp_edges()
        assert 0.0 in edges.tolist() and 1.0 in edges.tolist()
        assert len(edges) == 2

    def test_2d_disk_mass_converges(self):
        grid = UniformGrid.cover_cells([-1.0, -1.0], [1.0, 1.0], 2.0 / 256)
        mu = Measure(2, density=(grid, np.ones((256, 256))))
        # center-in-ball rule approximates the disk area
        assert mu.ball_mass((0.0, 0.0), 0.5) == pytest.approx(
            math.pi * 0.25, rel=0.02)
        assert mu.ball_mass((0.0, 0.0), 3.0) == pytest.approx(4.0, rel=1e-12)


class TestCurves:
    def test_chord_mass(self):
        seg = np.array([[-1.0, 0.0], [1.0, 0.0]])
        mu = Measure(2, curves=((seg, 1.5),))
        assert mu.total_variation() == pytest.approx(3.0)
        assert mu.ball_mass((0.0, 0.0), 0.5) == pytest.approx(1.5)

    def test_curves_rejected_in_1d(self):
        with pytest.raises(ValueError):
            Measure(1, curves=((np.array([[0.0, 0.0], [1.0, 0.0]]), 1.0),))

    def test_degenerate_segments_are_named(self):
        with pytest.raises(ValueError, match="zero-length segment"):
            Measure(2, curves=((np.array([[0.5, 0.5], [0.5, 0.5]]), 1.0),))
        # a positive length whose square is 0: no chord can be measured
        with pytest.raises(ValueError,
                           match="segment whose squared length underflows"):
            Measure(2, curves=((np.array([[0.0, 0.0], [1e-170, 0.0]]),
                                1.0),))
        # a subnormal square still measures; its length is the norm's
        seg = np.array([[0.0, 0.0], [1e-160, 0.0]])
        mu = Measure(2, curves=((seg, 1.0),))
        assert mu.total_variation() == np.linalg.norm(seg[1] - seg[0])

    def test_singular_mass_ball(self):
        seg = np.array([[-1.0, 0.0], [1.0, 0.0]])
        mu = Measure(2, curves=((seg, 1.0),))
        assert mu.singular_mass_ball((0.0, 0.0), 0.25) == pytest.approx(0.5)


def _subset_cases():
    rng = np.random.default_rng(11)
    grid1 = UniformGrid((-1.3,), 1 / 7, (17,))
    grid2 = UniformGrid((-0.9, -0.4), 0.13, (11, 9))
    return [
        ("atoms-1d", Measure(1, atoms=tuple(
            ((float(x),), float(w)) for x, w in
            zip(rng.uniform(-2, 2, 6), rng.uniform(-2, 2, 6))))),
        ("atoms-2d", Measure(2, atoms=tuple(
            (tuple(p), float(w)) for p, w in
            zip(rng.uniform(-2, 2, (40, 2)), rng.uniform(-2, 2, 40))))),
        ("density-1d", Measure(1, density=(grid1, rng.uniform(-1, 2, 17)))),
        ("density-2d", Measure(2, density=(grid2,
                                           rng.uniform(-1, 2, (11, 9))))),
        ("curves", Measure(2, curves=(
            (rng.uniform(-1.5, 1.5, (4, 2)), 0.7),
            (rng.uniform(-1.5, 1.5, (2, 2)), -1.9)))),
    ]


class TestBallMassesSubset:
    """A point's ball mass must not depend on the other points queried with
    it: the pruned maximal sweep queries only some nodes per radius."""

    @pytest.mark.parametrize("name,mu", _subset_cases(),
                             ids=[n for n, _ in _subset_cases()])
    def test_subset_equals_full_rows(self, name, mu):
        rng = np.random.default_rng(5)
        d = mu.dimension
        points = rng.uniform(-2.5, 2.5, (257, d))
        for radii in (0.31, 1.7, rng.uniform(0.05, 3.0, len(points))):
            for absolute in (False, True):
                for closed in (False, True):
                    full = mu.ball_masses(points, radii, absolute, closed)
                    for size in (1, 7, 100):
                        idx = np.sort(rng.choice(len(points), size, False))
                        r = radii if np.isscalar(radii) else radii[idx]
                        sub = mu.ball_masses(points[idx], r, absolute,
                                             closed)
                        assert np.array_equal(sub, full[idx])

    def test_rows_keep_the_full_atom_product(self):
        # the 2D atom term is summed row by row: a BLAS product mask @ w
        # would round a row by the rows around it, differently at row
        # counts off a multiple of 4, which reach the kernel's tail rows
        rng = np.random.default_rng(8)
        atoms = tuple((tuple(p), float(w)) for p, w in
                      zip(rng.uniform(-1, 1, (40, 2)), rng.uniform(-2, 2, 40)))
        mixed = Measure(2, atoms=atoms, density=(
            UniformGrid((-0.5, -0.5), 0.1, (8, 8)), rng.uniform(0, 1, (8, 8))))
        points = rng.uniform(-2, 2, (300, 2))
        for mu in (Measure(2, atoms=atoms), mixed):
            for closed in (False, True):
                full = mu.ball_masses(points, 0.8, closed=closed)
                for size in (1, 2, 3, 7, 31) * 4:
                    idx = np.sort(rng.choice(len(points), size, False))
                    assert np.array_equal(
                        mu.ball_masses(points[idx], 0.8, closed=closed),
                        full[idx])


def _disk_row_loop(mu, points, radii, absolute, closed):
    """The 2D center-in-ball density mass as a plain loop over cell rows,
    vectorized over the points: the reference for the run kernel."""
    cum = mu._drow_cum_abs if absolute else mu._drow_cum_signed
    c0, c1 = mu._c0, mu._c1
    p0, p1 = points[:, 0], points[:, 1]
    r2 = radii**2
    out = np.zeros(len(points))
    up_side, lo_side = ("right", "left") if closed else ("left", "right")
    for i in range(len(c0)):
        dx2 = (c0[i] - p0) ** 2
        act = dx2 < r2
        if not np.any(act):
            continue
        half = np.sqrt(r2[act] - dx2[act])
        hi = np.searchsorted(c1, p1[act] + half, side=up_side)
        lo = np.searchsorted(c1, p1[act] - half, side=lo_side)
        out[act] += cum[i][hi] - cum[i][lo]
    return out


@st.composite
def disc_queries(draw):
    """A signed 2D density with zero rims on a non-dyadic grid, and
    unsorted query points that share x coordinates, some of them at a
    cell-centre distance from a cell."""
    extents = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    grid = UniformGrid((draw(st.integers(-200, 200)) / 101,
                        draw(st.integers(-200, 200)) / 101),
                       1.0 / draw(st.integers(3, 37)), extents)
    values = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.7, -1.3, 2.0, 0.25]),
        min_size=extents[0] * extents[1],
        max_size=extents[0] * extents[1]))).reshape(extents)
    values[[0, -1], :] = 0.0
    values[:, [0, -1]] = 0.0
    mu = Measure(2, density=(grid, values))
    c0, c1 = mu._c0, mu._c1
    lo = np.array(grid.cell_box().lo) - 0.5
    hi = np.array(grid.cell_box().hi) + 0.5
    # a few x values, each shared by several points, some on cell centres
    xs = np.array(draw(st.lists(
        st.one_of(st.sampled_from(c0), st.floats(lo[0], hi[0])),
        min_size=1, max_size=5)))
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = np.column_stack([rng.choice(xs, n), rng.uniform(lo[1], hi[1], n)])
    if draw(st.booleans()):
        points[:, 1] = rng.choice(c1, n)
    scale = float(np.max(hi - lo))
    kind = draw(st.sampled_from(["scalar", "per-point", "per-x", "centre"]))
    if kind == "scalar":
        radii = np.full(n, rng.uniform(0.01, scale))
    elif kind == "per-point":
        radii = rng.uniform(0.01, scale, n)
    elif kind == "per-x":
        # equal x with a few different radii, repeated
        radii = rng.choice(rng.uniform(0.01, scale, 3), n)
    else:
        # the distance to a cell centre, along x or along y
        i, j = rng.integers(len(c0), size=n), rng.integers(len(c1), size=n)
        along_x = rng.random(n) < 0.5
        points[~along_x, 0] = c0[i[~along_x]]
        radii = np.where(along_x, np.abs(c0[i] - points[:, 0]),
                         np.abs(c1[j] - points[:, 1]))
        radii[radii == 0.0] = grid.spacing
    return mu, points, radii


class TestDiskDensityRuns:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(disc_queries())
    def test_matches_row_loop_bit_for_bit(self, query):
        mu, points, radii = query
        for absolute in (False, True):
            for closed in (False, True):
                got = mu._disk_density_mass(points, radii, absolute, closed)
                want = _disk_row_loop(mu, points, radii, absolute, closed)
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64))


@st.composite
def atom_distance_queries(draw):
    """A 2D atomic measure at a scale from 1e-150 to 1e150, with random
    points and points on or one ulp from an atom."""
    scale = 10.0 ** draw(st.integers(-150, 150))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    apos = rng.uniform(-1, 1, (k, 2)) * scale
    mu = Measure(2, atoms=tuple((tuple(p), 1.0) for p in apos))
    up = np.nextafter(apos, np.inf)
    down = np.nextafter(apos, -np.inf)
    points = np.vstack([rng.uniform(-2, 2, (8, 2)) * scale, apos, up,
                        np.column_stack([up[:, 0], apos[:, 1]]),
                        np.column_stack([apos[:, 0], down[:, 1]])])
    return mu, points


class TestSupportAndSingular:
    def test_support_box_pads_density_cells(self):
        mu = box_density(0.0, 1.0, 10)
        sb = mu.support_box()
        assert sb.lo[0] == pytest.approx(0.0)
        assert sb.hi[0] == pytest.approx(1.0)

    def test_support_box_none_for_zero(self):
        assert Measure(1).support_box() is None

    def test_singular_support_distance(self):
        mu = Measure(1, atoms=(((0.0,), 1.0),))
        d = mu.singular_support_distance(np.array([[0.5], [-2.0]]))
        assert np.allclose(d, [0.5, 2.0])
        assert np.isinf(box_density(0.0, 1.0, 4).singular_support_distance(
            np.array([[0.0]]))[0])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(atom_distance_queries())
    def test_2d_atom_distances_are_the_norm_bit_for_bit(self, query):
        mu, points = query
        want = np.linalg.norm(points[:, None, :] - mu._apos[None, :, :],
                              axis=2)
        got = mu._atom_distances(points)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_atom_distances_of_no_atoms_are_empty(self):
        mu = Measure(2, density=(UniformGrid((0.0, 0.0), 0.5, (2, 2)),
                                 np.ones((2, 2))))
        assert mu._atom_distances(np.zeros((3, 2))).shape == (3, 0)
        assert np.all(np.isinf(mu.singular_support_distance(
            np.zeros((3, 2)))))

    @pytest.mark.parametrize("block", [1, 3, 7, 64])
    def test_row_blocks_do_not_change_bits(self, monkeypatch, block):
        rng = np.random.default_rng(6)
        seg = rng.uniform(-1, 1, (3, 2))
        cases = [
            (Measure(1, atoms=tuple(((float(x),), float(w)) for x, w in
                                    zip(rng.uniform(-2, 2, 5),
                                        rng.uniform(-2, 2, 5)))),
             rng.uniform(-3, 3, (301, 1))),
            (Measure(2, atoms=tuple((tuple(p), float(w)) for p, w in
                                    zip(rng.uniform(-1, 1, (9, 2)),
                                        rng.uniform(-2, 2, 9))),
                     curves=((seg, 0.5),)),
             rng.uniform(-2, 2, (301, 2))),
        ]
        radii = rng.uniform(0.05, 2.0, 301)

        def queries():
            out = []
            for mu, pts in cases:
                out.append(mu.singular_support_distance(pts))
                for absolute in (False, True):
                    for closed in (False, True):
                        out.append(mu.ball_masses(pts, radii, absolute,
                                                  closed))
            return out

        want = queries()
        monkeypatch.setattr(measure, "_EVENT_BLOCK", block)
        got = queries()
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def _parent_curve_loops(mu):
    """The curve walks as they were before the segment table: nested loops
    over mu.curves and their segments, on top of the curve-free part."""
    free = Measure(2, atoms=mu.atoms, density=mu.density)
    curves = [(pts, rho, np.linalg.norm(np.diff(pts, axis=0), axis=1))
              for pts, rho in mu.curves]

    def ball_masses(points, radii, absolute, closed):
        out = free.ball_masses(points, radii, absolute, closed)
        radii = np.broadcast_to(np.asarray(radii, dtype=float),
                                (len(points),))
        for pts, rho, _ in curves:
            w = abs(rho) if absolute else rho
            if w == 0.0:
                continue
            for s in range(len(pts) - 1):
                out += w * segment_ball_chords_at(pts[s], pts[s + 1],
                                                  points, radii)
        return out

    def singular_mass_ball(center, radius, closed):
        total = free.singular_mass_ball(center, radius, closed)
        c = np.asarray(center, dtype=float)
        for pts, rho, _ in curves:
            if rho == 0.0:
                continue
            for s in range(len(pts) - 1):
                total += abs(rho) * float(
                    segment_ball_chords_at(pts[s], pts[s + 1], c[None, :],
                                           np.array([radius]))[0])
        return total

    def singular_support_distance(points):
        best = free.singular_support_distance(points)
        for pts, rho, _ in curves:
            if rho == 0.0:
                continue
            for s in range(len(pts) - 1):
                best = np.minimum(
                    best, point_segment_distance(points, pts[s], pts[s + 1]))
        return best

    def support_box():
        box = free.support_box()
        los = [] if box is None else [np.array(box.lo)]
        his = [] if box is None else [np.array(box.hi)]
        for pts, rho, _ in curves:
            if rho != 0.0:
                los.append(pts.min(axis=0))
                his.append(pts.max(axis=0))
        if not los:
            return None
        return Box(tuple(np.min(np.vstack(los), axis=0)),
                   tuple(np.max(np.vstack(his), axis=0)))

    def totals():
        tv, m = free.total_variation(), free.total_mass()
        for _, rho, lens in curves:
            tv += float(np.sum(lens)) * abs(rho)
            m += rho * float(np.sum(lens))
        return tv, m

    return (ball_masses, singular_mass_ball, singular_support_distance,
            support_box, totals)


# non-dyadic coordinates on a lattice, so no segment's squared length
# underflows
_curve_coord = st.integers(-200, 200).map(lambda k: k / 97)


@st.composite
def curve_measures(draw):
    """A 2D measure of signed atoms, an optional signed density and 1-3
    polylines of up to 12 segments, some of density 0, with query points
    (some on curve vertices) and scalar or per-point radii."""
    locs = draw(st.lists(st.tuples(_curve_coord, _curve_coord), max_size=3,
                         unique=True))
    weights = st.sampled_from([0.4, -1.5, 2.0])
    atoms = tuple((loc, draw(weights)) for loc in locs)
    density = None
    if draw(st.booleans()):
        extents = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
        grid = UniformGrid((draw(st.integers(-200, 200)) / 101,
                            draw(st.integers(-200, 200)) / 101),
                           1.0 / draw(st.integers(3, 37)), extents)
        values = np.array(draw(st.lists(
            st.sampled_from([0.0, 0.7, -1.3]),
            min_size=extents[0] * extents[1],
            max_size=extents[0] * extents[1]))).reshape(extents)
        density = (grid, values)
    curves = tuple(
        (np.array(pts), draw(st.sampled_from([0.0, 1.0, -0.35, 2.5])))
        for pts in draw(st.lists(
            st.lists(st.tuples(_curve_coord, _curve_coord), min_size=2,
                     max_size=13, unique=True),
            min_size=1, max_size=3)))
    mu = Measure(2, atoms=atoms, density=density, curves=curves)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 30))
    points = rng.uniform(-2.5, 2.5, (n, 2))
    vertices = np.vstack([pts for pts, _ in mu.curves])
    on_vertex = rng.random(n) < 0.3
    points[on_vertex] = vertices[rng.integers(len(vertices),
                                              size=on_vertex.sum())]
    if draw(st.booleans()):
        radii = float(rng.uniform(0.01, 3.0))
    else:
        radii = rng.uniform(0.01, 3.0, n)
    return mu, points, radii


class TestCurveTable:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(curve_measures())
    def test_matches_nested_curve_loops_bit_for_bit(self, query):
        mu, points, radii = query
        (ball_masses, singular_mass_ball, singular_support_distance,
         support_box, totals) = _parent_curve_loops(mu)

        def same(got, want):
            got, want = np.asarray(got), np.asarray(want)
            return np.array_equal(got.view(np.int64), want.view(np.int64))

        for absolute in (False, True):
            for closed in (False, True):
                assert same(mu.ball_masses(points, radii, absolute, closed),
                            ball_masses(points, radii, absolute, closed))
        r = float(np.atleast_1d(radii)[0])
        for closed in (False, True):
            assert same(mu.singular_mass_ball(points[0], r, closed),
                        singular_mass_ball(points[0], r, closed))
        assert same(mu.singular_support_distance(points),
                    singular_support_distance(points))
        got, want = mu.support_box(), support_box()
        assert (got is None) == (want is None)
        if got is not None:
            assert same(got.lo + got.hi, want.lo + want.hi)
        assert same((mu.total_variation(), mu.total_mass()), totals())

    def test_zero_density_curves_carry_nothing(self):
        seg = np.array([[-1.0, 0.0], [1.0, 0.0]])
        mu = Measure(2, atoms=(((0.9, 0.9), 1.0),), curves=((seg, 0.0),))
        atom = Measure(2, atoms=(((0.9, 0.9), 1.0),))
        pts = np.array([[0.0, 0.0], [0.5, 0.1]])
        assert np.array_equal(mu.ball_masses(pts, 0.3), atom.ball_masses(
            pts, 0.3))
        assert mu.singular_mass_ball((0.0, 0.0), 1.0) == 0.0
        assert np.array_equal(mu.singular_support_distance(pts),
                              atom.singular_support_distance(pts))
        assert mu.support_box() == atom.support_box()
        assert mu.restricted_to_ball((0.0, 0.0), 2.0).curves == ()
        assert len(mu.curves) == 1


class TestAlgebra:
    def test_add_merges_and_cancels(self):
        a = unit_atom(0.0)
        b = Measure(1, atoms=(((0.0,), -1.0),)) + unit_atom(1.0)
        s = a + b
        assert len(s.atoms) == 1
        assert s.total_mass() == 1.0

    def test_mollified_density_normalization(self):
        mu = unit_atom(0.0)
        assert mu.mollified_density(0.0, 0.25) == pytest.approx(2.0)
        mu2 = Measure(2, atoms=(((0.0, 0.0), 1.0),))
        assert mu2.mollified_density((0.0, 0.0), 0.5) == pytest.approx(
            1.0 / (math.pi * 0.25))


class TestRestriction:
    def test_atoms_strictly_inside(self):
        mu = Measure(1, atoms=(((0.0,), 1.0), ((1.0,), 1.0)))
        res = mu.restricted_to_ball(0.0, 1.0)
        assert res.total_variation() == 1.0

    def test_density_center_in_rule(self):
        mu = box_density(-1.0, 1.0, 200)
        res = mu.restricted_to_ball(0.0, 0.5)
        assert res.total_variation() == pytest.approx(1.0, rel=0.02)

    def test_curve_clipping(self):
        seg = np.array([[-2.0, 0.0], [2.0, 0.0]])
        mu = Measure(2, curves=((seg, 1.0),))
        res = mu.restricted_to_ball((0.0, 0.0), 1.0)
        assert res.total_variation() == pytest.approx(2.0)


class TestGridFunction:
    def test_from_callable_and_density(self):
        grid = UniformGrid.cover_cells([0.0], [1.0], 0.25)
        f = GridFunction(grid, 2.0 * grid.axis(0))
        mu = f.as_density_measure()
        assert mu.total_mass() == pytest.approx(0.25 * float(np.sum(f.values)))

    def test_rejects_nan(self):
        grid = UniformGrid.cover_cells([0.0], [1.0], 0.5)
        with pytest.raises(ValueError):
            GridFunction(grid, np.array([1.0, float("nan")]))

