import math
import re

import numpy as np
import pytest

from maxchar import geometry
from maxchar.errors import BudgetError, ResolutionError
from maxchar.geometry import (GRID_NODE_BUDGET, Box, UniformGrid, as_point,
                              ball_volume, point_segment_distance,
                              segment_ball_chords_at)


def test_ball_volume_closed_forms():
    assert ball_volume(1, 3.0) == 6.0
    assert ball_volume(2, 1.0) == pytest.approx(math.pi)
    assert ball_volume(2, 2.0) == pytest.approx(4.0 * math.pi)


def test_as_point_coercion_and_validation():
    assert as_point(1.5, 1) == (1.5,)
    assert as_point((1.0, 2.0), 2) == (1.0, 2.0)
    with pytest.raises(ValueError):
        as_point((1.0,), 2)
    with pytest.raises(ValueError):
        as_point(float("nan"), 1)


class TestBox:
    def test_contains_box(self):
        outer = Box((0.0,), (10.0,))
        assert outer.contains_box(Box((1.0,), (9.0,)))
        assert outer.contains_box(outer)
        assert not outer.contains_box(Box((-1.0,), (5.0,)))

    def test_diameter(self):
        assert Box((0.0, 0.0), (3.0, 4.0)).diameter() == 5.0

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            Box((1.0,), (0.0,))


class TestUniformGrid:
    def test_axis_and_points_1d(self):
        g = UniformGrid((0.0,), 0.5, (5,))
        assert np.allclose(g.axis(0), [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.points().shape == (5, 1)
        assert g.node_count == 5
        assert g.cell_volume == 0.5

    def test_points_2d_row_major(self):
        g = UniformGrid((0.0, 0.0), 1.0, (2, 3))
        pts = g.points()
        assert pts.shape == (6, 2)
        # first axis varies slowest
        assert pts[0].tolist() == [0.0, 0.0]
        assert pts[2].tolist() == [0.0, 2.0]
        assert pts[3].tolist() == [1.0, 0.0]

    def test_cover_cells_centers(self):
        g = UniformGrid.cover_cells([0.0], [1.0], 0.25)
        assert g.extents == (4,)
        assert np.allclose(g.axis(0), [0.125, 0.375, 0.625, 0.875])
        cb = g.cell_box()
        assert cb.lo == (0.0,) and cb.hi == (1.0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformGrid((0.0,), -1.0, (4,))
        with pytest.raises(ValueError):
            UniformGrid((0.0,), 1.0, (0,))
        with pytest.raises(ValueError):
            UniformGrid((0.0, 0.0), 1.0, (4,))


def _never_built(monkeypatch):
    def built(self):
        raise AssertionError("grid built")

    monkeypatch.setattr(UniformGrid, "__post_init__", built)


class TestCoverCellsGuard:
    @pytest.mark.parametrize("lo, hi, h", [
        ([-5.25], [5.25], 1e-3),
        ([0.0], [0.0004], 1e-3),
        ([-1.3, 0.2], [2.7, 0.2001], 0.025),
        ([-0.51, -0.49], [1.49, 1.51], 0.025),
    ])
    def test_counts_nodes_as_it_builds(self, monkeypatch, lo, hi, h):
        # the count the guard reads is the built grid's: a budget one node
        # smaller refuses the same spans
        nodes = UniformGrid.cover_cells(lo, hi, h).node_count
        monkeypatch.setattr(geometry, "GRID_NODE_BUDGET", nodes - 1)
        with pytest.raises(BudgetError, match=re.escape(
                f"about {nodes:.3g} nodes, over {nodes - 1}")):
            UniformGrid.cover_cells(lo, hi, h)

    def test_budget_edge(self):
        # a span of exactly GRID_NODE_BUDGET nodes builds; one more is refused
        edge = float(GRID_NODE_BUDGET)
        assert UniformGrid.cover_cells([0.0], [edge], 1.0).extents == \
            (GRID_NODE_BUDGET,)
        with pytest.raises(BudgetError, match=r"about 2\.1e\+06 nodes, "
                                              r"over 2097152$"):
            UniformGrid.cover_cells([0.0], [edge + 1.0], 1.0)

    def test_past_the_float_range(self, monkeypatch):
        _never_built(monkeypatch)
        for lo, hi, nodes in [([-1e300], [1e300], "2e+303"),
                              ([-1e300, -1e300], [1e300, 1e300], "inf"),
                              ([-math.inf], [math.inf], "inf")]:
            with pytest.raises(BudgetError,
                               match=re.escape(f"about {nodes} nodes")):
                UniformGrid.cover_cells(lo, hi, 1e-3)

    def test_refuses_a_window_over_the_budget(self, monkeypatch):
        _never_built(monkeypatch)
        with pytest.raises(BudgetError, match=r"^evaluation window "
                           r"\[-525000, 525000\] at h=0\.001 holds about "
                           r"1\.05e\+09 nodes, over 2097152$"):
            UniformGrid.cover_cells([-525000.0], [525000.0], 1e-3)

    def test_refuses_spans_floats_cannot_resolve(self, monkeypatch):
        _never_built(monkeypatch)
        with pytest.raises(ResolutionError, match=r"^evaluation window "
                           r"\[1e\+15, 1e\+15\] cannot resolve h=0\.001: "
                           r"floats there are 0\.125 apart$"):
            UniformGrid.cover_cells([1e15], [1e15 + 1.0], 1e-3)


def chord(a, b, center, r):
    """Chord of segment [a, b] in one ball."""
    return segment_ball_chords_at(a, b, np.asarray(center)[None, :],
                                  np.array([r]))[0]


class TestSegmentGeometry:
    def test_full_and_partial_chords(self):
        a = np.array([-1.0, 0.0])
        b = np.array([1.0, 0.0])
        c = np.array([0.0, 0.0])
        assert chord(a, b, c, 2.0) == pytest.approx(2.0)
        assert chord(a, b, c, 0.5) == pytest.approx(1.0)

    def test_offset_chord_closed_form(self):
        # horizontal segment against a ball centered 0.8 above it
        a = np.array([-2.0, 0.0])
        b = np.array([2.0, 0.0])
        c = np.array([0.0, 0.8])
        expected = 2.0 * math.sqrt(1.0 - 0.64)
        assert chord(a, b, c, 1.0) == pytest.approx(expected)

    def test_disjoint_is_zero(self):
        a = np.array([-1.0, 0.0])
        b = np.array([1.0, 0.0])
        assert chord(a, b, np.array([0.0, 2.0]), 1.0) == 0.0

    def test_many_centers_matches_single(self):
        a = np.array([-1.0, -0.5])
        b = np.array([1.5, 1.0])
        centers = np.array([[0.0, 0.0], [1.0, 1.0], [-2.0, 0.0]])
        radii = np.array([0.7, 1.1, 0.4])
        multi = segment_ball_chords_at(a, b, centers, radii)
        for i in range(3):
            assert multi[i] == chord(a, b, centers[i], radii[i])

    def test_point_segment_distance(self):
        a = np.array([0.0, 0.0])
        b = np.array([1.0, 0.0])
        pts = np.array([[0.5, 1.0], [-1.0, 0.0], [2.0, 0.0]])
        d = point_segment_distance(pts, a, b)
        assert np.allclose(d, [1.0, 1.0, 1.0])
