"""Unit and property tests for rectangles and their partition discipline."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, Rect, enclosing_rect, square, square_at_center

coords = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw):
    x = draw(coords)
    y = draw(coords)
    w = draw(st.floats(0.1, 100.0))
    h = draw(st.floats(0.1, 100.0))
    return Rect(x, y, x + w, y + h)


@st.composite
def rect_and_inner_point(draw):
    r = draw(rects())
    fx = draw(st.floats(0.0, 1.0))
    fy = draw(st.floats(0.0, 1.0))
    p = Point(r.xmin + fx * r.width, r.ymin + fy * r.height)
    return r, p


class TestConstruction:
    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            Rect(0, 0, -1, 1)

    def test_square_constructors(self):
        s1 = square(Point(0, 0), 4.0)
        s2 = square_at_center(Point(2, 2), 4.0)
        assert s1 == s2
        assert s1.is_square()

    def test_measurements(self):
        r = Rect(0, 0, 3, 4)
        assert r.width == 3 and r.height == 4
        assert r.area == 12
        assert r.perimeter == 14
        assert r.diagonal == pytest.approx(5.0)
        assert r.center == Point(1.5, 2.0)

    def test_corners_ccw(self):
        r = Rect(0, 0, 1, 2)
        assert r.corners() == (
            Point(0, 0), Point(1, 0), Point(1, 2), Point(0, 2)
        )

    def test_enclosing_rect(self):
        r = enclosing_rect([Point(1, 1), Point(-1, 3)], margin=0.5)
        assert r == Rect(-1.5, 0.5, 1.5, 3.5)

    def test_enclosing_rect_empty_raises(self):
        with pytest.raises(ValueError):
            enclosing_rect([])


class TestMembership:
    def test_closed_includes_boundary(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains(Point(1, 1))
        assert r.contains(Point(0, 0.5))
        assert not r.contains(Point(1.1, 0.5))

    def test_half_open_excludes_max_edges(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains_half_open(Point(0, 0))
        assert not r.contains_half_open(Point(1, 0.5))
        assert not r.contains_half_open(Point(0.5, 1))

    def test_strictly_inside(self):
        r = Rect(0, 0, 10, 10)
        assert r.strictly_inside(Point(5, 5), margin=1.0)
        assert not r.strictly_inside(Point(0.5, 5), margin=1.0)


class TestQuadrants:
    def test_quadrants_tile_parent(self):
        r = Rect(0, 0, 4, 4)
        quads = r.quadrants()
        assert sum(q.area for q in quads) == pytest.approx(r.area)
        assert quads[0].upper_right == r.center

    @given(rect_and_inner_point())
    def test_every_point_owned_by_exactly_one_quadrant(self, rp):
        r, p = rp
        quads = r.quadrants()
        index = r.quadrant_index(p)
        # Owned quadrant contains the point (closed membership).
        assert quads[index].contains(p, tol=1e-9)
        # Ownership is a function: recomputing gives the same quadrant.
        assert r.quadrant_index(p) == index

    def test_center_owned_by_quadrant_two(self):
        r = Rect(0, 0, 4, 4)
        assert r.quadrant_index(r.center) == 2

    def test_outside_point_raises(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 1).quadrant_index(Point(5, 5))


class TestGeometryOps:
    def test_clamp(self):
        r = Rect(0, 0, 2, 2)
        assert r.clamp(Point(5, 1)) == Point(2, 1)
        assert r.clamp(Point(1, 1)) == Point(1, 1)

    def test_boundary_projection_interior(self):
        r = Rect(0, 0, 10, 10)
        assert r.boundary_projection(Point(1, 5)) == Point(0, 5)
        assert r.boundary_projection(Point(5, 9)) == Point(5, 10)

    def test_boundary_projection_exterior_is_clamp(self):
        r = Rect(0, 0, 2, 2)
        assert r.boundary_projection(Point(5, 1)) == Point(2, 1)

    def test_distance_to_point(self):
        r = Rect(0, 0, 2, 2)
        assert r.distance_to_point(Point(5, 2)) == pytest.approx(3.0)
        assert r.distance_to_point(Point(1, 1)) == 0.0

    def test_expanded_shrink(self):
        r = Rect(0, 0, 10, 10).expanded(-2)
        assert r == Rect(2, 2, 8, 8)

    def test_intersection(self):
        a, b = Rect(0, 0, 2, 2), Rect(1, 1, 3, 3)
        assert a.intersection(b) == Rect(1, 1, 2, 2)
        assert a.intersection(Rect(5, 5, 6, 6)) is None

    def test_split_rows_covers_height(self):
        r = Rect(0, 0, 3, 9)
        strips = r.split_rows(3)
        assert len(strips) == 3
        assert strips[0].ymin == 0 and strips[-1].ymax == 9
        assert all(s.height == pytest.approx(3.0) for s in strips)

    def test_split_rows_invalid(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 1).split_rows(0)
