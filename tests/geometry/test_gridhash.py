"""GridHash correctness: queries must match brute force exactly."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import GridHash, Point, distance

coords = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
point_lists = st.lists(st.tuples(coords, coords), min_size=0, max_size=60)


class TestBasics:
    def test_insert_remove_roundtrip(self):
        g = GridHash(1.0)
        g.insert("a", Point(0.3, 0.7))
        assert "a" in g and len(g) == 1
        assert g.position_of("a") == Point(0.3, 0.7)
        assert g.remove("a") == Point(0.3, 0.7)
        assert "a" not in g and len(g) == 0

    def test_duplicate_key_raises(self):
        g = GridHash(1.0)
        g.insert(1, Point(0, 0))
        with pytest.raises(KeyError):
            g.insert(1, Point(1, 1))

    def test_discard_is_silent(self):
        g = GridHash(1.0)
        g.discard("missing")
        g.insert("x", Point(0, 0))
        g.discard("x")
        assert len(g) == 0

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            GridHash(0.0)

    def test_from_points(self):
        g = GridHash.from_points([Point(0, 0), Point(2, 2)], cell_size=1.0)
        assert len(g) == 2
        assert g.position_of(1) == Point(2, 2)


class TestQueryBall:
    @given(point_lists, st.tuples(coords, coords), st.floats(0.0, 20.0))
    def test_matches_brute_force(self, pts, center_xy, radius):
        g = GridHash(1.3)
        for i, (x, y) in enumerate(pts):
            g.insert(i, Point(x, y))
        center = Point(*center_xy)
        got = sorted(k for k, _ in g.query_ball(center, radius, tol=0.0))
        want = sorted(
            i
            for i, (x, y) in enumerate(pts)
            if distance(Point(x, y), center) <= radius
        )
        assert got == want

    def test_closed_ball_with_tolerance(self):
        g = GridHash(1.0)
        g.insert("edge", Point(1.0, 0.0))
        assert g.query_keys(Point(0, 0), 1.0) == ["edge"]

    def test_subnormal_offset_respects_boundary(self):
        # Regression: 5e-324**2 underflows to 0.0, so the squared-distance
        # fast path alone would leak this point into a radius-0 query.
        g = GridHash(1.3)
        g.insert("off", Point(5e-324, 0.0))
        assert g.query_ball(Point(0.0, 0.0), 0.0, tol=0.0) == []
        assert distance(Point(5e-324, 0.0), Point(0.0, 0.0)) > 0.0
        # The exact center still matches a radius-0 closed ball.
        g.insert("hit", Point(0.0, 0.0))
        assert g.query_keys(Point(0.0, 0.0), 0.0, tol=0.0) == ["hit"]

    def test_negative_radius(self):
        g = GridHash(1.0)
        g.insert(0, Point(0, 0))
        assert g.query_ball(Point(0, 0), -1.0) == []

    def test_query_spanning_many_cells(self):
        g = GridHash(1.0)
        for i in range(100):
            g.insert(i, Point(i * 0.5, 0.0))
        found = g.query_keys(Point(25.0, 0.0), 10.0)
        assert len(found) == 41  # positions 15.0 .. 35.0 inclusive
