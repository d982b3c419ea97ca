"""FrozenGridHash / GridHash / brute-force-oracle equivalence.

The frozen sleeping index must answer ``query_ball`` with *exactly*
the membership of the closed Euclidean ball ``B(center, radius + tol)``
as decided by ``math.hypot`` — the documented oracle for ``GridHash`` —
including points sitting on the boundary up to rounding and subnormal
coordinate offsets where squaring underflows.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import EPS, FrozenGridHash, GridHash, Point, distance

coords = st.floats(-20, 20, allow_nan=False, allow_infinity=False)
points_strategy = st.lists(st.tuples(coords, coords), min_size=0, max_size=120)


def oracle(points, center, radius, tol=EPS):
    """The documented brute-force predicate."""
    limit = radius + tol
    return [
        (i + 1, p) for i, p in enumerate(points) if distance(p, center) <= limit
    ]


def build_both(points, cell_size=1.0):
    pts = [Point(x, y) for x, y in points]
    frozen = FrozenGridHash(pts, cell_size=cell_size, keys=range(1, len(pts) + 1))
    grid = GridHash(cell_size=cell_size)
    for i, p in enumerate(pts, start=1):
        grid.insert(i, p)
    return pts, frozen, grid


class TestQueryEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(points_strategy, coords, coords, st.floats(0.0, 5.0))
    def test_matches_oracle_and_gridhash(self, raw, cx, cy, radius):
        pts, frozen, grid = build_both(raw)
        center = Point(cx, cy)
        expect = sorted(oracle(pts, center, radius))
        assert sorted(frozen.query_ball(center, radius)) == expect
        assert sorted(grid.query_ball(center, radius)) == expect

    @settings(max_examples=60, deadline=None)
    @given(points_strategy, st.floats(0.25, 3.0))
    def test_matches_after_removals(self, raw, radius):
        pts, frozen, grid = build_both(raw)
        removed = set(range(1, len(pts) + 1, 2))
        for key in removed:
            frozen.remove(key)
            grid.remove(key)
        center = Point(0.0, 0.0)
        expect = sorted(
            (k, p) for k, p in oracle(pts, center, radius) if k not in removed
        )
        assert sorted(frozen.query_ball(center, radius)) == expect
        assert sorted(grid.query_ball(center, radius)) == expect

    def test_boundary_at_exact_radius(self):
        """Points exactly at radius, radius±EPS: closed-ball + tol."""
        radius = 1.0
        offsets = [
            radius,                 # on the sphere: inside (closed ball)
            radius + EPS,           # at the tolerance edge: inside
            radius + 3 * EPS,       # beyond tolerance: outside
            radius - EPS,           # just inside
        ]
        pts = [Point(off, 0.0) for off in offsets]
        frozen = FrozenGridHash(pts, cell_size=radius, keys=range(1, 5))
        got = sorted(frozen.query_keys(Point(0, 0), radius))
        expect = sorted(
            i + 1
            for i, p in enumerate(pts)
            if math.hypot(p.x, p.y) <= radius + EPS
        )
        assert got == expect
        assert 3 not in got  # radius + 3*EPS must be excluded

    def test_subnormal_point_across_cell_boundary(self):
        """Hypothesis-found: a subnormal coordinate puts the point in cell
        -1 while its computed distance to ``center=(radius, 0)`` rounds to
        exactly ``radius`` — the scan range must reach that cell."""
        p = Point(-2.2250738585e-313, 0.0)
        center = Point(1.0, 0.0)
        assert distance(p, center) == 1.0  # rounds onto the boundary
        frozen = FrozenGridHash([p], cell_size=1.3, keys=[0])
        grid = GridHash(cell_size=1.3)
        grid.insert(0, p)
        assert frozen.query_ball(center, 1.0, tol=0.0) == [(0, p)]
        assert grid.query_ball(center, 1.0, tol=0.0) == [(0, p)]

    def test_subnormal_offsets(self):
        """Squaring subnormal offsets underflows to zero; membership must
        still come out of the exact hypot predicate."""
        tiny = 5e-324  # smallest positive subnormal
        pts = [Point(tiny, 0.0), Point(0.0, -tiny), Point(tiny, tiny)]
        frozen = FrozenGridHash(pts, cell_size=1.0, keys=[1, 2, 3])
        # All within any positive radius of the origin.
        assert sorted(frozen.query_keys(Point(0, 0), 1e-12)) == [1, 2, 3]
        # And of a subnormal-radius ball (limit dominated by tol=EPS).
        assert sorted(frozen.query_keys(Point(0, 0), tiny)) == [1, 2, 3]
        # With tol=0 and radius 0 only exact matches of hypot survive.
        got = frozen.query_ball(Point(0, 0), 0.0, tol=0.0)
        expect = [
            (i + 1, p) for i, p in enumerate(pts) if math.hypot(p.x, p.y) <= 0.0
        ]
        assert got == expect

    def test_result_order_is_gridhash_order(self):
        """Cell-scan order, then insertion order — same as GridHash."""
        pts = [Point(0.1 * i, 0.05 * i) for i in range(50)]
        _, frozen, grid = build_both([(p.x, p.y) for p in pts], cell_size=0.7)
        for center in (Point(0, 0), Point(2.0, 1.0), Point(4.9, 2.45)):
            assert frozen.query_ball(center, 1.3) == grid.query_ball(center, 1.3)


class TestFrozenBasics:
    def test_remove_and_len(self):
        pts = [Point(i, 0) for i in range(5)]
        frozen = FrozenGridHash(pts, cell_size=1.0, keys=[10, 11, 12, 13, 14])
        assert len(frozen) == 5
        assert frozen.remove(12) == Point(2, 0)
        assert len(frozen) == 4
        assert 12 not in frozen
        with pytest.raises(KeyError):
            frozen.remove(12)
        frozen.discard(12)  # silent
        assert sorted(frozen) == [10, 11, 13, 14]
        assert frozen.position_of(13) == Point(3, 0)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FrozenGridHash([Point(0, 0), Point(1, 1)], cell_size=1.0, keys=[1, 1])

    def test_key_position_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            FrozenGridHash([Point(0, 0)], cell_size=1.0, keys=[1, 2])

    def test_empty_index(self):
        frozen = FrozenGridHash([], cell_size=1.0)
        assert len(frozen) == 0
        assert frozen.query_ball(Point(0, 0), 10.0) == []

    def test_negative_radius(self):
        frozen = FrozenGridHash([Point(0, 0)], cell_size=1.0)
        assert frozen.query_ball(Point(0, 0), -1.0) == []

    def test_vectorized_branch_equivalence(self):
        """A single dense cell (400 points) through the one scalar scan."""
        pts = [Point(0.001 * i, 0.0005 * i) for i in range(400)]
        raw = [(p.x, p.y) for p in pts]
        pts, frozen, grid = build_both(raw, cell_size=2.0)
        for radius in (0.05, 0.2, 0.3999, 5.0):
            center = Point(0.2, 0.1)
            assert frozen.query_ball(center, radius) == grid.query_ball(center, radius)
