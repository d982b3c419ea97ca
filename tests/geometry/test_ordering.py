"""Sort(X) seed ordering: clockwise boundary tour with bounded cost."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import (
    Point,
    Rect,
    boundary_parameter,
    distance,
    sort_seeds,
)

coords = st.floats(0.0, 10.0)
seed_lists = st.lists(st.tuples(coords, coords), min_size=1, max_size=30)

REGION = Rect(0.0, 0.0, 10.0, 10.0)


class TestBoundaryParameter:
    def test_tour_order_on_edges(self):
        # Left edge upward, then top, right downward, bottom leftward.
        t_left = boundary_parameter(REGION, Point(0, 3))
        t_top = boundary_parameter(REGION, Point(4, 10))
        t_right = boundary_parameter(REGION, Point(10, 6))
        t_bottom = boundary_parameter(REGION, Point(5, 0))
        assert t_left < t_top < t_right < t_bottom

    def test_range(self):
        for p in [Point(0, 0), Point(10, 10), Point(3, 0), Point(0, 9.99)]:
            t = boundary_parameter(REGION, p)
            assert 0.0 <= t < REGION.perimeter + 1e-9

    def test_interior_point_projects_first(self):
        # (1, 5) projects to the left edge at height 5.
        assert boundary_parameter(REGION, Point(1, 5)) == pytest.approx(5.0)


class TestSortSeeds:
    @given(seed_lists)
    def test_deterministic_total_order(self, raw):
        seeds = [Point(x, y) for x, y in raw]
        a = sort_seeds(REGION, seeds)
        b = sort_seeds(REGION, list(reversed(seeds)))
        assert a == b

    @given(seed_lists)
    def test_permutation(self, raw):
        seeds = [Point(x, y) for x, y in raw]
        assert sorted(sort_seeds(REGION, seeds)) == sorted(seeds)

    def test_tour_cost_bound(self):
        """Lemma 5 team case: visiting sorted separator seeds costs at most
        the perimeter plus 2*ell per seed."""
        import random

        rng = random.Random(7)
        ell = 1.0
        # Seeds in the width-ell annulus of REGION.
        seeds = []
        for _ in range(40):
            edge = rng.randrange(4)
            along = rng.uniform(0, 10)
            depth = rng.uniform(0, ell)
            if edge == 0:
                seeds.append(Point(depth, along))
            elif edge == 1:
                seeds.append(Point(along, 10 - depth))
            elif edge == 2:
                seeds.append(Point(10 - depth, along))
            else:
                seeds.append(Point(along, depth))
        ordered = sort_seeds(REGION, seeds)
        tour = sum(distance(a, b) for a, b in zip(ordered, ordered[1:]))
        bound = REGION.perimeter + 2 * ell * len(seeds)
        assert tour <= bound + 1e-9
