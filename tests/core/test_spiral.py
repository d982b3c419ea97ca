"""Spiral search: discovery guarantee and the O(D^2) cost bound."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spiral import (
    spiral_search,
    spiral_stops,
    spiral_time_bound,
)
from repro.geometry import Point, distance
from repro.sim import Engine, SOURCE_ID, World

coords = st.floats(-12.0, 12.0, allow_nan=False, allow_infinity=False)


def run_spiral(positions, max_radius=40.0):
    world = World(source=Point(0, 0), positions=positions)
    engine = Engine(world)
    box = []

    def program(proc):
        find = yield from spiral_search(proc, max_radius=max_radius)
        box.append(find)

    engine.spawn(program, [SOURCE_ID])
    result = engine.run()
    return box[0], result


class TestStops:
    def test_rings_cover_annulus(self):
        """Every point within radius 10 is within 1 of some stop."""
        stops = list(spiral_stops(Point(0, 0), max_radius=12.0))
        import random

        rng = random.Random(1)
        for _ in range(200):
            r = rng.uniform(1.0, 10.0)
            a = rng.uniform(0, 2 * math.pi)
            p = Point(r * math.cos(a), r * math.sin(a))
            assert min(distance(p, s) for s in stops) <= 1.0 + 1e-9

    def test_consecutive_stops_close(self):
        stops = list(spiral_stops(Point(0, 0), max_radius=8.0))
        for a, b in zip(stops, stops[1:]):
            assert distance(a, b) <= 2.0 * math.sqrt(2.0) + 1e-9

    def test_radius_cap_respected(self):
        stops = list(spiral_stops(Point(0, 0), max_radius=5.0))
        assert all(max(abs(s.x), abs(s.y)) <= 5.0 + 3 * math.sqrt(2) for s in stops)


class TestSearch:
    @given(coords, coords)
    @settings(max_examples=30)
    def test_always_finds_a_robot_within_cap(self, x, y):
        target = Point(x, y)
        find, _ = run_spiral([target], max_radius=25.0)
        assert find.found
        assert find.view.robot_id == 1

    @given(coords, coords)
    @settings(max_examples=30)
    def test_cost_is_quadratic_in_distance(self, x, y):
        target = Point(x, y)
        d = target.norm()
        find, _ = run_spiral([target], max_radius=25.0)
        assert find.travelled <= spiral_time_bound(d)

    def test_immediate_sighting_is_free(self):
        find, result = run_spiral([Point(0.5, 0.0)])
        assert find.found
        assert find.travelled == 0.0
        assert result.termination_time == 0.0

    def test_empty_world_gives_up(self):
        find, _ = run_spiral([], max_radius=6.0)
        assert not find.found
        assert find.travelled > 0.0

    def test_nearest_of_several_on_same_ring(self):
        # Both visible from the same stop: the nearer one is returned.
        find, _ = run_spiral([Point(3.0, 0.1), Point(3.9, 0.0)])
        assert find.found
        assert find.view.robot_id in (1, 2)

    def test_far_robot_beyond_cap_not_found(self):
        find, _ = run_spiral([Point(30.0, 0.0)], max_radius=10.0)
        assert not find.found
