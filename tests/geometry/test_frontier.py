"""Property tests: the frontier index vs its scalar oracle.

The sparse wave frontier is only sound if every one of its answers
matches the brute-force closed-disk distance loop it replaces, including
stops engineered exactly on the ``reach`` boundary (the ``radius ± EPS``
band where squared-distance rounding could flip a decision), and if a
rejected rectangle holds no position within reach.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry import EPS, FrontierIndex, Point, frontier_for

COORD = st.floats(
    min_value=-300.0, max_value=300.0, allow_nan=False, allow_infinity=False
)
POINTS = st.lists(st.tuples(COORD, COORD), min_size=0, max_size=60)

#: 40 points in one cell of a reach-1 index, ``DENSE[0]`` leftmost: a probe
#: straight left of it is nearest to it alone.
DENSE = [(0.5 + 0.01 * i, 0.25 + 0.0125 * i) for i in range(40)]


def brute_any_within(points, stop, reach):
    return any(math.hypot(px - stop[0], py - stop[1]) <= reach for px, py in points)


class TestHotStops:
    @given(points=POINTS, stops=st.lists(st.tuples(COORD, COORD), max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_matches_scalar_oracle(self, points, stops):
        index = FrontierIndex([Point(*p) for p in points], reach=2.5)
        mask = [index.any_within(Point(*s)) for s in stops]
        assert mask == [brute_any_within(points, s, 2.5) for s in stops]

    @given(
        points=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=20),
        angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
        offset=st.sampled_from([-1e-7, -1e-12, 0.0, 1e-12, 1e-7, 1e-3]),
    )
    @settings(max_examples=120, deadline=None)
    @example(points=DENSE, angle=math.pi, offset=EPS)
    @example(points=DENSE, angle=math.pi, offset=-EPS)
    @example(points=DENSE, angle=math.pi / 2, offset=0.0)
    def test_reach_boundary(self, points, angle, offset):
        """Stops placed at distance ``reach + offset`` from a point."""
        reach = 1.0 + 1e-6
        index = FrontierIndex([Point(*p) for p in points], reach=reach)
        px, py = points[0]
        stop = Point(
            px + (reach + offset) * math.cos(angle),
            py + (reach + offset) * math.sin(angle),
        )
        assert index.any_within(stop) == brute_any_within(points, stop, reach)

    @given(points=POINTS)
    @settings(max_examples=60, deadline=None)
    def test_rect_rejection_is_conservative(self, points):
        """A rejected rect must contain no point within reach of it."""
        index = FrontierIndex([Point(*p) for p in points], reach=2.0)
        rect = (-10.0, -10.0, 10.0, 10.0)
        if not index.rect_overlaps(*rect):
            for px, py in points:
                assert not (
                    rect[0] - 2.0 <= px <= rect[2] + 2.0
                    and rect[1] - 2.0 <= py <= rect[3] + 2.0
                )

    def test_empty_index(self):
        index = frontier_for([], 1.0)
        assert not index.any_within(Point(0, 0))
        assert not index.rect_overlaps(-5, -5, 5, 5)

