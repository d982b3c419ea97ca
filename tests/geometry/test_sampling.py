"""ell-samplings: pairwise spacing, covering, Lemma 4 cardinality."""

from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import (
    Point,
    Rect,
    covers,
    greedy_ell_sampling,
    is_ell_sampling,
    sampling_cardinality_bound,
)

coords = st.floats(0.0, 30.0, allow_nan=False, allow_infinity=False)
swarms = st.lists(st.tuples(coords, coords), min_size=0, max_size=80)
ells = st.floats(0.5, 5.0)


def _points(raw):
    return [Point(x, y) for x, y in raw]


class TestPredicates:
    def test_is_ell_sampling_basic(self):
        assert is_ell_sampling([Point(0, 0), Point(2, 0)], ell=1.0)
        assert not is_ell_sampling([Point(0, 0), Point(0.5, 0)], ell=1.0)
        assert is_ell_sampling([], ell=1.0)

    def test_covers_basic(self):
        sample = [Point(0, 0)]
        assert covers(sample, [Point(0.5, 0)], ell=1.0)
        assert not covers(sample, [Point(5, 0)], ell=1.0)
        assert covers([], [], ell=1.0)
        assert not covers([], [Point(0, 0)], ell=1.0)


class TestGreedySampling:
    @given(swarms, ells)
    def test_output_is_sampling(self, raw, ell):
        pts = _points(raw)
        sample = greedy_ell_sampling(pts, ell)
        assert is_ell_sampling(sample, ell)

    @given(swarms, ells)
    def test_maximal_sampling_covers(self, raw, ell):
        pts = _points(raw)
        sample = greedy_ell_sampling(pts, ell)
        assert covers(sample, pts, ell)

    @given(swarms, ells)
    def test_limit_respected(self, raw, ell):
        pts = _points(raw)
        sample = greedy_ell_sampling(pts, ell, limit=3)
        assert len(sample) <= 3

    def test_region_filter(self):
        pts = [Point(0.5, 0.5), Point(10, 10)]
        region = Rect(0, 0, 1, 1)
        sample = greedy_ell_sampling(pts, ell=0.1, region=region)
        assert sample == [Point(0.5, 0.5)]


class TestLemma4:
    @given(swarms, ells)
    def test_cardinality_bound(self, raw, ell):
        # Any ell-sampling of a width-R square has <= 16 R^2/(pi ell^2) pts.
        pts = _points(raw)
        region = Rect(0.0, 0.0, 30.0, 30.0)
        sample = greedy_ell_sampling(pts, ell, region=region)
        assert len(sample) <= sampling_cardinality_bound(30.0, ell) + 1e-9

    def test_bound_tightness_order(self):
        # A dense grid sampling should come within a constant of the bound.
        ell = 1.0
        width = 10.0
        pts = [
            Point(x * 1.001, y * 1.001)
            for x in range(int(width))
            for y in range(int(width))
        ]
        sample = greedy_ell_sampling(pts, ell)
        bound = sampling_cardinality_bound(width, ell)
        assert len(sample) >= bound / 8.0
