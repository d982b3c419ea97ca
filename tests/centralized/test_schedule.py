"""WakeupSchedule structure, evaluation, and validation."""

import pytest

from repro.centralized import ROOT, WakeupSchedule
from repro.geometry import Point


def chain_schedule_manual():
    # ROOT -> 0 -> 1, with ROOT continuing to 2 after waking 0.
    return WakeupSchedule.build(
        root=Point(0, 0),
        positions=[Point(1, 0), Point(2, 0), Point(1, 1)],
        orders={ROOT: [0, 2], 0: [1]},
    )


class TestEvaluation:
    def test_chain_timing(self):
        s = chain_schedule_manual()
        ev = s.evaluate()
        # ROOT: (0,0) -> (1,0) at t=1 -> (1,1) at t=2.
        # Robot 0: woken t=1, walks to (2,0) at t=2.
        assert ev.wake_times[0] == pytest.approx(1.0)
        assert ev.wake_times[1] == pytest.approx(2.0)
        assert ev.wake_times[2] == pytest.approx(2.0)
        assert ev.makespan == pytest.approx(2.0)
        assert ev.depth == 2

    def test_travel_per_waker(self):
        s = chain_schedule_manual()
        ev = s.evaluate()
        assert ev.travel[ROOT] == pytest.approx(2.0)
        assert ev.travel[0] == pytest.approx(1.0)
        assert ev.total_travel == pytest.approx(3.0)
        assert ev.max_travel == pytest.approx(2.0)

    def test_empty_schedule(self):
        s = WakeupSchedule.build(Point(0, 0), [], {})
        assert s.makespan() == 0.0
        assert s.evaluate().depth == 0

    def test_parallelism_beats_chain(self):
        # Two opposite arms: branching strictly beats pure chaining.
        pts = [Point(1, 0), Point(2, 0), Point(-1, 0), Point(-2, 0)]
        chain = WakeupSchedule.build(Point(0, 0), pts, {ROOT: [0, 1, 2, 3]})
        branched = WakeupSchedule.build(
            Point(0, 0), pts, {ROOT: [0, 2], 0: [1], 2: [3]}
        )
        assert chain.makespan() == pytest.approx(6.0)
        assert branched.makespan() == pytest.approx(4.0)


class TestValidation:
    def test_valid_schedule_passes(self):
        chain_schedule_manual().validate()

    def test_double_wake_rejected(self):
        s = WakeupSchedule.build(
            Point(0, 0), [Point(1, 0)], {ROOT: [0, 0]}
        )
        with pytest.raises(ValueError, match="twice"):
            s.validate()

    def test_missing_target_rejected(self):
        s = WakeupSchedule.build(
            Point(0, 0), [Point(1, 0), Point(2, 0)], {ROOT: [0]}
        )
        with pytest.raises(ValueError, match="never woken"):
            s.validate()

    def test_unreachable_waker_rejected(self):
        # Robot 1 wakes robot 0, but nobody wakes robot 1.
        s = WakeupSchedule.build(
            Point(0, 0), [Point(1, 0), Point(2, 0)], {1: [0], ROOT: [1]}
        )
        # This one is actually fine: ROOT wakes 1, who wakes 0.
        s.validate()
        bad = WakeupSchedule.build(
            Point(0, 0), [Point(1, 0), Point(2, 0)], {1: [0, 1]}
        )
        with pytest.raises(ValueError):
            bad.validate()

    def test_unknown_indices_rejected(self):
        s = WakeupSchedule.build(Point(0, 0), [Point(1, 0)], {ROOT: [5]})
        with pytest.raises(ValueError, match="unknown target"):
            s.validate()


class TestStructure:
    def test_waker_of(self):
        s = chain_schedule_manual()
        assert s.waker_of() == {0: ROOT, 2: ROOT, 1: 0}

    def test_children_tree_binary(self):
        s = chain_schedule_manual()
        tree = s.children_tree()
        # ROOT's binary child is its first target; the continuation target
        # 2 hangs off node 0.
        assert tree[ROOT] == (0,)
        assert set(tree[0]) == {2, 1}
        assert s.max_children() <= 2
