"""Greedy list-scheduling heuristic for centralized Freeze Tag.

No worst-case guarantee (unlike :mod:`repro.centralized.quadtree`), but a
strong practical baseline in the spirit of the heuristics of Arkin et al.
[ABF+06]: repeatedly commit the wake event that *completes earliest* —
over all (awake robot, sleeping robot) pairs, pick the pair minimizing
``free_time(awake) + distance(awake, sleeping)``.

Used by the benchmark harness to calibrate the constant factor of the
quadtree strategy, and by tests as an independent makespan reference.
"""

from __future__ import annotations

from typing import Sequence

from ..geometry import Point, distance
from .schedule import ROOT, WakeupSchedule

__all__ = ["greedy_schedule"]


def greedy_schedule(
    root: Point, positions: Sequence[Point], region=None
) -> WakeupSchedule:
    """Earliest-completion-first greedy schedule.

    ``region`` is accepted (and ignored) so the function satisfies the
    Lemma 2 solver signature used by ``ASeparator``'s ablation knob.
    """
    n = len(positions)
    orders: dict[int, list[int]] = {}
    # Awake robots: index -> (position, free_time); ROOT starts at the root.
    awake: dict[int, tuple[Point, float]] = {ROOT: (root, 0.0)}
    remaining = set(range(n))
    while remaining:
        best: tuple[float, int, int] | None = None
        for waker, (pos, free) in awake.items():
            for target in remaining:
                completion = free + distance(pos, positions[target])
                if best is None or completion < best[0] - 1e-15 or (
                    abs(completion - best[0]) <= 1e-15 and (waker, target) < best[1:]
                ):
                    best = (completion, waker, target)
        assert best is not None
        completion, waker, target = best
        orders.setdefault(waker, []).append(target)
        awake[waker] = (positions[target], completion)
        awake[target] = (positions[target], completion)
        remaining.remove(target)
    return WakeupSchedule.build(root, positions, orders)
