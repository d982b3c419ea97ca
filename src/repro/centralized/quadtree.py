"""Recursive quadtree wake-up strategy with an ``O(R)`` makespan guarantee.

Stand-in for the [BCGH24] centralized algorithm the paper invokes in
Lemma 2.  Guarantee:

    For any set of sleeping robots inside a square of width ``R`` and a
    waker anywhere in that square, the schedule produced here has makespan
    at most ``8 * sqrt(2) * R``.

Sketch: partition the square into four quadrants; wake one *representative*
per non-empty quadrant using a binary broadcast (at most 3 sequential hops,
each at most ``diam = sqrt(2) R``); each representative then recurses
inside its own quadrant of width ``R/2``.  A representative may owe one
broadcast hop before turning to its quadrant, so re-entering costs one
extra diameter; the recurrence ``T(R) <= (3+1)*sqrt(2)*R + T(R/2)``
telescopes to ``8*sqrt(2)*R``.  Measured ratios are far smaller (the
benches report ~2-4), but only the big-O matters for Lemma 2.

Co-located duplicate points are woken as a zero-cost chain, which also
bounds the recursion depth by ``O(log(R/separation) + multiplicity)``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from ..geometry import Point, Rect, distance, enclosing_rect
from .schedule import ROOT, WakeupSchedule

__all__ = ["quadtree_schedule", "QUADTREE_MAKESPAN_FACTOR"]

#: Proven upper bound on makespan / (square width) for this strategy.
QUADTREE_MAKESPAN_FACTOR = 8.0 * math.sqrt(2.0)

#: Below this width all remaining points are treated as co-located.
_WIDTH_FLOOR = 1e-9


def quadtree_schedule(
    root: Point,
    positions: Sequence[Point],
    region: Rect | None = None,
) -> WakeupSchedule:
    """Schedule waking ``positions`` starting from a robot at ``root``.

    ``region`` is the square the guarantee is stated for; when omitted, the
    smallest enclosing square of ``positions ∪ {root}`` is used.  ``root``
    need not be inside ``region``; the first hop then additionally costs
    the distance from ``root`` to the region.
    """
    orders: Dict[int, List[int]] = {}
    indices = list(range(len(positions)))
    if region is None:
        region = _enclosing_square([root, *positions])
    _wake_square(ROOT, indices, region, root, list(positions), orders)
    return WakeupSchedule.build(root, positions, orders)


def _enclosing_square(points: Sequence[Point]) -> Rect:
    box = enclosing_rect(points)
    width = max(box.width, box.height, _WIDTH_FLOOR)
    cx, cy = box.center
    half = width / 2.0
    return Rect(cx - half, cy - half, cx + half, cy + half)


def _wake_square(
    waker: int,
    indices: list[int],
    square: Rect,
    waker_pos: Point,
    positions: list[Point],
    orders: Dict[int, List[int]],
) -> None:
    """Append wake orders for ``indices`` (all inside ``square``)."""
    if not indices:
        return
    if len(indices) == 1:
        orders.setdefault(waker, []).append(indices[0])
        return
    if square.width <= _WIDTH_FLOOR or _all_coincident(indices, positions):
        # Degenerate cluster: chain through the points (zero/near-zero cost).
        chain = orders.setdefault(waker, [])
        head, rest = indices[0], indices[1:]
        chain.append(head)
        orders.setdefault(head, []).extend(rest)
        return

    quadrants = square.quadrants()
    buckets: list[list[int]] = [[], [], [], []]
    for idx in indices:
        buckets[square.quadrant_index(positions[idx])].append(idx)

    # Representative per non-empty quadrant: the point closest to the
    # quadrant center (deterministic tie-break on index).
    reps: list[tuple[int, int]] = []  # (rep index, quadrant)
    for q, bucket in enumerate(buckets):
        if bucket:
            center = quadrants[q].center
            rep = min(bucket, key=lambda i: (distance(positions[i], center), i))
            reps.append((rep, q))

    # Binary broadcast over the representatives: the waker wakes the first
    # two; the first two each wake one more.  At most 3 sequential hops.
    rep_order = [rep for rep, _ in reps]
    waker_list = orders.setdefault(waker, [])
    waker_list.extend(rep_order[:2])
    if len(rep_order) >= 3:
        orders.setdefault(rep_order[0], []).append(rep_order[2])
    if len(rep_order) >= 4:
        orders.setdefault(rep_order[1], []).append(rep_order[3])

    # Each representative recurses in its own quadrant.
    for rep, q in reps:
        remaining = [i for i in buckets[q] if i != rep]
        _wake_square(rep, remaining, quadrants[q], positions[rep], positions, orders)


def _all_coincident(indices: Sequence[int], positions: Sequence[Point]) -> bool:
    first = positions[indices[0]]
    return all(distance(positions[i], first) <= _WIDTH_FLOOR for i in indices[1:])
