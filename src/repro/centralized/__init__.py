"""Centralized Freeze Tag solvers (the paper's Section 2.2 substrate).

The distributed algorithms delegate the *final* wake-up of a fully-known
region to a centralized schedule (Lemma 2); this package provides those
schedules plus baselines used for calibration:

* :func:`quadtree_schedule` — ``O(R)``-makespan guarantee (the Lemma 2
  workhorse, standing in for [BCGH24]'s algorithm; see
  :mod:`repro.centralized.quadtree`);
* :func:`greedy_schedule` — earliest-completion-first heuristic;
* :func:`exact_schedule` — branch-and-bound optimum for tiny ``n``;
* :func:`chain_schedule` — no-branching straw man.
"""

from .bounds import (
    PLANE_WAKEUP_CONSTANT_LOWER_BOUND,
    farthest_pair_lower_bound,
    makespan_lower_bound,
    radius_lower_bound,
)
from .chain import chain_schedule
from .exact import exact_makespan, exact_schedule
from .greedy import greedy_schedule
from .online import (
    BW20_COMPETITIVE_RATIO,
    OnlineOutcome,
    OnlineRequest,
    competitive_ratio,
    offline_reference_makespan,
    online_greedy,
    online_greedy_schedule,
)
from .quadtree import QUADTREE_MAKESPAN_FACTOR, quadtree_schedule
from .schedule import ROOT, ScheduleEvaluation, WakeupSchedule

__all__ = [
    "BW20_COMPETITIVE_RATIO",
    "OnlineOutcome",
    "OnlineRequest",
    "competitive_ratio",
    "offline_reference_makespan",
    "online_greedy",
    "online_greedy_schedule",
    "ROOT",
    "WakeupSchedule",
    "ScheduleEvaluation",
    "quadtree_schedule",
    "QUADTREE_MAKESPAN_FACTOR",
    "greedy_schedule",
    "exact_schedule",
    "exact_makespan",
    "chain_schedule",
    "radius_lower_bound",
    "farthest_pair_lower_bound",
    "makespan_lower_bound",
    "PLANE_WAKEUP_CONSTANT_LOWER_BOUND",
]
