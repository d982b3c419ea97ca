"""``DFSampling`` — distributed ``ell``-sampling (Section 2.4 / 6.5).

A team starting from a set of *seeds* computes an ``ell``-sampling ``P'``
of the robots of a region by depth-first search over the ``2*ell``-disk
graph of known initial positions.  Neighbors of the current node are
discovered by exploring the ball ``B_p(2*ell)`` (Lemma 1); a discovered
position joins ``P'`` only when it is more than ``ell`` from every sampled
position, and the team physically walks the DFS tree (forward edges and
backtracking both cost at most ``2*ell`` per hop).  Sleeping robots at
sampled positions are woken and recruited into the team, which speeds up
subsequent ball explorations — the ``O(ell^2 log |P'|)`` harmonic sum of
Lemma 5.

Outcome semantics (Lemma 5's dichotomy): either the recruit cap was hit, or
every robot of the region has been *discovered* (the region is covered by
``P'``), which is what lets a terminating round wake the remainder with a
centralized schedule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, Iterable, List

from ..geometry import EPS, Point, Rect, distance, sort_seeds, square_at_center
from ..sim import Move, Result, Wake
from ..sim.actions import Action
from ..sim.engine import ProcessView
from .explore import ExplorationReport, explore_rect_team
from .knowledge import TeamKnowledge

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..geometry import FrontierIndex

__all__ = ["SamplingOutcome", "dfsampling"]

#: Positions closer than this are treated as the same disk-graph node.
_NODE_TOL = 1e-9


@dataclass
class SamplingOutcome:
    """Result of one ``DFSampling`` run."""

    sampled: List[Point] = field(default_factory=list)
    recruited: Dict[int, Point] = field(default_factory=dict)
    hit_cap: bool = False

    @property
    def covered(self) -> bool:
        """Lemma 5 case (2): cap not hit => the region is covered."""
        return not self.hit_cap


def dfsampling(
    proc: ProcessView,
    region: Rect,
    owns: Callable[[Point], bool],
    seeds: Iterable[Point],
    ell: float,
    recruit_cap: int,
    knowledge: TeamKnowledge,
    key_base: Any,
    frontier: "FrontierIndex | None" = None,
) -> Generator[Action, Result, SamplingOutcome]:
    """Run DFSampling with the calling process as the team.

    ``region``
        the sampled square (seed ordering + reporting); exploration balls
        may peek past its boundary, which only adds knowledge.
    ``owns``
        ownership predicate: only positions with ``owns(p)`` may be sampled
        or recruited (the caller's partition discipline).
    ``seeds``
        starting positions — initial positions of robots known to be in the
        separator (or the source's own position at round 0).
    ``recruit_cap``
        stop after waking this many new robots (the paper's ``4*ell`` minus
        already-present natives).
    ``knowledge``
        the team's live knowledge; updated in place with every sighting and
        recruit.
    ``key_base``
        hashable prefix making this run's barrier keys globally unique.
    ``frontier``
        optional :class:`~repro.geometry.FrontierIndex`: batches the ball
        explorations' cold lattice runs into engine sweeps (see
        :func:`repro.core.explore.explore_rect`).
    """
    outcome = SamplingOutcome()
    if recruit_cap <= 0:
        outcome.hit_cap = True
        return outcome

    counter = itertools.count()
    explored_nodes: list[Point] = []  # nodes whose 2*ell ball was explored

    def is_sampled_cover(p: Point) -> bool:
        return any(distance(p, q) <= ell for q in outcome.sampled)

    def sample_candidates(p: Point) -> list[tuple[float, float, float, Point]]:
        """Known eligible nodes within 2*ell of ``p``, nearest first.

        Traversal eligibility is the (closed) region — boundary nodes can
        be walked through even when owned by a sibling team; only *waking*
        is restricted to owned robots (see :func:`recruit_at`).
        """
        found: list[tuple[float, float, float, Point]] = []
        for node in _known_node_positions(knowledge):
            d = distance(p, node)
            if d <= 2.0 * ell + EPS and region.contains(node):
                if all(distance(node, q) > ell for q in outcome.sampled):
                    found.append((d, node[0], node[1], node))
        found.sort()
        return found

    def explore_ball(p: Point) -> Generator[Action, Result, None]:
        """Discover all robots within ``2*ell`` of ``p`` (Lemma 1)."""
        for q in explored_nodes:
            if distance(p, q) <= _NODE_TOL:
                return
        explored_nodes.append(p)
        ball = square_at_center(p, 4.0 * ell)
        key = (key_base, "ball", next(counter))
        report = yield from explore_rect_team(
            proc, ball, meet_at=p, barrier_key=key, frontier=frontier
        )
        _ingest(knowledge, report)

    def recruit_at(p: Point) -> Generator[Action, Result, None]:
        """Wake every known-sleeping robot located exactly at ``p``."""
        for rid, home in list(knowledge.sleeping.items()):
            if len(outcome.recruited) >= recruit_cap:
                return
            if distance(home, p) <= _NODE_TOL and owns(home):
                yield Wake(rid)  # joins this process (team recruitment)
                knowledge.recruited(rid, home)
                outcome.recruited[rid] = home

    ordered = sort_seeds(region, list(seeds))
    for seed in ordered:
        if len(outcome.recruited) >= recruit_cap:
            break
        if is_sampled_cover(seed):
            continue  # this seed's ball is already covered (step 3)
        yield Move(seed)
        outcome.sampled.append(seed)
        yield from recruit_at(seed)
        # Depth-first search from the seed over the 2*ell-disk graph.
        stack: list[Point] = [seed]
        while stack and len(outcome.recruited) < recruit_cap:
            p = stack[-1]
            yield from explore_ball(p)
            # The exploration may have just discovered a robot sitting at
            # the current (already sampled) position — recruit it now.
            yield from recruit_at(p)
            if len(outcome.recruited) >= recruit_cap:
                break
            candidates = sample_candidates(p)
            if not candidates:
                stack.pop()
                if stack:
                    yield Move(stack[-1])  # backtrack along the tree edge
                continue
            nxt = candidates[0][3]
            yield Move(nxt)
            outcome.sampled.append(nxt)
            yield from recruit_at(nxt)
            stack.append(nxt)

    outcome.hit_cap = len(outcome.recruited) >= recruit_cap
    return outcome


def _known_node_positions(knowledge: TeamKnowledge) -> list[Point]:
    """Disk-graph nodes: known initial positions (sleeping + member homes)."""
    nodes = list(knowledge.sleeping.values())
    nodes.extend(knowledge.members.values())
    return nodes


def _ingest(knowledge: TeamKnowledge, report: ExplorationReport) -> None:
    """Fold an exploration report into team knowledge.

    Sleeping sightings are initial positions (sleeping robots never move).
    Awake sightings are transient positions and are *not* recorded as homes
    — member homes only enter knowledge through recruitment or merges (see
    :class:`TeamKnowledge` docs).
    """
    for rid, pos in report.sleeping.items():
        knowledge.saw_sleeping(rid, pos)
