"""``ASeparator`` — divide-and-conquer dFTP without energy bounds (Thm 1).

Phase structure (Figure 3 of the paper):

* **Round 0 — Initialization & Recruitment.**  The source, alone, runs
  ``DFSampling`` on the width-``2*rho`` square centered on itself, waking up
  to ``4*ell - 1`` robots, then leads the team to the square's center.
* **Round k >= 1** for a team ``T`` in square ``S``:

  - *Termination* — if ``|T| < 4*ell``, the previous round's sampling
    covered ``S`` (Lemma 5), so every sleeping robot of ``S`` is known: the
    leader executes a centralized wake-up schedule (Lemma 2) and the run
    dissolves.
  - *Partition* — split ``S`` into quadrants and ``T`` into four teams.
  - *Exploration* — each team explores the separator of its quadrant
    (Lemma 1), collecting *seeds*: initial positions of robots found there.
  - *Recruitment* — each team runs ``DFSampling`` in its quadrant, waking
    new robots until the quadrant's prospective team reaches ``4*ell``.
  - *Reorganization* — the four teams rendezvous at the center of ``S``,
    merge knowledge, regroup by home quadrant, and recurse in parallel.

Ownership discipline (the paper's "at most one robot computes a wake-up
tree in a given region", Section 2.2): every robot home belongs to exactly
one half-open quadrant chain, and a team only *wakes* robots it owns —
teams may observe, and even walk through, foreign territory, but never act
on it.  This eliminates wake conflicts by construction.

The module also exposes :func:`embedded_entry` used by ``AWave`` to run the
round structure inside a wave cell starting from an imported team of
``4*ell`` robots (Section 8.2); imported robots (whose homes lie outside
the cell) are handed back through the ``on_release`` continuation at the
first reorganization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator, Sequence

from ..centralized import quadtree_schedule
from ..geometry import Point, Rect, separator_of, square_at_center
from ..sim import Absorb, Annotate, Barrier, Fork, Move, Result, Wait
from ..sim.actions import Action, Program
from ..sim.engine import ProcessView
from .dfsampling import dfsampling
from .explore import ExplorationReport, explore_rect_team
from .knowledge import TeamKnowledge
from .wakeup import AfterFactory, execute_wake_plan, plan_from_schedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..geometry import FrontierIndex

__all__ = ["SeparatorContext", "aseparator_program", "embedded_entry", "idle"]


#: Signature of a centralized solver usable for terminations: it receives
#: the root position, the target positions and the region, and returns a
#: :class:`~repro.centralized.WakeupSchedule` (the Lemma 2 role).
SolverFn = Callable[..., "object"]


@dataclass(frozen=True)
class SeparatorContext:
    """Run-wide parameters threaded through every lineage of one run."""

    ell: int
    key_base: tuple
    imports: frozenset[int] = frozenset()
    after: AfterFactory | None = None       # continuation for robots woken here
    on_release: AfterFactory | None = None  # continuation for imported robots
    #: Hand-back of a dissolving team made only of imports, as one program
    #: fragment returning whether it released the team; ``False`` sends
    #: each import back through ``on_release``.
    on_release_team: Callable[[ProcessView], Generator[Action, Result, bool]] | None = None
    solver: SolverFn = quadtree_schedule    # Lemma 2 centralized solver
    #: Optional sparse-frontier oracle: batches cold exploration lattices
    #: into engine sweeps (see :mod:`repro.geometry.frontier`).  ``None``
    #: keeps the per-stop walks — the byte-identical legacy execution.
    frontier: "FrontierIndex | None" = None

    def continuation_for(self, robot_id: int) -> Program | None:
        if robot_id in self.imports:
            return self.on_release(robot_id) if self.on_release else None
        return self.after(robot_id) if self.after else None


def aseparator_program(
    ell: int,
    rho: float,
    after: AfterFactory | None = None,
    key_base: tuple = ("asep",),
    root_square: Rect | None = None,
    owns: Callable[[Point], bool] | None = None,
    solver: SolverFn = quadtree_schedule,
    frontier: "FrontierIndex | None" = None,
) -> Program:
    """Top-level ``ASeparator`` program for the source process.

    ``ell`` and ``rho`` are the paper's inputs (``ell >= ell_star``,
    ``rho >= rho_star``); ``n`` is never used by the algorithm (Section 5).
    ``root_square``/``owns`` override the root region for embedded round-0
    runs (``AWave``'s source cell, where ownership is the cell itself).
    ``frontier`` batches cold exploration lattices into engine sweeps
    (``None`` = the byte-identical per-stop walks).
    """
    if ell < 1:
        raise ValueError("ell must be a positive integer")

    def program(proc: ProcessView) -> Generator[Action, Result, None]:
        source_id = proc.robot_ids[0]
        source_home = proc.position
        square = (
            root_square
            if root_square is not None
            else square_at_center(source_home, 2.0 * rho)
        )
        own = owns if owns is not None else (lambda p: square.contains(p))
        ctx = SeparatorContext(
            ell=ell, key_base=key_base, imports=frozenset(), after=after,
            solver=solver, frontier=frontier,
        )
        knowledge = TeamKnowledge(members={source_id: source_home})
        yield Annotate("asep:init", {"square": tuple(square)})
        yield from dfsampling(
            proc,
            region=square,
            owns=own,
            seeds=[source_home],
            ell=ell,
            recruit_cap=4 * ell - 1,
            knowledge=knowledge,
            key_base=(*key_base, "dfs0"),
            frontier=frontier,
        )
        yield Move(square.center)
        yield from _round_loop(proc, ctx, square, own, knowledge)

    return program


def embedded_entry(
    ctx: SeparatorContext,
    cell: Rect,
    owns: Callable[[Point], bool],
) -> Generator[Action, Result, None] | Callable[[ProcessView], Generator]:
    """Round-``k >= 1`` entry used by ``AWave``: a team of imported robots
    standing at a corner of ``cell`` moves to its center and runs the round
    structure scoped to the cell."""

    def fragment(proc: ProcessView) -> Generator[Action, Result, None]:
        knowledge = TeamKnowledge()
        yield Move(cell.center)
        yield from _round_loop(proc, ctx, cell, owns, knowledge)

    return fragment


# ---------------------------------------------------------------------------
# round machinery
# ---------------------------------------------------------------------------

def _round_loop(
    proc: ProcessView,
    ctx: SeparatorContext,
    square: Rect,
    owns: Callable[[Point], bool],
    knowledge: TeamKnowledge,
) -> Generator[Action, Result, None]:
    """Rounds ``k >= 1`` for the team owned by ``proc`` (at ``square``'s
    center).  The surviving lineage iterates; sibling lineages are forked."""
    while True:
        team = list(proc.robot_ids)
        if len(team) < 4 * ctx.ell:
            yield from _terminate(proc, ctx, square, owns, knowledge)
            return

        yield Annotate("asep:partition", {"square": tuple(square), "team": len(team)})
        quadrants = square.quadrants()
        owns_q = [_quadrant_owns(owns, square, i) for i in range(4)]
        groups = _split_team(team, 4)
        merge_key = (*ctx.key_base, "merge", tuple(square))

        assignments = []
        for i in range(1, 4):
            assignments.append(
                (
                    groups[i],
                    _explorer_program(
                        ctx, i, quadrants[i], owns_q[i], square,
                        knowledge.copy(), merge_key,
                    ),
                )
            )
        yield Fork(assignments)
        payloads = yield from _explore_and_recruit(
            proc, ctx, 0, quadrants[0], owns_q[0], square, knowledge, merge_key
        )
        # Give sibling processes their post-barrier tick to finish (their
        # robots go idle at the center), then take ownership of everyone.
        yield Wait(0.0)
        other_ids = [rid for qi, ids, _, _ in payloads if qi != 0 for rid in ids]
        if other_ids:
            yield Absorb(other_ids)
        for _, _, kn, _ in payloads:
            knowledge.merge(kn)

        # ---- Reorganization: regroup by home quadrant -------------------
        yield Annotate("asep:reorganize", {"square": tuple(square)})
        assign: list[list[int]] = [[], [], [], []]
        imports: list[int] = []
        for rid in proc.robot_ids:
            home = knowledge.members.get(rid)
            if home is None or not owns(home):
                imports.append(rid)
            else:
                assign[square.quadrant_index(home)].append(rid)
        nonempty = [i for i in range(4) if assign[i]]

        if not nonempty:
            # No natives recruited anywhere: every robot we own in this
            # square is already discovered (an unreached cap certifies
            # coverage); wake any stragglers centrally and dissolve.
            yield from _wake_known(proc, ctx, square, knowledge, owns)
            yield from _dissolve(proc, ctx)
            return

        mine = nonempty[0]
        forks: list[tuple[Sequence[int], Program]] = []
        for i in nonempty[1:]:
            forks.append(
                (
                    assign[i],
                    _team_round_program(ctx, quadrants[i], owns_q[i], knowledge.copy()),
                )
            )
        for rid in imports:
            forks.append(([rid], _release_program(ctx, rid)))
        if forks:
            yield Fork(forks)
        # Orphan quadrants: a quadrant can end up with no team although it
        # still owns known sleeping robots — when its only robots were
        # covered by sample nodes owned across the boundary.  Coverage
        # (Lemma 5, cap not reached) guarantees those robots are all
        # *known*, so the surviving team wakes them centrally before
        # recursing into its own quadrant.
        for i in range(4):
            if not assign[i]:
                yield from _wake_known(proc, ctx, quadrants[i], knowledge, owns_q[i])
        yield Move(quadrants[mine].center)
        square, owns = quadrants[mine], owns_q[mine]


def _explore_and_recruit(
    proc: ProcessView,
    ctx: SeparatorContext,
    qi: int,
    quadrant: Rect,
    owns_qi: Callable[[Point], bool],
    parent: Rect,
    knowledge: TeamKnowledge,
    merge_key: tuple,
) -> Generator[Action, Result, list]:
    """Exploration + Recruitment phases for one quadrant team; ends at the
    parent-center barrier and returns the four payloads."""
    yield Annotate("asep:explore", {"quadrant": tuple(quadrant)})
    sep = separator_of(quadrant, ctx.ell)
    report = ExplorationReport()
    for j, rect in enumerate(sep.rectangles()):
        part = yield from explore_rect_team(
            proc, rect, meet_at=rect.lower_left,
            barrier_key=(*merge_key, "sep", qi, j),
            frontier=ctx.frontier,
        )
        report.merge(part)
    for rid, pos in report.sleeping.items():
        knowledge.saw_sleeping(rid, pos)

    seeds: list[Point] = []
    seen: set[tuple[float, float]] = set()
    for pos in list(knowledge.sleeping.values()) + list(knowledge.members.values()):
        if sep.contains(pos) and quadrant.contains(pos):
            key = (pos[0], pos[1])
            if key not in seen:
                seen.add(key)
                seeds.append(pos)

    natives = len(knowledge.members_in(owns_qi))
    cap = 4 * ctx.ell - natives
    yield Annotate("asep:recruit", {"quadrant": tuple(quadrant), "cap": cap})
    outcome = yield from dfsampling(
        proc,
        region=quadrant,
        owns=owns_qi,
        seeds=seeds,
        ell=ctx.ell,
        recruit_cap=cap,
        knowledge=knowledge,
        key_base=(*merge_key, "dfs", qi),
        frontier=ctx.frontier,
    )
    yield Move(parent.center)
    payload = (qi, list(proc.robot_ids), knowledge.copy(), outcome.covered)
    payloads = (yield Barrier(merge_key, 4, payload=payload)).value
    return payloads


def _terminate(
    proc: ProcessView,
    ctx: SeparatorContext,
    square: Rect,
    owns: Callable[[Point], bool],
    knowledge: TeamKnowledge,
) -> Generator[Action, Result, None]:
    """Terminating round: centrally wake every known sleeping robot we own."""
    targets = knowledge.sleeping_in(owns)
    yield Annotate("asep:terminate", {"square": tuple(square), "targets": len(targets)})
    ids = list(proc.robot_ids)
    # Park teammates: the leader alone executes the wake-up tree (Lemma 2's
    # single robot r); teammates leave through their continuations.
    if len(ids) > 1:
        yield Fork([([rid], _release_program(ctx, rid)) for rid in ids[1:]])
    if targets:
        target_ids = sorted(targets)
        positions = [targets[t] for t in target_ids]
        schedule = ctx.solver(proc.position, positions, region=square)
        plan, posmap = plan_from_schedule(schedule, target_ids, root_id=ids[0])
        yield from execute_wake_plan(
            proc, plan, posmap, my_id=ids[0], after=ctx.after
        )
    yield from _dissolve(proc, ctx)


def _wake_known(
    proc: ProcessView,
    ctx: SeparatorContext,
    region: Rect,
    knowledge: TeamKnowledge,
    owns: Callable[[Point], bool],
) -> Generator[Action, Result, None]:
    """Centrally wake every known sleeping robot owned in ``region``.

    Used for orphan quadrants (no team assigned) and the all-empty
    reorganization exit; the whole calling team moves together as the
    propagation root.
    """
    targets = knowledge.sleeping_in(owns)
    if not targets:
        return
    yield Annotate("asep:orphans", {"square": tuple(region), "targets": len(targets)})
    yield Move(region.center)
    target_ids = sorted(targets)
    positions = [targets[t] for t in target_ids]
    schedule = ctx.solver(proc.position, positions, region=region)
    plan, posmap = plan_from_schedule(schedule, target_ids, root_id=proc.robot_ids[0])
    yield from execute_wake_plan(
        proc, plan, posmap, my_id=proc.robot_ids[0], after=ctx.after
    )
    for rid in target_ids:
        knowledge.recruited(rid, targets[rid])


def _dissolve(
    proc: ProcessView, ctx: SeparatorContext
) -> Generator[Action, Result, None]:
    """Release every owned robot through its continuation and finish."""
    ids = list(proc.robot_ids)
    if ctx.on_release_team is not None and ctx.imports.issuperset(ids):
        if (yield from ctx.on_release_team(proc)):
            return
    if len(ids) > 1:
        yield Fork([([rid], _release_program(ctx, rid)) for rid in ids[1:]])
    cont = ctx.continuation_for(ids[0])
    if cont is not None:
        yield from cont(proc)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _quadrant_owns(
    owns: Callable[[Point], bool], square: Rect, index: int
) -> Callable[[Point], bool]:
    def predicate(p: Point) -> bool:
        return owns(p) and square.contains(p) and square.quadrant_index(p) == index

    return predicate


def _split_team(team: Sequence[int], parts: int) -> list[list[int]]:
    """Split ids into ``parts`` contiguous groups, sizes differing by <= 1."""
    base, extra = divmod(len(team), parts)
    groups: list[list[int]] = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        groups.append(list(team[start : start + size]))
        start += size
    return groups


def _explorer_program(
    ctx: SeparatorContext,
    qi: int,
    quadrant: Rect,
    owns_qi: Callable[[Point], bool],
    parent: Rect,
    knowledge: TeamKnowledge,
    merge_key: tuple,
) -> Program:
    """Program of a non-survivor exploration team: explore + recruit, meet
    at the parent center, then finish (robots absorbed by the survivor)."""

    def program(proc: ProcessView) -> Generator[Action, Result, None]:
        yield from _explore_and_recruit(
            proc, ctx, qi, quadrant, owns_qi, parent, knowledge, merge_key
        )

    return program


def _team_round_program(
    ctx: SeparatorContext,
    square: Rect,
    owns: Callable[[Point], bool],
    knowledge: TeamKnowledge,
) -> Program:
    """Program of a next-round team: move to its square's center, recurse."""

    def program(proc: ProcessView) -> Generator[Action, Result, None]:
        yield Move(square.center)
        yield from _round_loop(proc, ctx, square, owns, knowledge)

    return program


def _release_program(ctx: SeparatorContext, robot_id: int) -> Program:
    """Program for a robot leaving the run (import hand-back or recruit
    continuation); defaults to idling in place."""
    cont = ctx.continuation_for(robot_id)
    return idle if cont is None else cont


def idle(proc: ProcessView) -> Generator[Action, Result, None]:
    """A program that ends at once: its robots idle where they stand."""
    return
    yield  # pragma: no cover - makes this function a generator
