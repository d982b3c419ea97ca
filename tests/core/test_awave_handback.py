"""AWave's all-import hand-back as one team sweep, against the per-import path.

When an embedded ``ASeparator`` run dissolves a team made only of the
window's imports, ``awave`` hands the team back in one flight: an
idle-group ``Fork``, ``Wait(0.0)`` and one ``Absorb`` put the robots in
the order the leader's absorb would, then one ``TeamSweep`` of one-stop
runs walks every import to the next corner at its own speed; after
window 8 the idle-group ``Fork`` alone parks the team.  The per-import
path — one process per import walking to the corner (or parking), the
leader absorbing them at the window start — is the reference: refusing
every hand-back, parks included (``_hand_back_admissible`` monkeypatched
to say no), must leave every observable as it is, with more engine
events.  An import that would
arrive late, or that the walk would bring near its budget, keeps the
per-import path, so an abort happens where and when it always did.
"""

import pytest

from repro.core import awave, runner
from repro.core.agrid import CellGrid
from repro.core.aseparator import SeparatorContext, _dissolve
from repro.core.runner import RunRequest
from repro.geometry import Point, frontier_for
from repro.sim import Engine, Trace, World
from repro.sim.errors import AbsorbError, EnergyBudgetExceeded


def observe(request, monkeypatch, refuse):
    """Run ``request`` traced; with ``refuse`` every hand-back is refused."""
    engines = []

    class Recording(Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    admissible = []

    def spy(*args):
        admissible.append(False if refuse else real(*args))
        return admissible[-1]

    real = awave._hand_back_admissible
    with monkeypatch.context() as patch:
        patch.setattr(runner, "Engine", Recording)
        patch.setattr(awave, "_hand_back_admissible", spy)
        trace = Trace(keep_looks=True)
        result = request.execute(trace=trace).result
    (engine,) = engines
    seen = [
        (e.time, e.kind, dict(sorted(e.data.items())))
        for e in trace.events
        if e.kind in ("look", "wake")
    ]
    return {
        "wake_times": result.wake_times,
        "odometers": {rid: r.odometer.hex() for rid, r in engine.world.robots.items()},
        "snapshots": result.snapshots,
        "seen": seen,
        "makespan": result.makespan,
        "termination": result.termination_time,
        "woke_all": result.woke_all,
    }, result.events_processed, admissible


REQUESTS = {
    "uniform_disk": dict(
        family="uniform_disk", family_kwargs={"n": 60, "rho": 9.0, "seed": 3},
        params={"ell": 2},
    ),
    "slow_swarm": dict(
        scenario="slow_swarm", family_kwargs={"n": 60, "rho": 9.0, "seed": 5},
        params={"ell": 2}, world_params={"slow_fraction": 0.3},
    ),
    "fragile_swarm": dict(
        scenario="fragile_swarm", family_kwargs={"n": 60, "rho": 9.0, "seed": 6},
        params={"ell": 2},
    ),
    "enforce_budget": dict(
        family="uniform_disk", family_kwargs={"n": 40, "rho": 8.0, "seed": 9},
        params={"ell": 2, "enforce_budget": True},
    ),
}


@pytest.mark.parametrize(
    "name",
    [
        "uniform_disk",
        pytest.param("slow_swarm", marks=pytest.mark.slow),
        pytest.param("fragile_swarm", marks=pytest.mark.slow),
        pytest.param("enforce_budget", marks=pytest.mark.slow),
    ],
)
def test_team_hand_back_is_the_per_import_path(name, monkeypatch):
    request = RunRequest(algorithm="awave", **REQUESTS[name])
    lean, lean_events, taken = observe(request, monkeypatch, refuse=False)
    reference, reference_events, refused = observe(request, monkeypatch, refuse=True)
    assert lean == reference
    assert any(taken) and not any(refused)
    assert lean_events < reference_events


def test_refusal_leaves_no_hand_back(monkeypatch):
    """Refusing admissibility refuses every hand-back, window 8's park
    included: the trace is the one of a run offered no team hand-back."""
    request = RunRequest(algorithm="awave", **REQUESTS["uniform_disk"])
    plain = awave.SeparatorContext

    def trace_with(name, value):
        with monkeypatch.context() as patch:
            patch.setattr(awave, name, value)
            trace = Trace(keep_looks=True)
            request.execute(trace=trace)
        return [(e.time, e.kind, e.process_id, e.data) for e in trace.events]

    refused = trace_with("_hand_back_admissible", lambda *args: False)
    offered_none = trace_with(
        "SeparatorContext", lambda **kw: plain(**{**kw, "on_release_team": None})
    )
    assert refused == offered_none


# -- inadmissible hand-backs ----------------------------------------------------

#: Window 1 of round 1 from cell (0, 0); the team dissolves at the centre
#: of that window's cell and hands back to window 2's corner.
R = awave.awave_cell_width(4)


def hand_back(monkeypatch, refuse, speeds=None, budgets=None):
    """Dissolve a team of 16 imports after window 1 and let the wave run
    on; returns the trace, the error it ended with (or None) and what
    the admissibility check answered."""
    grid = CellGrid(source=Point(0.0, 0.0), width=R)
    here = grid.rect(grid.neighbor((0, 0), 1)).center
    k = 16
    world = World(source=here, positions=[here] * (k - 1) + [Point(1e5, 1e5)])
    for rid in range(k):
        if rid:
            world.mark_awake(rid, 0.0, None)
        world.robots[rid].speed = (speeds or {}).get(rid, 1.0)
        world.robots[rid].budget = (budgets or {}).get(rid, world.robots[rid].budget)
    frontier = frontier_for([Point(1e5, 1e5)], world.visibility_radius)
    plan = awave._WavePlan(grid, 4, 1.0, frontier)
    imports = tuple(range(k))
    regroup = awave._Regroup(plan, 1, (0, 0), 1, imports)
    ctx = SeparatorContext(
        ell=4, key_base=("test",), imports=frozenset(imports),
        on_release=regroup, on_release_team=regroup.team, frontier=frontier,
    )

    def leader(proc):
        yield from _dissolve(proc, ctx)

    answers = []
    real = awave._hand_back_admissible

    def spy(*args):
        answers.append(False if refuse else real(*args))
        return answers[-1]

    trace = Trace(keep_looks=True)
    engine = Engine(world, trace=trace)
    engine.spawn(leader, list(imports))
    error = None
    with monkeypatch.context() as patch:
        patch.setattr(awave, "_hand_back_admissible", spy)
        try:
            engine.run()
        except (AbsorbError, EnergyBudgetExceeded) as err:
            error = repr(err)
    return [(e.time, e.kind, e.process_id, e.data) for e in trace.events], error, answers


def test_late_import_keeps_the_per_import_path(monkeypatch):
    """A crawling import would reach the corner after window 2 opens: the
    team is handed back import by import, and the leader's absorb fails
    at the window start exactly as it always did."""
    speeds = {7: 0.001}
    events, error, answers = hand_back(monkeypatch, False, speeds=speeds)
    assert answers[0] is False
    assert "AbsorbError" in error
    assert (events, error) == hand_back(monkeypatch, True, speeds=speeds)[:2]


def test_budget_tight_import_keeps_the_per_import_path(monkeypatch):
    """An import whose budget barely covers the walk to the corner: the
    walk is made Move by Move, and the next walk overruns where it
    always did."""
    grid = CellGrid(source=Point(0.0, 0.0), width=R)
    here = grid.rect(grid.neighbor((0, 0), 1)).center
    corner = grid.rect(grid.neighbor((0, 0), 2)).lower_left
    walk = ((here[0] - corner[0]) ** 2 + (here[1] - corner[1]) ** 2) ** 0.5
    budgets = {9: walk + 0.5 * awave.BUDGET_MARGIN}
    events, error, answers = hand_back(monkeypatch, False, budgets=budgets)
    assert answers[0] is False
    assert "EnergyBudgetExceeded" in error
    assert (events, error) == hand_back(monkeypatch, True, budgets=budgets)[:2]


def test_admissible_hand_back_is_one_flight(monkeypatch):
    """The same team with no crawler and ample budgets flies: one idle
    group, no process per import, every observable as the per-import
    path leaves it."""
    lean, error, answers = hand_back(monkeypatch, False)
    reference, reference_error, _ = hand_back(monkeypatch, True)
    assert error is None and reference_error is None
    assert answers[0] is True
    starts = [e for e in lean if e[1] == "process_start"]
    assert len(starts) < len([e for e in reference if e[1] == "process_start"])

    def seen(events):
        return [(t, kind, data) for t, kind, _, data in events if kind in ("look", "wake")]

    assert seen(lean) == seen(reference)
