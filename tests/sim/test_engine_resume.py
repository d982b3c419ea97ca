"""Pause/resume determinism: ``run(until=...)`` must not reorder events.

Regression for the pushed-back event bug: pausing used to re-queue the
first beyond-``until`` event with a *fresh* sequence number, letting an
equal-time event that was scheduled later overtake it after the resume.
A paused-and-resumed execution must replay the identical trace of an
uninterrupted run — also when a pause lands inside a motion the engine
flies as one event (a ``Sweep``, a ``TeamSweep``, a ``Tour``).
"""

import hashlib
import json

import pytest

from repro.core.registry import get_algorithm
from repro.geometry import Point
from repro.instances import uniform_disk
from repro.sim import (
    SOURCE_ID, Annotate, Engine, Trace, Wait, WaitUntil, Wake, World, WorldConfig,
)


def _program_b(proc):
    yield WaitUntil(5.0)
    yield Annotate("B")
    yield Wait(1.0)
    yield Annotate("B2")


def _program_a(proc):
    # Wake the co-located sleeper into its own process, then race it to
    # the same absolute times.  A's timed events are always scheduled
    # before B's, so A must stay first at every tie.
    yield Wake(1, program=_program_b)
    yield WaitUntil(5.0)
    yield Annotate("A")
    yield Wait(1.0)
    yield Annotate("A2")


def _run(pauses=()):
    world = World(source=Point(0, 0), positions=[Point(0, 0)])
    trace = Trace()
    engine = Engine(world, trace=trace)
    engine.spawn(_program_a, robot_ids=[SOURCE_ID])
    for until in pauses:
        engine.run(until=until)
    result = engine.run()
    labels = [e.data["label"] for e in trace.of_kind("phase")]
    return labels, result


@pytest.mark.parametrize(
    "pauses",
    [
        (3.0,),            # pause strictly before the tied events
        (5.0,),            # pause exactly at the tie
        (3.0, 5.5),        # pause twice, straddling both ties
        (0.0, 3.0, 5.0, 5.5, 6.0),  # pathological stutter
    ],
)
def test_paused_run_replays_uninterrupted_order(pauses):
    baseline_labels, baseline = _run()
    paused_labels, paused = _run(pauses)
    assert baseline_labels == ["A", "B", "A2", "B2"]
    assert paused_labels == baseline_labels
    assert paused.termination_time == baseline.termination_time
    assert paused.makespan == baseline.makespan


def test_pause_is_observable_midway():
    world = World(source=Point(0, 0), positions=[Point(0, 0)])
    engine = Engine(world, trace=Trace())
    engine.spawn(_program_a, robot_ids=[SOURCE_ID])
    partial = engine.run(until=3.0)
    # Both processes are blocked on their WaitUntil(5.0): nothing has
    # been annotated yet, but the wake already happened at time 0.
    assert partial.awake_count == 2
    final = engine.run()
    assert final.termination_time == pytest.approx(6.0)


# -- pauses inside one-event motions -------------------------------------------


def _digest(trace):
    payload = [
        [e.time, e.kind, e.process_id, dict(sorted(e.data.items()))]
        for e in trace.events
    ]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _in_flight(engine):
    """The one-event motions in flight right now, by kind."""
    kinds = set()
    for proc in engine._processes.values():
        if proc.flight is not None:
            # AWave's hand-back is the one team sweep with no tail.
            kinds.add("TeamSweep" if proc.flight.sweep.arrive_at else "hand-back")
        elif proc.motion_to is not None and proc.motion_path is not None:
            kinds.add(type(proc.motion_path).__name__)
    return kinds


def _run_algorithm(algorithm, instance, params, stops=()):
    """Run ``algorithm`` with a ``run(until=...)`` pause at each of
    ``stops`` (ascending); returns the observables and what the pauses
    caught in flight."""
    spec = get_algorithm(algorithm)
    setup = spec.build(instance, spec.validate_params(params))
    trace = Trace(keep_looks=True)
    engine = Engine(instance.world(config=WorldConfig(budget=setup.budget)), trace=trace)
    engine.spawn(setup.program, [SOURCE_ID])
    caught = set()
    for until in stops:
        engine.run(until=until)
        caught |= _in_flight(engine)
    result = engine.run()
    observed = (
        _digest(trace), result.makespan, result.total_energy, result.termination_time,
    )
    return observed, caught


#: ``(algorithm, instance, params, stops)``: each stop lands inside the
#: one-event motion it names, whatever pauses are spread around it.
_MOTION_RUNS = [
    # AWave's frontier walk: the source's first lattice run flies over
    # [0, 21.04]; the first cold team explorations over [30213, 30647];
    # the first all-import hand-back leaves at 31621.8, as one flight.
    (
        "awave", uniform_disk(n=50, rho=10.0, seed=2), {"ell": 2},
        {10.0: "Sweep", 30400.0: "TeamSweep", 31650.0: "hand-back"},
    ),
    # AGrid (ell=4, window W ~ 261.3): round 1's followers fly their eight
    # windows as one Tour over [W, 9 W].
    ("agrid", uniform_disk(n=40, rho=8.0, seed=7), {}, {400.0: "Tour", 1500.0: "Tour"}),
]


@pytest.mark.parametrize(
    "algorithm,instance,params,landmarks", _MOTION_RUNS, ids=[r[0] for r in _MOTION_RUNS]
)
@pytest.mark.parametrize("pauses", [0, 4, 41])
def test_pauses_inside_one_event_motions_replay_the_run(
    algorithm, instance, params, landmarks, pauses
):
    baseline, _ = _run_algorithm(algorithm, instance, params)
    end = baseline[-1]
    spread = {end * k / (pauses + 1) for k in range(1, pauses + 1)}
    paused, caught = _run_algorithm(
        algorithm, instance, params, sorted(spread | set(landmarks))
    )
    assert paused == baseline
    assert set(landmarks.values()) <= caught
