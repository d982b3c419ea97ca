"""Golden-trace pins: the hot-path overhaul must be observationally inert.

The PR 4 engine rewrite (dispatch table, trace fast path, cached team
speeds and views, frozen sleeping index, mover-bbox index, fat-ball
snapshot caching) is performance-only by contract: traces, makespans and
energies must be byte-identical to the pre-overhaul engine.  The digests
below were generated on the pre-PR 4 engine (commit f54b287) and pin that
contract; any future optimization that changes one of them is changing
observable behavior, not just speed.

Two kinds of change have re-pinned a digest while its makespan and energy
pins stayed put, each checked against the trace it replaced.  When a cold
AWave team exploration became one ``TeamSweep``, the ``awave`` digest lost
the exploration's process bookkeeping (see the note on its row), and again
when its all-import hand-back became one team sweep.  When an
AGrid follower began walking its eight windows as one ``Tour``, the
``agrid`` digest and the crash-scenario digest (also an AGrid run) changed
in exactly one way: each follower's eight per-leg ``move`` entries became
one entry whose length is their sum, so with ``move`` entries dropped both
event streams hash as before (every Look, wake, phase and process start
and end in the same order).

The re-pin rule: a digest is re-pinned only with a second digest of the
same trace with the changed field dropped, pinned to its value before the
change, so the pin shows that nothing else moved.  When AGrid's cell
explorations began taking sleepers-only Looks, the ``agrid`` and
crash-scenario digests changed in the ``count`` of those ``look`` entries
alone (the number of sleepers seen, not of all robots); with every look's
``count`` dropped, both traces hash to the values the engine gave at
commit 51cccbd, before the change, and both tests assert that too.  When
crash-aware AGrid's election began holding every cohort member at its
corner until all had looked (a ``Wait(0.0)`` after the election Look),
the crash-scenario digest and its look-count-free digest changed in the
order of entries within an instant alone: at 3 of the trace's 308
instants each member's election ``look`` entry used to be followed by its
``move`` entry, and now every ``look`` comes first, with all 3,074
entries kept.  With each instant's entries grouped by kind (a stable
sort on ``(time, kind)``, which keeps the order within each kind), the
trace hashes to the value the engine gave at commit 7272870, before the
change, and the test asserts that too.
"""

import hashlib
import json

import pytest

from repro.core.runner import RunRequest, run_algorithm
from repro.instances import make_instance
from repro.sim import Trace


def trace_digest(trace: Trace, look_counts: bool = True, by_kind: bool = False) -> str:
    """Canonical digest over every recorded event (order-sensitive);
    without ``look_counts``, every ``look`` entry's ``count`` is dropped;
    ``by_kind`` groups each instant's entries by kind first (a stable
    sort on ``(time, kind)``)."""
    events = trace.events
    if by_kind:
        events = sorted(events, key=lambda e: (e.time, e.kind))
    payload = [
        [
            e.time, e.kind, e.process_id,
            {k: v for k, v in sorted(e.data.items())
             if look_counts or (e.kind, k) != ("look", "count")},
        ]
        for e in events
    ]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: (algorithm, family, generator kwargs, params, digest, makespan, energy)
#: — digests generated on the pre-PR 4 engine.
GOLDEN_RUNS = [
    (
        "greedy", "clusters", {"n": 30, "n_clusters": 3, "rho": 8.0, "seed": 3}, {},
        "ffcfb424bc660ee85ef243d445a9ad1f4a55ad3ec38fabe5fa8b729d96b2e00c",
        10.365082555642331, 48.89363604911326,
    ),
    (
        "aseparator", "uniform_disk", {"n": 40, "rho": 10.0, "seed": 0}, {},
        "de5034ba2a2a9bf0133281ab535a955602306d52eb60860903fc40c4abf99015",
        1280.70695557567, 4805.6467967571925,
    ),
    (
        "agrid", "uniform_disk", {"n": 60, "rho": 12.0, "seed": 1}, {"ell": 2},
        "1c1164043405cc35d722bf83f721864687156b4958b9229a470fc6140affb43a",
        3103.6107264334523, 5789.2245090111865,
    ),
    # The PR 5 AWave pins: ``legacy_awave`` must reproduce the pre-rewrite
    # ``awave`` byte trace (digest generated at commit 56f89c5, before the
    # sparse-wave-frontier rewrite) — proving the differential-testing
    # reference IS the old algorithm.  The frontier ``awave`` pins the same
    # makespan and energy (the equivalence contract) under its own, far
    # smaller, trace.  Its digest was regenerated when a cold team
    # exploration became one ``TeamSweep``: the dropped entries are exactly
    # the fork, barrier, absorb and child process start/end entries of
    # those explorations, and the ordered wake/look/move/phase stream and
    # the multiset of sweep (time, length, waypoints) entries are unchanged.
    # It was regenerated again when AWave's all-import hand-back became one
    # team sweep (digest 2381879e... before; with
    # ``awave._hand_back_admissible`` monkeypatched to refuse, which also
    # refuses window 8's park, the run still reproduces it): the 392
    # per-import process start/end pairs are gone, the 357 per-import
    # ``move`` entries are ``sweep`` entries of the same time, length and
    # waypoints, each hand-back's fork starts one idle group instead of
    # one process per import, its absorb (the same robots in the same
    # order) comes at the hand-back instead of at the next window start,
    # and the ordered look/wake/phase/barrier stream is unchanged.
    (
        "legacy_awave", "uniform_disk", {"n": 50, "rho": 10.0, "seed": 2}, {"ell": 2},
        "10da75eecbbbf0b477cead29fddbc71128227a7acb2b94b1eb20153bd7252a18",
        1020.9923200513895, 716525.0280188909,
    ),
    (
        "awave", "uniform_disk", {"n": 50, "rho": 10.0, "seed": 2}, {"ell": 2},
        "b05c5d31be635952626a95810706147e8e5b61a4c93dbae9cc47a96609e7e842",
        1020.9923200513895, 716525.0280188909,
    ),
]


#: Digests without look counts, of the runs whose looks saw fewer robots
#: when AGrid took sleepers-only Looks: the values at commit 51cccbd.
LOOK_COUNT_FREE = {
    "agrid": "d78faa65ed739c26167ea3f12684a0ec008c1f27eda5579acc823e80d430dabe",
}


@pytest.mark.parametrize(
    "algorithm,family,kwargs,params,digest,makespan,energy",
    GOLDEN_RUNS,
    ids=[row[0] for row in GOLDEN_RUNS],
)
@pytest.mark.slow
def test_golden_trace(algorithm, family, kwargs, params, digest, makespan, energy):
    instance = make_instance(family, **kwargs)
    trace = Trace(keep_looks=True)
    run = run_algorithm(algorithm, instance, params, trace=trace)
    assert run.makespan == makespan
    assert run.result.total_energy == energy
    assert trace_digest(trace) == digest
    if algorithm in LOOK_COUNT_FREE:
        assert trace_digest(trace, look_counts=False) == LOOK_COUNT_FREE[algorithm]


@pytest.mark.slow
def test_golden_trace_crash_scenario():
    """Crash-on-wake path (idle parking, inherited wake plans) pinned too."""
    request = RunRequest(
        algorithm="agrid",
        scenario="fragile_swarm",
        family_kwargs={"n": 30, "rho": 8.0, "seed": 4},
        params={"ell": 2},
    )
    trace = Trace(keep_looks=True)
    run = request.execute(trace=trace)
    assert run.makespan == 1990.1021618282573
    assert run.result.total_energy == 3094.6785203666313
    assert (
        trace_digest(trace)
        == "2f3f330c8a186812e7cc20dd72f30fbce7be255e2af31c7dd68c2c61e04a3ec2"
    )
    assert (
        trace_digest(trace, look_counts=False)
        == "7359fae93c3d34c29177cb95c2d57b3d6cc2fb7f92ced7466aba777aa4845b0c"
    )
    # Grouped by kind within each instant: the value at commit 7272870.
    assert (
        trace_digest(trace, by_kind=True)
        == "b963cad5dbf056c4a15f73fd85653f2879f9eae78e550f0a88bc97ac51ecddd4"
    )


def test_golden_trace_fast():
    """A cheap always-on pin (fast tier): the greedy baseline run."""
    algorithm, family, kwargs, params, digest, makespan, energy = GOLDEN_RUNS[0]
    instance = make_instance(family, **kwargs)
    trace = Trace(keep_looks=True)
    run = run_algorithm(algorithm, instance, params, trace=trace)
    assert run.makespan == makespan
    assert trace_digest(trace) == digest
