"""Golden-trace pins: the hot-path overhaul must be observationally inert.

The PR 4 engine rewrite (dispatch table, trace fast path, cached team
speeds and views, frozen sleeping index, mover-bbox index, fat-ball
snapshot caching) is performance-only by contract: traces, makespans and
energies must be byte-identical to the pre-overhaul engine.  The digests
below were generated on the pre-PR 4 engine (commit f54b287) and pin that
contract; any future optimization that changes one of them is changing
observable behavior, not just speed.
"""

import hashlib
import json

import pytest

from repro.core.runner import RunRequest, run_algorithm
from repro.instances import make_instance
from repro.sim import Trace


def trace_digest(trace: Trace) -> str:
    """Canonical digest over every recorded event (order-sensitive)."""
    payload = [
        [e.time, e.kind, e.process_id, dict(sorted(e.data.items()))]
        for e in trace.events
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
        "e9137af34af7ae4c4831ee783a83ed0715c85d013110cbfc74ae3d78150ff82b",
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
    (
        "legacy_awave", "uniform_disk", {"n": 50, "rho": 10.0, "seed": 2}, {"ell": 2},
        "10da75eecbbbf0b477cead29fddbc71128227a7acb2b94b1eb20153bd7252a18",
        1020.9923200513895, 716525.0280188909,
    ),
    (
        "awave", "uniform_disk", {"n": 50, "rho": 10.0, "seed": 2}, {"ell": 2},
        "2381879e3eee967200b51f1f4f45bab5370c4ea9509f68d0690a19882d4a4c26",
        1020.9923200513895, 716525.0280188909,
    ),
]


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
        == "e3c8d75b39cc22122b128b9c245445b165970aff51d5c2c66e6bf6617904e67c"
    )


def test_golden_trace_fast():
    """A cheap always-on pin (fast tier): the greedy baseline run."""
    algorithm, family, kwargs, params, digest, makespan, energy = GOLDEN_RUNS[0]
    instance = make_instance(family, **kwargs)
    trace = Trace(keep_looks=True)
    run = run_algorithm(algorithm, instance, params, trace=trace)
    assert run.makespan == makespan
    assert trace_digest(trace) == digest
