"""Substrate micro-benchmarks: engine event throughput.

Not a paper artifact — a regression guard for the simulator's hot paths
(move scheduling, snapshot queries against the sleeping/stationary/idle
indices), which every experiment above depends on.

The workload bodies live in :mod:`repro.experiments.bench` — the same
functions `freezetag bench` measures into ``BENCH_engine.json``, so the
pytest-benchmark view and the committed baseline always describe the
same code path.

``test_bench_move_look_cycle`` runs under the counters-only
:class:`~repro.sim.NullTrace` — the sweep-default sink whose
zero-allocation fast path is part of the PR 4 hot-path contract; the
``_traced`` variant keeps the full-event-trace configuration (the
pre-PR 4 default) on the record so both paths are watched.
"""

from repro.experiments.bench import (
    run_move_look_cycle,
    run_wake_heavy,
)
from repro.sim import NullTrace, Trace


def test_bench_move_look_cycle(benchmark):
    """Time 2000 move+look cycles through a 5000-sleeper world."""
    events = benchmark.pedantic(
        lambda: run_move_look_cycle(trace=NullTrace()),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert events > 0


def test_bench_move_look_cycle_traced(benchmark):
    """Same cycle with the full event trace enabled (default Trace)."""
    events = benchmark.pedantic(
        lambda: run_move_look_cycle(trace=Trace()),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert events > 0


def test_bench_wake_heavy(benchmark):
    """Time waking 1000 robots through a chain of join-team wakes."""
    events = benchmark.pedantic(
        lambda: run_wake_heavy(trace=NullTrace()),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert events > 0


def test_trace_disabled_records_nothing():
    """The no-allocation contract: a disabled trace sees zero events.

    The engine must never call ``Trace.append`` (nor build event kwargs)
    against a disabled sink — pinned here by a sink whose ``append``
    explodes.
    """

    class ExplodingTrace(NullTrace):
        def append(self, *args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("append called on a disabled trace")

    trace = ExplodingTrace()
    run_wake_heavy(count=50, trace=trace)
    assert len(trace.events) == 0
    assert trace.look_count == 0
