"""Tracked performance baselines: workloads, measurement, tolerance gate.

The ROADMAP's "runs as fast as the hardware allows" needs a *trajectory*:
numbers that are regenerated by one command, committed next to the code,
and compared by CI so a hot-path regression is visible in the PR that
introduces it.  This module is that machinery:

* a registry of benchmark **workloads** in two suites — ``engine``
  (substrate micro-benchmarks: the move+look cycle, wake chains,
  harness dispatch) and ``scale`` (large-``n`` end-to-end algorithm runs,
  including the 100k-sleeper AGrid wave) — each with a ``quick`` or
  ``full`` tier;
* :func:`run_suite` — measure wall time (best of ``repeat``),
  events/second (the engine's processed-event counter) and peak RSS, and
  emit the ``BENCH_engine.json`` / ``BENCH_scale.json`` payloads;
* :func:`compare` — the CI gate: fresh measurements vs the committed
  baseline within a relative tolerance (slowdowns beyond it fail; large
  speedups are reported so the baseline gets refreshed).

CLI: ``freezetag bench`` (see ``freezetag bench --help``).

Peak RSS is the process high-water mark (``ru_maxrss``), which is
monotone across workloads in one process — read it as "the run fits in
this much memory", not as a per-workload delta.
"""

from __future__ import annotations

import json
import math
import random
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = [
    "BenchWorkload",
    "Measurement",
    "SuiteReport",
    "bench_workloads",
    "run_suite",
    "compare",
    "baseline_path",
]

#: Bump when the JSON layout changes incompatibly.
_SCHEMA_VERSION = 1

SUITES = ("engine", "scale")
TIERS = ("quick", "full")


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchWorkload:
    """One named benchmark: a zero-argument runner plus bookkeeping.

    ``runner`` executes the workload once and returns the number of engine
    events it processed (0 when not applicable).  ``tier="quick"``
    workloads run in both tiers; ``"full"`` only under ``--tier full``.
    """

    name: str
    suite: str
    tier: str
    runner: Callable[[], int]
    repeat: int = 3
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.tier not in TIERS:
            raise ValueError(f"unknown tier {self.tier!r}")


_SLEEPER_CACHE: dict[tuple[int, float], list] = {}


def _move_look_world(n: int = 5000, half: float = 50.0):
    from repro.geometry import Point
    from repro.sim import World

    # Sampling the sleeper positions is instance *generation*, not engine
    # work — memoized so repeated measurement rounds time world
    # construction + the simulation only (the historical bench semantics).
    sleepers = _SLEEPER_CACHE.get((n, half))
    if sleepers is None:
        rng = random.Random(0)
        sleepers = _SLEEPER_CACHE[(n, half)] = [
            Point(rng.uniform(-half, half), rng.uniform(-half, half))
            for _ in range(n)
        ]
    return World(source=Point(0, 0), positions=sleepers)


def run_move_look_cycle(cycles: int = 2000, n: int = 5000, trace=None) -> int:
    """The canonical engine micro-workload: a single process advancing in
    0.04 steps through a ``n``-sleeper world, one snapshot per move."""
    from repro.geometry import Point
    from repro.sim import SOURCE_ID, Engine, Look, Move

    world = _move_look_world(n=n)
    engine = Engine(world, trace=trace)

    def program(proc):
        x = 0.0
        for _ in range(cycles):
            x += 0.04
            yield Move(Point(x, 0.0))
            (yield Look())
        return

    engine.spawn(program, [SOURCE_ID])
    result = engine.run()
    assert result.snapshots == cycles
    return result.events_processed


def run_wake_heavy(count: int = 1000, trace=None) -> int:
    """Wake a chain of ``count`` robots into one growing team."""
    from repro.geometry import Point
    from repro.sim import SOURCE_ID, Engine, Move, Wake, World

    sleepers = [Point(0.5 * (i + 1), 0.0) for i in range(count)]
    world = World(source=Point(0, 0), positions=sleepers)
    engine = Engine(world, trace=trace)

    def program(proc):
        for rid in range(1, count + 1):
            yield Move(Point(0.5 * rid, 0.0))
            yield Wake(rid)

    engine.spawn(program, [SOURCE_ID])
    result = engine.run()
    assert result.woke_all
    return result.events_processed


def run_harness_dispatch(jobs: int = 24, n: int = 12) -> int:
    """Sweep-harness dispatch overhead on the ``serial`` backend.

    Pushes a batch of tiny identical-cost jobs through
    :func:`~repro.experiments.harness.run_requests` so the measurement is
    dominated by the per-job machinery the executor redesign owns —
    request expansion keys, backend submit/settle bookkeeping, record
    normalisation — rather than by simulation work.  Guards the
    executor layer the way ``move_look_cycle`` guards the engine hot path.
    """
    from repro.core.runner import RunRequest
    from repro.experiments.harness import run_requests

    requests = [
        RunRequest(
            "agrid", family="uniform_disk",
            family_kwargs={"n": n, "rho": 4.0, "seed": seed},
        )
        for seed in range(jobs)
    ]
    records = run_requests(requests, executor="serial")
    # Records are flat summaries (no engine event counter); snapshots is
    # the closest per-run volume proxy and keeps events/s meaningful.
    return sum(r["snapshots"] for r in records)


def run_scale_request(
    algorithm: str,
    n: int,
    rho: float,
    params: dict[str, Any],
    scenario: str | None = None,
    world_params: dict[str, Any] | None = None,
) -> int:
    """One large-``n`` end-to-end run through :class:`RunRequest`.

    Uses the request's ``trace="auto"`` knob, i.e. the counters-only
    ``NullTrace`` sweep default — exactly what production sweeps pay.
    Pins both ``ell`` and ``rho`` so no instance-parameter estimation
    (connectivity thresholds) pollutes the engine measurement.
    """
    from repro.core.runner import RunRequest

    kwargs: dict[str, Any] = {"n": n, "rho": rho, "seed": 0}
    if scenario is not None:
        request = RunRequest(
            algorithm=algorithm, scenario=scenario, family_kwargs=kwargs,
            params=params, world_params=world_params or {},
        )
    else:
        request = RunRequest(
            algorithm=algorithm, family="uniform_disk", family_kwargs=kwargs,
            params=params,
        )
    run = request.execute()
    if not run.woke_all:
        raise RuntimeError(f"bench workload failed to wake all: {request.label()}")
    return run.result.events_processed


def bench_workloads() -> tuple[BenchWorkload, ...]:
    """The shipped workload registry (stable names = stable baselines)."""
    from repro.sim import NullTrace

    return (
        # -- engine suite ------------------------------------------------
        BenchWorkload(
            name="move_look_cycle",
            suite="engine", tier="quick", repeat=5,
            runner=lambda: run_move_look_cycle(trace=NullTrace()),
            meta={"n": 5000, "cycles": 2000, "trace": "null"},
        ),
        BenchWorkload(
            name="move_look_cycle_traced",
            suite="engine", tier="quick", repeat=5,
            runner=lambda: run_move_look_cycle(trace=None),
            meta={"n": 5000, "cycles": 2000, "trace": "events"},
        ),
        BenchWorkload(
            name="wake_heavy",
            suite="engine", tier="quick", repeat=3,
            runner=lambda: run_wake_heavy(trace=NullTrace()),
            meta={"count": 1000, "trace": "null"},
        ),
        BenchWorkload(
            name="harness_dispatch",
            suite="engine", tier="quick", repeat=3,
            runner=run_harness_dispatch,
            meta={"jobs": 24, "n": 12, "algorithm": "agrid",
                  "executor": "serial"},
        ),
        # -- scale suite -------------------------------------------------
        BenchWorkload(
            name="agrid_uniform_20k",
            suite="scale", tier="quick", repeat=1,
            runner=lambda: run_scale_request(
                "agrid", n=20000, rho=85.0, params={"ell": 2, "rho": 85.0}
            ),
            meta={"algorithm": "agrid", "n": 20000, "rho": 85.0, "ell": 2},
        ),
        BenchWorkload(
            name="quadtree_uniform_20k",
            suite="scale", tier="quick", repeat=1,
            runner=lambda: run_scale_request(
                "quadtree", n=20000, rho=85.0, params={"ell": 2, "rho": 85.0}
            ),
            meta={"algorithm": "quadtree", "n": 20000, "rho": 85.0, "ell": 2},
        ),
        BenchWorkload(
            # Historically the event-volume outlier: ~1700 engine events
            # per robot capped AWave's feasible size near n=500 while
            # AGrid handled 100k.  The PR 5 sparse wave frontier (batched
            # sweeps through provably-empty exploration stretches) cut
            # events/robot >10x and wall ~20x; this workload is kept as
            # the measured record of that closure, and the differential
            # suite (tests/core/test_awave_differential.py) pins that the
            # speedup changed no observable.
            name="awave_uniform_500",
            suite="scale", tier="full", repeat=1,
            runner=lambda: run_scale_request(
                "awave", n=500, rho=14.0, params={"ell": 2, "rho": 14.0}
            ),
            meta={"algorithm": "awave", "n": 500, "rho": 14.0, "ell": 2},
        ),
        BenchWorkload(
            # The new AWave scale point gated by CI (quick tier runs in
            # the bench-smoke job on main): 10x the pre-frontier
            # feasibility record, expected well under a minute.
            name="awave_uniform_5k",
            suite="scale", tier="quick", repeat=1,
            runner=lambda: run_scale_request(
                "awave", n=5000, rho=42.0, params={"ell": 2, "rho": 42.0}
            ),
            meta={"algorithm": "awave", "n": 5000, "rho": 42.0, "ell": 2},
        ),
        BenchWorkload(
            # ~40x the pre-frontier record: AWave at AGrid's quick-tier
            # scale (same instance family and density scaling, rho ~
            # 0.6*sqrt(n)).
            name="awave_uniform_20k",
            suite="scale", tier="full", repeat=1,
            runner=lambda: run_scale_request(
                "awave", n=20000, rho=85.0, params={"ell": 2, "rho": 85.0}
            ),
            meta={"algorithm": "awave", "n": 20000, "rho": 85.0, "ell": 2},
        ),
        BenchWorkload(
            name="agrid_slow_swarm_10k",
            suite="scale", tier="quick", repeat=1,
            runner=lambda: run_scale_request(
                "agrid", n=10000, rho=60.0, params={"ell": 2, "rho": 60.0},
                scenario="slow_swarm", world_params={"slow_fraction": 0.2},
            ),
            meta={
                "algorithm": "agrid", "scenario": "slow_swarm", "n": 10000,
                "rho": 60.0, "ell": 2, "slow_fraction": 0.2,
            },
        ),
        BenchWorkload(
            name="agrid_uniform_100k",
            suite="scale", tier="full", repeat=1,
            runner=lambda: run_scale_request(
                "agrid", n=100000, rho=190.0, params={"ell": 2, "rho": 190.0}
            ),
            meta={"algorithm": "agrid", "n": 100000, "rho": 190.0, "ell": 2},
        ),
    )


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

@dataclass
class Measurement:
    """Best-of-``repeat`` measurement of one workload."""

    name: str
    wall_s: float
    events: int
    events_per_s: float
    peak_rss_mb: float
    meta: dict[str, Any]

    def as_dict(self) -> dict[str, Any]:
        return {
            "wall_s": round(self.wall_s, 4),
            "events": self.events,
            "events_per_s": round(self.events_per_s, 1),
            "peak_rss_mb": round(self.peak_rss_mb, 1),
            "meta": self.meta,
        }


@dataclass
class SuiteReport:
    """All measurements of one suite run (one ``BENCH_<suite>.json``)."""

    suite: str
    tier: str
    measurements: list[Measurement]

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": _SCHEMA_VERSION,
            "suite": self.suite,
            "tier": self.tier,
            "workloads": {m.name: m.as_dict() for m in self.measurements},
        }

    def write(self, directory: str | Path) -> Path:
        """Write (or refresh) the suite's ``BENCH_<suite>.json``.

        Merge-on-write: baseline entries for workloads *not* measured in
        this run are carried over unchanged, so refreshing with the quick
        tier never silently drops the committed full-tier numbers (the
        100k run).  The recorded ``tier`` stays ``"full"`` when any
        carried-over or fresh entry came from the full tier.
        """
        path = baseline_path(self.suite, directory)
        payload = self.as_dict()
        try:
            existing = json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            existing = None
        if existing is not None:
            carried = {
                name: entry
                for name, entry in existing.get("workloads", {}).items()
                if name not in payload["workloads"]
            }
            if carried:
                payload["workloads"].update(carried)
                if existing.get("tier") == "full":
                    payload["tier"] = "full"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path


def baseline_path(suite: str, directory: str | Path = ".") -> Path:
    return Path(directory) / f"BENCH_{suite}.json"


def _peak_rss_mb() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return usage / (1024.0 * 1024.0)
    return usage / 1024.0


def measure(workload: BenchWorkload) -> Measurement:
    """Run ``workload.repeat`` times; keep the best wall time."""
    best_wall = math.inf
    events = 0
    for _ in range(max(1, workload.repeat)):
        start = time.perf_counter()
        run_events = workload.runner()
        wall = time.perf_counter() - start
        if wall < best_wall:
            best_wall = wall
            events = run_events
    return Measurement(
        name=workload.name,
        wall_s=best_wall,
        events=events,
        events_per_s=(events / best_wall) if best_wall > 0 else 0.0,
        peak_rss_mb=_peak_rss_mb(),
        meta=dict(workload.meta),
    )


def run_suite(
    suite: str,
    tier: str = "quick",
    progress: Callable[[str], None] | None = None,
    workloads: Iterable[BenchWorkload] | None = None,
) -> SuiteReport:
    """Measure every workload of ``suite`` admitted by ``tier``."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; choose from {TIERS}")
    selected = [
        w
        for w in (bench_workloads() if workloads is None else workloads)
        if w.suite == suite and (tier == "full" or w.tier == "quick")
    ]
    measurements: list[Measurement] = []
    for workload in selected:
        if progress is not None:
            progress(f"[{suite}] {workload.name} (x{workload.repeat}) ...")
        m = measure(workload)
        if progress is not None:
            progress(
                f"[{suite}] {workload.name}: {m.wall_s:.3f}s "
                f"({m.events_per_s:,.0f} events/s, rss {m.peak_rss_mb:.0f}MB)"
            )
        measurements.append(m)
    return SuiteReport(suite=suite, tier=tier, measurements=measurements)


# ---------------------------------------------------------------------------
# The tolerance gate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Delta:
    """One workload's fresh-vs-baseline comparison."""

    name: str
    kind: str          # "ok" | "regression" | "improvement" | "new" | "missing"
    base_wall: float | None
    fresh_wall: float | None

    def line(self) -> str:
        if self.kind == "new":
            return f"  NEW        {self.name}: {self.fresh_wall:.3f}s (no baseline)"
        if self.kind == "missing":
            return f"  MISSING    {self.name}: baseline {self.base_wall:.3f}s, not measured"
        ratio = self.fresh_wall / self.base_wall if self.base_wall else math.inf
        tag = {"ok": "ok", "regression": "REGRESSION", "improvement": "IMPROVED"}[self.kind]
        return (
            f"  {tag:<10} {self.name}: {self.base_wall:.3f}s -> "
            f"{self.fresh_wall:.3f}s ({ratio:.2f}x)"
        )


def compare(
    baseline: dict[str, Any],
    fresh: SuiteReport,
    tolerance: float = 0.25,
) -> tuple[list[Delta], bool]:
    """Fresh measurements vs a committed baseline payload.

    Returns ``(deltas, ok)``.  A workload is a *regression* when its wall
    time exceeds the baseline by more than ``tolerance`` (relative) —
    those fail the gate.  Speedups beyond the tolerance pass but are
    flagged so the baseline gets regenerated; workloads present on only
    one side are reported and pass (they gate nothing).
    """
    base_workloads: dict[str, Any] = baseline.get("workloads", {})
    fresh_by_name = {m.name: m for m in fresh.measurements}
    deltas: list[Delta] = []
    ok = True
    for name, m in fresh_by_name.items():
        base = base_workloads.get(name)
        if base is None:
            deltas.append(Delta(name, "new", None, m.wall_s))
            continue
        base_wall = float(base["wall_s"])
        if base_wall <= 0:
            continue
        rel = m.wall_s / base_wall - 1.0
        if rel > tolerance:
            deltas.append(Delta(name, "regression", base_wall, m.wall_s))
            ok = False
        elif rel < -tolerance:
            deltas.append(Delta(name, "improvement", base_wall, m.wall_s))
        else:
            deltas.append(Delta(name, "ok", base_wall, m.wall_s))
    for name, base in base_workloads.items():
        if name not in fresh_by_name:
            deltas.append(Delta(name, "missing", float(base["wall_s"]), None))
    return deltas, ok
