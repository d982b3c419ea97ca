"""The benchmark's workloads, one repetition per fresh process.

``python3 perfbench/workloads.py '<json>'`` runs one repetition of one
workload and prints its measurements as one JSON line on stdout.
``run.py`` starts one such process per repetition, so peak RSS is the
repetition's own and no in-process memo (the summary layer's rho*/ell*
memo) carries from one repetition to the next.

The JSON argument holds ``workload``, ``size`` (``full`` or ``smoke``),
``seed`` (the repetition's input seed), ``trace`` (bool), ``t0`` (the
parent's ``time.time()`` just before it started this process, so set-up
time covers interpreter start), ``workdir`` (an empty directory this
repetition owns) and ``src`` (where the program's package lives).

Every workload runs unpinned ``ell``/``rho`` (the production default),
from one process with at most two workers.
"""

from __future__ import annotations

import asyncio
import csv
import hashlib
import io
import json
import math
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Any

WORKERS = 2

#: The sweep grid's algorithms: the paper's three plus two centralized
#: baselines, so per-record fixed costs are paid by every registry path.
ALGORITHMS = ["aseparator", "agrid", "awave", "greedy", "quadtree"]

#: Workload sizes.  ``full`` is what the benchmark measures; ``smoke``
#: is the same code path at a size that runs in seconds (the benchmark's
#: own tests).
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        # Dense Prim ell* is quadratic and the AGrid engine about linear,
        # so n sets ell*'s share of the record: over 1/5 at n=5000.
        "record_agrid": {"n": 5000, "rho": 12.0},
        "record_awave": {"n": 400, "rho": 12.0},
        "sweep_cold": {"seeds": 3},
        "serve_overlap": {"sweeps": 20, "window": 2},
    },
    "smoke": {
        "record_agrid": {"n": 300, "rho": 6.0},
        "record_awave": {"n": 40, "rho": 4.0},
        "sweep_cold": {"seeds": 1},
        "serve_overlap": {"sweeps": 3, "window": 2},
    },
}


def record_payload(algorithm: str, n: int, rho: float, seed: int) -> dict[str, Any]:
    """A one-record sweep spec: one ``uniform_disk`` instance."""
    return {
        "name": f"record_{algorithm}",
        "algorithms": [algorithm],
        "seeds": [seed],
        "families": [{"family": "uniform_disk", "params": {"n": [n], "rho": [rho]}}],
    }


def grid_payload(name: str, seeds: list[int], small: bool = False) -> dict[str, Any]:
    """The sweep grid: ALGORITHMS x {uniform_disk n=40, n=120, slow_swarm
    n=60 with 20% slow robots} x seeds; ``small`` keeps n=40 only."""
    families = [{"family": "uniform_disk", "params": {"n": [40], "rho": [4.0]}}]
    payload: dict[str, Any] = {
        "name": name,
        "algorithms": list(ALGORITHMS),
        "seeds": list(seeds),
        "families": families,
    }
    if not small:
        families.append({"family": "uniform_disk", "params": {"n": [120], "rho": [7.0]}})
        payload["scenarios"] = [
            {
                "scenario": "slow_swarm",
                "params": {"n": [60], "rho": [5.0]},
                "world": {"slow_fraction": [0.2]},
            }
        ]
    return payload


def canonical(payload: Any) -> str:
    # The benchmark's own canonical form; calling the program's
    # ``canonical_json`` here would open spans in a traced run.
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(records: list[dict[str, Any]]) -> str:
    return hashlib.sha256(canonical(records).encode("utf-8")).hexdigest()


def check_records(records: list[dict[str, Any]], requests: list[Any]) -> int:
    """Count the records that fail an output check.

    Each record must exist, have woken every robot, not be a quarantine
    record, and respect the distance lower bound
    ``makespan >= rho_star / v_max`` (no robot is farther than rho* from
    the source, and none moves faster than v_max).  Rows parsed from CSV
    carry strings, hence the conversions.
    """
    from repro.sim import WorldConfig

    failed = abs(len(records) - len(requests))
    for record, request in zip(records, requests):
        config = request.world_config() or WorldConfig()
        v_max = max(config.speed, config.slow_speed if config.slow_fraction > 0 else 0.0)
        woke = record.get("woke_all") in (True, "True")
        bound = float(record["rho_star"]) / v_max
        if not woke or record.get("quarantined") or float(record["makespan"]) < bound - 1e-9:
            failed += 1
    return failed


#: The host-speed probe: a fixed pure-Python loop, timed right before
#: and right after the timed part.  ``PROBE_S`` is its time at full
#: speed on the 2-vCPU 2.1 GHz Xeon VM the benchmark was tuned on.
PROBE_LOOPS = 1_500_000
PROBE_S = 0.1


def probe_s() -> float:
    """Time one pass of the host-speed probe."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """The larger of this process's peak RSS and its largest reaped
    child's (pool workers): KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# Workloads: construction is set-up; run() is the timed part.
# ---------------------------------------------------------------------------

class SweepWorkload:
    """``run_sweep`` with a fresh cache and manifest (``record_*`` and
    ``sweep_cold``): the ``freezetag sweep`` path."""

    def __init__(self, name: str, size: dict[str, Any], seed: int, workdir: Path) -> None:
        from repro.experiments.cache import ResultCache
        from repro.experiments.executors import PoolExecutor, SerialExecutor

        if name == "sweep_cold":
            count = size["seeds"]
            seeds = list(range(seed * count, (seed + 1) * count))
            self.payload = grid_payload(name, seeds)
            self.executor = PoolExecutor(workers=WORKERS)
            self.workers = WORKERS
        else:
            algorithm = name.split("_", 1)[1]
            self.payload = record_payload(algorithm, size["n"], size["rho"], seed)
            self.executor = SerialExecutor()
            self.workers = 1
        self.cache = ResultCache(workdir / "cache")

    def run(self, tracer: Any) -> dict[str, Any]:
        from repro.experiments.harness import SweepSpec, run_sweep
        from repro.experiments.io import format_csv, sweep_rows

        elapsed: list[float] = []
        start = time.perf_counter()
        with tracer.span("sweep.submit"):
            spec = SweepSpec.from_dict(self.payload)
        with tracer.span("sweep.settle"):
            result = run_sweep(
                spec,
                cache=self.cache,
                executor=self.executor,
                progress=lambda tick: elapsed.append(tick.elapsed),
            )
        with tracer.span("sweep.records"):
            format_csv(sweep_rows(result.records))  # what `freezetag sweep --csv` writes
        wall = time.perf_counter() - start
        return {
            "records": result.records,
            "latencies": [wall],
            "wall": wall,
            "job_s": math.fsum(elapsed),
            "requests": spec.expand(),
            "executed": result.executed,
            "cached": result.cached,
        }

    def close(self) -> None:
        pass


class ServeWorkload:
    """An in-process ``SweepService`` (``async-local``, two workers) and
    one closed-loop ``ServiceClient`` submitting sweeps one after another.

    Sweep j covers seeds ``[base + j, base + j + window)``: with window 2
    about half of each sweep's jobs were executed by the sweep before it
    (cache reads) and half are new (executions and cache writes).
    """

    def __init__(self, name: str, size: dict[str, Any], seed: int, workdir: Path) -> None:
        from repro.service.app import SweepService
        from repro.service.client import ServiceClient

        self.sweeps = size["sweeps"]
        window = size["window"]
        base = seed * (self.sweeps + window)
        self.payloads = [
            grid_payload(name, list(range(base + j, base + j + window)), small=True)
            for j in range(self.sweeps)
        ]
        self.workers = WORKERS
        self.service = SweepService(workdir / "cache", workers=WORKERS)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        host, port = asyncio.run_coroutine_threadsafe(
            self.service.start("127.0.0.1", 0), self.loop
        ).result(timeout=60)
        self.client = ServiceClient(f"http://{host}:{port}", timeout=120)

    def run(self, tracer: Any) -> dict[str, Any]:
        from repro.experiments.harness import SweepSpec

        records: list[dict[str, Any]] = []
        latencies: list[float] = []
        job_s: list[float] = []
        start_all = time.perf_counter()
        for payload in self.payloads:
            start = time.perf_counter()
            with tracer.span("sweep.submit"):
                sweep_id = self.client.submit(payload)["id"]
            with tracer.span("sweep.settle"):
                for event in self.client.watch(sweep_id):
                    if event["event"] == "settle":
                        job_s.append(event["elapsed"])
            with tracer.span("sweep.records"):
                text = self.client.records(sweep_id, csv=True)
            latencies.append(time.perf_counter() - start)
            records.extend(csv.DictReader(io.StringIO(text)))
        wall = time.perf_counter() - start_all
        jobs = self.client.metrics()["jobs"]
        requests = [
            request
            for payload in self.payloads
            for request in SweepSpec.from_dict(payload).expand()
        ]
        return {
            "records": records,
            "latencies": latencies,
            "wall": wall,
            "job_s": math.fsum(job_s),
            "requests": requests,
            "executed": jobs["executed"],
            "cached": jobs["cached"],
        }

    def close(self) -> None:
        try:
            asyncio.run_coroutine_threadsafe(self.service.stop(), self.loop).result(
                timeout=60
            )
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=30)
            self.loop.close()


WORKLOADS = {
    "record_agrid": SweepWorkload,
    "record_awave": SweepWorkload,
    "sweep_cold": SweepWorkload,
    "serve_overlap": ServeWorkload,
}


#: Spans (reported as ``<name>_s``, self time) and counters recorded by
#: ``spans.install`` and by the workloads' own ``sweep.*`` phases.
SPANS = (
    "instances.make", "geometry.ell_star", "geometry.xi", "core.build",
    "sim.world", "sim.run", "metrics.summarize", "cache.serialize",
    "cache.store", "cache.load", "manifest.flush",
    "sweep.submit", "sweep.settle", "sweep.records",
)
COUNTERS = (
    "sim.events", "sim.snapshots", "cache.bytes", "cache.hits",
    "cache.misses", "manifest.flushes",
)


def layer_metrics(tracer: Any, wall: float, outcome: dict[str, Any], workers: int) -> dict[str, float]:
    """The per-layer numbers of one traced repetition.

    ``unattributed_s`` is the driving thread's wall time that no span on
    that thread covers; spans in pool workers and in the service's event
    loop thread run alongside it and are reported, not subtracted.
    """
    self_s, counts, main_self_s = tracer.totals()
    capacity = workers * wall
    metrics: dict[str, float] = {f"{name}_s": self_s.get(name, 0.0) for name in SPANS}
    metrics.update({name: counts.get(name, 0) for name in COUNTERS})
    metrics.update({
        "executors.job_s": outcome["job_s"],
        "executors.idle_s": capacity - outcome["job_s"],
        "executors.utilization": outcome["job_s"] / capacity,
        "sweep.executed": outcome["executed"],
        "sweep.cached": outcome["cached"],
        "traced_wall_s": wall,
        "unattributed_s": wall - main_self_s,
    })
    return metrics


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    workdir = Path(job["workdir"])
    sys.path.insert(0, job["src"])
    from repro.core.registry import iter_algorithms
    from repro.instances import iter_scenarios

    # Registry and catalog loads are set-up, paid once per process.
    iter_algorithms()
    iter_scenarios()
    from spans import NullTracer, Tracer, install

    tracer: Any = NullTracer()
    if job["trace"]:
        tracer = Tracer(workdir / "spans")
        install(tracer)
    name = job["workload"]
    workload = WORKLOADS[name](name, SIZES[job["size"]][name], job["seed"], workdir)
    try:
        setup_s = time.time() - job["t0"]
        probe_before = probe_s()
        outcome = workload.run(tracer)
        wall = outcome["wall"]
        probe_after = probe_s()
    finally:
        workload.close()
    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "slowdown": (probe_before + probe_after) / 2 / PROBE_S,
        "latencies": outcome["latencies"],
        "settled": len(outcome["records"]),
        "attempted": max(len(outcome["records"]), len(outcome["requests"])),
        "failed": check_records(outcome["records"], outcome["requests"]),
        "digest": digest(outcome["records"]),
        "peak_rss_mb": peak_rss_mb(),
    }
    if job["trace"]:
        result["layers"] = layer_metrics(tracer, wall, outcome, workload.workers)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
