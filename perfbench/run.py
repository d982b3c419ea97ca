"""Sweep-record benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload record_agrid --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --size smoke   # every workload

Each repetition runs in a fresh process (``workloads.py``) on inputs
derived from ``--seed``; repetitions continue until ``--seconds`` are
spent (at least ``MIN_REPS``).  With ``--trace 0`` the last stdout line
carries the end-to-end metrics, medians over repetitions; with
``--trace 1`` every repetition runs twice on the same inputs, untraced
and traced, and the last line carries the per-layer metrics of the
traced runs plus the tracing overhead.  Records must come out
byte-identical with and without tracing.  With ``--workload all`` the
last line's metrics are keyed ``<workload>/<metric>``.

End-to-end times are reported at a reference host speed.  A shared host
runs 30-40% slower for stretches of seconds to minutes, longer than a
run, so a run's raw median lands wherever those stretches fall.  Each
repetition therefore times a fixed pure-Python probe right before and
right after its timed part (``workloads.probe_s``); the mean of the two
over the probe's full-speed time is the repetition's ``slowdown``, and
its times are divided by it (rates multiplied).  The printed summary
gives the median slowdown, so raw times can be recovered.

The program under test is imported from ``src/`` next to this directory;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("record_agrid", "record_awave", "sweep_cold", "serve_overlap")

#: Every run makes at least this many repetitions; the records digest
#: covers exactly these, so it does not depend on machine speed.
MIN_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "records_per_s": "1/s",
    "sweep_p50_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics with their unit and the (end-to-end metric,
#: workload) pairs each one should move.
PER_LAYER: dict[str, tuple[str, list[tuple[str, str]]]] = {
    "instances.make_s": ("s", [("records_per_s", "sweep_cold")]),
    "geometry.ell_star_s": (
        "s", [("wall_s", "record_agrid"), ("peak_rss_mb", "record_agrid")]
    ),
    "geometry.xi_s": ("s", [("wall_s", "record_agrid"), ("peak_rss_mb", "record_agrid")]),
    "core.build_s": ("s", [("wall_s", "record_awave")]),
    "sim.world_s": ("s", [("wall_s", "record_awave"), ("wall_s", "record_agrid")]),
    "sim.run_s": ("s", [("wall_s", "record_awave"), ("wall_s", "record_agrid")]),
    "sim.events": ("count", [("wall_s", "record_awave"), ("wall_s", "record_agrid")]),
    "sim.snapshots": ("count", [("wall_s", "record_awave"), ("wall_s", "record_agrid")]),
    "metrics.summarize_s": ("s", [("records_per_s", "sweep_cold")]),
    "cache.serialize_s": ("s", [("records_per_s", "sweep_cold")]),
    "cache.store_s": ("s", [("records_per_s", "sweep_cold")]),
    "cache.bytes": ("bytes", [("records_per_s", "sweep_cold")]),
    "cache.load_s": ("s", [("sweep_p50_s", "serve_overlap")]),
    "cache.hits": ("count", [("sweep_p50_s", "serve_overlap")]),
    "cache.misses": ("count", [("sweep_p50_s", "serve_overlap")]),
    "manifest.flush_s": ("s", [("records_per_s", "sweep_cold")]),
    "manifest.flushes": ("count", [("records_per_s", "sweep_cold")]),
    "executors.job_s": (
        "s", [("records_per_s", "sweep_cold"), ("sweep_p50_s", "serve_overlap")]
    ),
    "executors.idle_s": (
        "s", [("records_per_s", "sweep_cold"), ("sweep_p50_s", "serve_overlap")]
    ),
    "executors.utilization": (
        "ratio", [("records_per_s", "sweep_cold"), ("sweep_p50_s", "serve_overlap")]
    ),
    # The client's three phases of each sweep: hand over the spec, wait
    # until every job settled, fetch the CSV.  On serve_overlap they are
    # the service layer (POST /sweeps, SSE until ``end``, GET records);
    # on the others, SweepSpec.from_dict, run_sweep and format_csv.
    "sweep.submit_s": ("s", [("sweep_p50_s", "serve_overlap")]),
    "sweep.settle_s": ("s", [("sweep_p50_s", "serve_overlap")]),
    "sweep.records_s": ("s", [("sweep_p50_s", "serve_overlap")]),
    "sweep.executed": ("count", [("sweep_p50_s", "serve_overlap")]),
    "sweep.cached": ("count", [("sweep_p50_s", "serve_overlap")]),
    "traced_wall_s": ("s", []),
    "unattributed_s": ("s", []),
    "trace_overhead_s": ("s", []),
}

#: Per-layer values that are exact counts (medians stay integers).
COUNTS = {name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "bytes")}


def repetition(
    workload: str, size: str, seed: int, trace: bool, workroot: Path, timeout: float
) -> dict[str, Any]:
    """Run one repetition in a fresh process and return its measurements."""
    workdir = workroot / f"{seed}-{int(trace)}"
    workdir.mkdir(parents=True)
    job = {
        "workload": workload,
        "size": size,
        "seed": seed,
        "trace": trace,
        "workdir": str(workdir),
        "src": str(SRC),
        "t0": time.time(),
    }
    # A session of its own, so a timed-out repetition is killed together
    # with its pool workers.
    child = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(job)],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except BaseException:  # timeout, or this process is being stopped
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if child.returncode != 0:
        raise RuntimeError(f"{workload} repetition (seed {seed}) exited {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure(args: argparse.Namespace, workload: str) -> dict[str, Any]:
    """Repeat ``workload`` for ``args.seconds``; aggregate and check."""
    workroot = ROOT / ".perfbench-work" / str(os.getpid())
    start = time.monotonic()
    plain: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    unit_s: list[float] = []
    try:
        while True:
            spent = time.monotonic() - start
            estimate = statistics.median(unit_s) if unit_s else 0.0
            if len(unit_s) >= MIN_REPS and spent + estimate > args.seconds:
                break
            seed = args.seed * 1000 + len(unit_s)
            began = time.monotonic()
            for trace, reps in ((False, plain), (True, traced))[: 1 + args.trace]:
                timeout = max(10.0, 170.0 - (time.monotonic() - start))
                reps.append(repetition(workload, args.size, seed, trace, workroot, timeout))
            unit_s.append(time.monotonic() - began)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workroot.parent.rmdir()

    attempted = sum(rep["attempted"] for rep in plain + traced)
    failed = sum(rep["failed"] for rep in plain + traced)
    # Timings never enter records: a traced repetition must reproduce
    # its untraced twin byte for byte.
    mismatched = sum(1 for a, b in zip(plain, traced) if a["digest"] != b["digest"])
    records_digest = hashlib.sha256(
        "".join(rep["digest"] for rep in plain[:MIN_REPS]).encode()
    ).hexdigest()
    latencies = [lat for rep in plain for lat in rep["latencies"]]
    summary = {
        "reps": len(plain),
        "attempted": attempted,
        "failed": failed,
        "mismatched": mismatched,
        "digest": records_digest,
        "sweep_samples": len(latencies),
        "slowdown": statistics.median(rep["slowdown"] for rep in plain),
    }
    if args.trace:
        metrics: dict[str, float] = {}
        for name in PER_LAYER:
            if name == "trace_overhead_s":
                values = [
                    b["layers"]["traced_wall_s"] - a["wall_s"] for a, b in zip(plain, traced)
                ]
            else:
                values = [rep["layers"][name] for rep in traced]
            metrics[name] = (
                statistics.median_low(values) if name in COUNTS else statistics.median(values)
            )
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        # Times at the probe's reference speed (see the module docstring).
        metrics = {
            "setup_s": statistics.median(rep["setup_s"] / rep["slowdown"] for rep in plain),
            "wall_s": statistics.median(rep["wall_s"] / rep["slowdown"] for rep in plain),
            "records_per_s": statistics.median(
                rep["settled"] * rep["slowdown"] / rep["wall_s"] for rep in plain
            ),
            "sweep_p50_s": statistics.median(
                latency / rep["slowdown"] for rep in plain for latency in rep["latencies"]
            ),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain),
        }
        units = END_TO_END
    summary["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke: every workload at a size that runs in seconds",
    )
    args = parser.parse_args(argv)
    # Stopped from outside: unwind, so the running repetition is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        summary = measure(args, name)
        results[name] = summary
        ratio = summary["failed"] / summary["attempted"]
        print(
            f"{name}: reps={summary['reps']} sweeps={summary['sweep_samples']} "
            f"failed_ratio={ratio:g} ({summary['failed']}/{summary['attempted']}) "
            f"trace_mismatches={summary['mismatched']} records_sha256={summary['digest']} "
            f"slowdown={summary['slowdown']:.3f}"
        )
        for metric, entry in summary["metrics"].items():
            print(f"  {metric:<24} {entry['value']:>14.6g} {entry['unit']}")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] + r["mismatched"] for r in results.values())
    line: dict[str, Any] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
    }
    if args.workload != "all":
        line["metrics"] = results[args.workload]["metrics"]
    else:
        line["metrics"] = {
            f"{name}/{metric}": entry
            for name, summary in results.items()
            for metric, entry in summary["metrics"].items()
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
