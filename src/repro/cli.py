"""Command-line interface: ``freezetag <command>``.

Commands:

* ``run``    — run any registered algorithm (distributed or centralized
  baseline) on a generated instance — a classic family or a registered
  scenario with its world model — and print the summary, the wake-time
  map and the wake histogram;
* ``algorithms`` — list the algorithm registry: names, labels, capability
  flags and parameter schemas;
* ``scenarios`` — list the scenario registry: names, labels, world models
  and generator schemas;
* ``params`` — compute an instance's ``(rho*, ell*, xi_ell)``;
* ``sweep``  — run a declarative sweep-spec file on a pluggable executor
  backend (``serial`` / ``pool`` / ``async-local``) with incremental
  result caching and a resumable manifest: ``--resume`` continues a
  killed sweep losslessly, ``--status`` prints its progress;
* ``serve``  — run the async HTTP sweep service: submit sweeps over
  HTTP, share one content-addressed cache across all tenants, stream
  live settle events (SSE) and process telemetry (``/metrics``);
* ``submit`` — POST a sweep-spec file to a running service and print
  the sweep id (``--wait`` follows the event stream to completion);
* ``watch``  — follow a submitted sweep's settle events as progress
  lines (works for finished sweeps too: the stream replays history);
* ``bench``  — run the tracked performance suites (engine micro-benches
  and large-``n`` scale runs), write ``BENCH_<suite>.json`` baselines or
  check fresh numbers against the committed ones (``--check``);
* ``table1`` — regenerate the Table 1 experiment rows;
* ``figures``— regenerate the figure experiments (phases, exploration,
  lower bound).

Examples::

    freezetag run --algorithm aseparator --family uniform_disk --n 80 --rho 15
    freezetag run --algorithm greedy --family uniform_disk --n 80 --rho 15
    freezetag run --algorithm aseparator --param solver=greedy --n 40
    freezetag run --algorithm agrid --scenario slow_swarm --n 30 \\
        --world-param slow_fraction=0.4
    freezetag algorithms
    freezetag scenarios --verbose
    freezetag sweep examples/sweep_heterogeneous.json --workers 4
    freezetag sweep examples/sweep_quick.json --executor async-local \\
        --cache-dir .sweep-cache
    freezetag sweep examples/sweep_quick.json --status --cache-dir .sweep-cache
    freezetag sweep examples/sweep_quick.json --resume --cache-dir .sweep-cache
    freezetag serve --port 8765 --cache-dir .sweep-cache --workers 4
    freezetag submit examples/sweep_quick.json --server http://127.0.0.1:8765 --wait
    freezetag watch <sweep-id> --server http://127.0.0.1:8765
    freezetag table1 --experiment rho --scale small
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path
from typing import Any, Callable

from .core.registry import algorithm_names, get_algorithm, iter_algorithms
from .experiments import (
    ResultCache,
    SweepManifest,
    SweepSpec,
    executor_names,
    agrid_xi_sweep,
    aggregate_records,
    aseparator_ell_sweep,
    aseparator_rho_sweep,
    awave_vs_agrid,
    energy_infeasibility_sweep,
    exploration_scaling,
    fit_aseparator_shape,
    lower_bound_experiment,
    phase_timeline,
    print_table,
    run_sweep,
    sweep_rows,
    write_csv,
)
from .instances import (
    Instance,
    get_scenario,
    iter_scenarios,
    make_instance,
    uniform_disk,
)
from .metrics import summarize
from .viz import render_wake_times, wake_histogram

__all__ = ["main", "build_parser"]

#: The ``--family`` flag default; also the sentinel telling ``run`` that
#: the user did not name a family alongside ``--scenario``.
_DEFAULT_FAMILY = "uniform_disk"

#: Family name -> generator kwargs from the shared CLI flags.
_FAMILY_CLI_KWARGS: dict[str, Callable[[argparse.Namespace], dict[str, Any]]] = {
    "uniform_disk": lambda a: {"n": a.n, "rho": a.rho, "seed": a.seed},
    "uniform_square": lambda a: {"n": a.n, "half_width": a.rho, "seed": a.seed},
    "clusters": lambda a: {
        "n": a.n, "n_clusters": a.k, "rho": a.rho, "seed": a.seed,
    },
    "annulus": lambda a: {
        "n": a.n, "r_inner": a.rho / 2, "r_outer": a.rho, "seed": a.seed,
    },
    "beaded_path": lambda a: {"n": a.n, "spacing": a.spacing, "seed": a.seed},
    "spiral": lambda a: {"n": a.n, "spacing": a.spacing},
    "grid_lattice": lambda a: {
        "side": max(2, int(a.n ** 0.5)), "spacing": a.spacing,
    },
    "l1_diamond": lambda a: {"n": a.n, "rho": a.rho, "seed": a.seed},
    "connected_walk": lambda a: {"n": a.n, "step": a.spacing, "seed": a.seed},
    "two_clusters_bridge": lambda a: {
        "n": a.n, "gap": a.rho, "spacing": a.spacing, "seed": a.seed,
    },
}


def _make_instance(args: argparse.Namespace) -> Instance:
    try:
        kwargs = _FAMILY_CLI_KWARGS[args.family](args)
    except KeyError:
        raise SystemExit(f"unknown family {args.family!r}") from None
    return make_instance(args.family, **kwargs)


def _parse_param(text: str) -> tuple[str, Any]:
    """Parse one ``--param name=value`` (value via JSON, else raw string)."""
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise SystemExit(f"--param expects name=value, got {text!r}")
    try:
        value: Any = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings, e.g. solver=greedy
    return name, value


def _cmd_run(args: argparse.Namespace) -> int:
    world = None
    if args.scenario:
        if args.family != _DEFAULT_FAMILY:
            raise SystemExit(
                "name the workload once: pass --scenario or --family, not both"
            )
        try:
            scenario = get_scenario(args.scenario)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        flags = _FAMILY_CLI_KWARGS.get(scenario.family)
        if flags is None:
            raise SystemExit(
                f"scenario {args.scenario!r} wraps generator "
                f"{scenario.family!r}, which has no CLI flag mapping; "
                "run it through a sweep spec instead"
            )
        kwargs = {
            k: v for k, v in flags(args).items() if k in scenario.param_names
        }
        overrides = dict(_parse_param(p) for p in args.world_param or ())
        try:
            instance = scenario.make(**kwargs)
            world = scenario.world_config(overrides)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        print(f"scenario {scenario.name}: world[{world.describe()}]")
    elif args.world_param:
        raise SystemExit("--world-param requires --scenario")
    else:
        instance = _make_instance(args)
    spec = get_algorithm(args.algorithm)
    params: dict[str, Any] = dict(_parse_param(p) for p in args.param or ())
    if args.ell is not None:
        params.setdefault("ell", args.ell)
    try:
        run = spec.run(instance, params, world=world)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    summary = summarize(run)
    print(run.summary())
    print(
        f"rho*={summary.rho_star:.2f} ell*={summary.ell_star:.2f} "
        f"xi_ell={summary.xi_ell:.2f} half-wake={summary.half_wake_time:.2f}"
    )
    if args.draw:
        print(render_wake_times(instance, run.result.wake_times))
        print()
        print(wake_histogram(run.result.wake_times))
    return 0 if run.woke_all else 1


def _cmd_algorithms(args: argparse.Namespace) -> int:
    """List the algorithm registry (one line per registered spec)."""
    specs = iter_algorithms(kind=args.kind)
    if args.json:
        print(json.dumps(
            {"algorithms": [spec.as_dict() for spec in specs]},
            indent=2, sort_keys=True,
        ))
        return 0
    header = f"{'name':<16} {'label':<24} {'flags':<28} params"
    print(header)
    print("-" * len(header))
    for spec in specs:
        print(spec.describe())
    if args.verbose:
        print()
        for spec in specs:
            print(f"{spec.name}: {spec.description or spec.label}")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    """List the scenario registry (one line per registered spec)."""
    specs = iter_scenarios()
    if args.json:
        print(json.dumps(
            {"scenarios": [spec.as_dict() for spec in specs]},
            indent=2, sort_keys=True,
        ))
        return 0
    header = f"{'name':<20} {'label':<26} {'world':<34} params"
    print(header)
    print("-" * len(header))
    for spec in specs:
        print(spec.describe())
    if args.verbose:
        print()
        for spec in specs:
            print(f"{spec.name}: {spec.description or spec.label}")
            print(f"  generator: {spec.family}")
            for param in spec.params:
                doc = f"  — {param.doc}" if param.doc else ""
                print(f"  param {param.describe()}{doc}")
    return 0


def _cmd_params(args: argparse.Namespace) -> int:
    instance = _make_instance(args)
    params = instance.parameters(args.ell)
    print(instance)
    print(params)
    return 0


def _install_sigterm_exit() -> None:
    """Convert SIGTERM into a clean ``SystemExit`` for the sweep loop.

    A killed sweep then tears down its worker pool and flushes the
    manifest on the way out instead of dying mid-write — the kill half
    of the kill-and-resume contract (``scripts/resume_smoke.sh``).
    Settled records are safe either way: cache writes are atomic.
    """
    try:
        signal.signal(
            signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum)
        )
    except ValueError:  # not in the main thread (embedded use): skip
        pass


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        spec = SweepSpec.from_file(args.spec)
        requests = spec.expand()  # surface job-level errors (solver/...) now
    except OSError as exc:
        raise SystemExit(f"cannot read sweep spec: {exc}") from None
    except (json.JSONDecodeError, ValueError) as exc:
        raise SystemExit(f"invalid sweep spec {args.spec!r}: {exc}") from None
    if (args.resume or args.status) and not args.cache_dir:
        raise SystemExit(
            "--resume/--status need --cache-dir: the result cache is the "
            "checkpoint a sweep resumes from"
        )
    cache = ResultCache(args.cache_dir) if args.cache_dir else None

    if args.status:
        manifest = SweepManifest.locate(spec, requests, cache)
        recorded = manifest is not None
        if manifest is None:
            # No recorded run of this exact spec — report what the shared
            # cache can already serve anyway.
            manifest = SweepManifest.for_spec(spec, requests, cache)
        status = manifest.status(cache)
        if args.json:
            print(json.dumps(
                {
                    "name": spec.name,
                    "spec_hash": manifest.spec_hash,
                    "manifest": str(manifest.path),
                    "recorded": recorded,
                    **status.as_dict(),
                },
                indent=2, sort_keys=True,
            ))
            return 0
        if not recorded:
            print(
                f"sweep {spec.name!r}: no manifest recorded yet under "
                f"{manifest.path.parent} (counts below are cache-only)"
            )
        print(f"sweep {spec.name!r}: spec hash {manifest.spec_hash}")
        print(f"manifest: {manifest.path}")
        print(status.line())
        print(f"cache hit rate: {status.hit_rate:.0%}")
        return 0

    if args.resume:
        manifest = SweepManifest.locate(spec, requests, cache)
        if manifest is None:
            raise SystemExit(
                f"nothing to resume: no manifest for sweep {spec.name!r} "
                f"under {SweepManifest.path_for(cache, '*').parent}; run "
                "without --resume first (any change to the spec forks its "
                "manifest and cache entries)"
            )
        print(f"resuming sweep {spec.name!r}: {manifest.status(cache).line()}")

    if args.faults:
        # Validate eagerly: the env contract is deliberately inert on
        # garbage, but an operator typo on the CLI should fail loudly.
        from .experiments.faults import FAULTS_ENV, FaultSpecError, parse_faults

        try:
            parse_faults(args.faults)
        except FaultSpecError as exc:
            raise SystemExit(str(exc)) from None
        os.environ[FAULTS_ENV] = args.faults

    policy = None
    if args.job_timeout is not None or args.retries is not None:
        from .experiments.supervise import SupervisorPolicy

        policy = SupervisorPolicy(
            job_timeout=args.job_timeout,
            retries=args.retries if args.retries is not None else 2,
        )

    _install_sigterm_exit()
    progress = None if args.quiet else (lambda tick: print(tick.line()))
    result = run_sweep(
        spec,
        workers=args.workers,
        cache=cache,
        progress=progress,
        executor=args.executor,
        policy=policy,
    )
    rows = sweep_rows(result.records)
    print()
    print_table(rows, f"SWEEP {spec.name!r}: {result.total} runs")
    print()
    print_table(
        aggregate_records(result.records),
        "Aggregate (per algorithm x family)",
    )
    print(
        f"\n{result.executed} executed, {result.cached} cached "
        f"({result.hit_rate:.0%} hit rate)"
        + (f" | {cache.stats()}" if cache is not None else "")
    )
    if result.supervisor is not None:
        stats = result.supervisor
        print(
            f"supervisor: {stats.get('retried', 0)} retried, "
            f"{stats.get('quarantined', 0)} quarantined, "
            f"{stats.get('timeouts', 0)} timeouts, "
            f"{stats.get('worker_deaths', 0)} worker deaths"
        )
    if result.quarantined:
        print(f"WARNING: {result.quarantined} job(s) quarantined (see manifest)")
    if result.manifest is not None:
        print(f"manifest: {result.manifest.path}")
    if args.csv:
        path = write_csv(args.csv, rows)
        print(f"records written to {path}")
    if result.quarantined:
        return 1
    return 0 if result.all_woke() else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the async HTTP sweep service until SIGINT/SIGTERM."""
    import asyncio
    import contextlib

    from .service import SweepService

    policy = None
    if args.job_timeout is not None or args.retries is not None:
        from .experiments.supervise import SupervisorPolicy

        policy = SupervisorPolicy(
            job_timeout=args.job_timeout,
            retries=args.retries if args.retries is not None else 2,
        )
    service = SweepService(
        cache_dir=args.cache_dir,
        workers=args.workers,
        policy=policy,
        stall_after=args.stall_after,
    )

    async def main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        host, port = await service.start(args.host, args.port)
        print(
            f"freezetag service on http://{host}:{port} "
            f"(cache: {service.cache.directory}, "
            f"workers: {service.scheduler.executor.workers})",
            flush=True,
        )
        try:
            await stop.wait()
        finally:
            await service.stop()

    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(main())
    return 0


def _progress_line(event: dict[str, Any]) -> str:
    """One ``watch`` output line per SSE event, shaped like the local
    sweep progress ticks."""
    if event.get("event") == "end":
        counts = event.get("counts", {})
        return (
            f"done: {counts.get('executed', 0)} executed, "
            f"{counts.get('cached', 0)} cached, "
            f"{counts.get('deduped', 0)} deduped, "
            f"{counts.get('failed', 0)} failed "
            f"({event.get('elapsed_s', 0.0):.2f}s)"
        )
    status = event.get("status", "?")
    origin = (
        "cached" if status == "cached"
        else "ERROR" if status == "error"
        else f"{event.get('elapsed', 0.0):6.2f}s"
    )
    line = (
        f"[{event.get('settled')}/{event.get('total')}] {origin}  "
        f"{event.get('label', '')}"
    )
    error = event.get("error")
    if error:
        line += f"  <- {error.get('kind')}: {error.get('message')}"
    return line


def _cmd_submit(args: argparse.Namespace) -> int:
    """POST a sweep-spec file to a running service."""
    from .service import ServiceClient, ServiceError

    try:
        payload = json.loads(Path(args.spec).read_text())
    except OSError as exc:
        raise SystemExit(f"cannot read sweep spec: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SystemExit(f"invalid sweep spec {args.spec!r}: {exc}") from None
    client = ServiceClient(args.server)
    try:
        response = client.submit(payload)
        if args.wait:
            for event in client.watch(response["id"]):
                if not args.json:
                    print(_progress_line(event))
            response = client.status(response["id"])
    except ServiceError as exc:
        raise SystemExit(str(exc)) from None
    except OSError as exc:
        raise SystemExit(f"cannot reach {args.server}: {exc}") from None
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
    else:
        verb = "submitted" if response.get("created", False) else "already known"
        counts = response.get("counts", {})
        print(f"sweep {response['id']} ({response.get('name')}): {verb}")
        print(
            f"state: {response.get('state')} | "
            + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        )
        for error in response.get("errors", ()):
            print(
                f"  job #{error['index']} {error['label']}: "
                f"{error['kind']}: {error['message']}"
            )
    return 0 if not response.get("errors") else 1


def _cmd_watch(args: argparse.Namespace) -> int:
    """Follow a sweep's settle events as plain-text progress lines."""
    from .service import ServiceClient, ServiceError

    client = ServiceClient(args.server)
    failed = 0
    try:
        for event in client.watch(args.sweep_id):
            if args.json:
                print(json.dumps(event, sort_keys=True))
            else:
                print(_progress_line(event))
            if event.get("event") == "end":
                failed = event.get("counts", {}).get("failed", 0)
    except ServiceError as exc:
        raise SystemExit(str(exc)) from None
    except OSError as exc:
        raise SystemExit(f"cannot reach {args.server}: {exc}") from None
    return 0 if not failed else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from .experiments.bench import baseline_path, compare, run_suite

    suites = ("engine", "scale") if args.suite == "all" else (args.suite,)
    failures = 0
    for suite in suites:
        report = run_suite(suite, tier=args.tier, progress=print)
        if args.check:
            if args.json:
                # Dump before reading the baseline: the artifact matters
                # most when the baseline is missing or regressed — it is
                # what gets committed as the refreshed BENCH_<suite>.json.
                fresh_path = Path(args.json) / f"BENCH_{suite}.fresh.json"
                fresh_path.parent.mkdir(parents=True, exist_ok=True)
                fresh_path.write_text(
                    json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
                )
                print(f"[{suite}] fresh measurements written to {fresh_path}")
            path = baseline_path(suite, args.out)
            try:
                baseline = json.loads(path.read_text())
            except FileNotFoundError:
                print(f"[{suite}] MISSING BASELINE: no {path}; commit the "
                      "fresh measurements (or run 'freezetag bench') to "
                      "create it")
                failures += 1
                continue
            deltas, ok = compare(baseline, report, tolerance=args.tolerance)
            print(f"[{suite}] vs {path} (tolerance ±{args.tolerance:.0%}):")
            for delta in deltas:
                print(delta.line())
            if not ok:
                failures += 1
        else:
            path = report.write(args.out)
            print(f"[{suite}] baseline written to {path}")
    if failures:
        print(
            f"{failures} suite(s) failed the gate (regression beyond the "
            "tolerance, or missing baseline)"
        )
        return 1
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    small = args.scale == "small"
    if args.experiment in ("rho", "all"):
        rows = aseparator_rho_sweep(
            rhos=(6, 10, 14) if small else (8, 12, 16, 24, 32),
            seeds=(0,) if small else (0, 1, 2),
        )
        print_table(rows, "T1-row1(a): ASeparator makespan vs rho")
        print(fit_aseparator_shape([{**r} for r in rows]).describe())
        print()
    if args.experiment in ("ell", "all"):
        rows = aseparator_ell_sweep(
            ells=(1, 2, 3) if small else (1, 2, 3, 4, 6),
        )
        print_table(rows, "T1-row1(b): ASeparator makespan vs ell")
        print()
    if args.experiment in ("energy", "all"):
        rows = energy_infeasibility_sweep(ell=args.ell or 4)
        print_table(rows, "T1-row2: energy infeasibility (Thm 3)")
        print()
    if args.experiment in ("agrid", "all"):
        rows = agrid_xi_sweep(lengths=(10, 20, 40) if small else (20, 40, 80, 160))
        print_table(rows, "T1-row3: AGrid makespan vs xi")
        print()
    if args.experiment in ("awave", "all"):
        rows = awave_vs_agrid(
            lengths=(40,) if small else (60, 120), spacing=3.5, ell=4
        )
        print_table(rows, "T1-row4: AWave vs AGrid")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    if args.figure in ("phases", "all"):
        rows = phase_timeline(uniform_disk(n=120, rho=24.0, seed=0), ell=2)
        print_table(rows, "FIG1/FIG2: ASeparator phase timeline")
        print()
    if args.figure in ("explore", "all"):
        rows = exploration_scaling(
            shapes=((8, 8), (16, 8), (16, 16)), team_sizes=(1, 2, 4)
        )
        print_table(rows, "FIG4: exploration scaling (Lemma 1)")
        print()
    if args.figure in ("lowerbound", "all"):
        rows = lower_bound_experiment(ells=(2, 3))
        print_table(rows, "FIG5: Thm 2 lower-bound construction")
    return 0


def _cmd_fuzz_run(args: argparse.Namespace) -> int:
    from .fuzz import run_campaign

    progress = None if (args.quiet or args.json) else print
    report = run_campaign(
        seed=args.seed,
        max_runs=args.max_runs,
        time_budget=args.time_budget,
        executor=args.executor,
        workers=args.workers,
        corpus_path=args.corpus,
        max_n=args.max_n,
        shrink_failures=not args.no_shrink,
        seeds_dir=args.save_seeds,
        progress=progress,
        mode="hostile" if args.hostile else "contract",
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        status = "clean" if report.ok else f"{len(report.failures)} violation(s)"
        print(
            f"fuzz: {report.runs} runs in {report.elapsed:.1f}s "
            f"[{report.executor}], {report.signatures} behavior signatures "
            f"({report.novel} novel) — {status}"
        )
        for record in report.failures:
            names = ", ".join(
                sorted({v["invariant"] for v in record["violations"]})
            )
            print(f"  FAIL {record['config_id']}: {names}")
        for minimized in report.minimized:
            print(
                f"  minimized {minimized['original_id']} -> "
                f"{minimized['config_id']} "
                f"({minimized['config']['scenario_kwargs']})"
                if "original_id" in minimized
                else f"  minimized {minimized['config_id']}"
            )
        for path in report.seed_files:
            print(f"  seed written: {path}")
    return 0 if report.ok else 1


def _cmd_fuzz_replay(args: argparse.Namespace) -> int:
    from .fuzz import replay_seeds

    report = replay_seeds(args.paths)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        status = "clean" if report.ok else f"{len(report.failures)} failure(s)"
        print(f"fuzz replay: {report.checked} seed(s) — {status}")
        for record in report.failures:
            names = ", ".join(
                sorted({v["invariant"] for v in record["violations"]})
            )
            print(f"  FAIL {record['seed_file']}: {names}")
    return 0 if report.ok else 1


def _cmd_fuzz_minimize(args: argparse.Namespace) -> int:
    from .fuzz import FuzzConfig, shrink, write_seed

    payload = json.loads(Path(args.config).read_text(encoding="utf-8"))
    config = FuzzConfig.from_dict(payload.get("config", payload))
    try:
        result = shrink(config)
    except ValueError:
        print(f"config {config.config_id()} violates nothing; cannot minimize")
        return 1
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"minimized {result.original.config_id()} -> "
            f"{result.config.config_id()} in {result.attempts} attempts "
            f"({result.accepted} accepted)"
        )
        print(f"  {result.config.label()}")
    if args.save_seeds:
        path = write_seed(
            args.save_seeds,
            result.config,
            [v.as_dict() for v in result.outcome.violations],
            note=f"minimized from {result.original.config_id()}",
        )
        print(f"  seed written: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freezetag",
        description="Distributed Freeze Tag (PODC 2025) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", default=_DEFAULT_FAMILY)
        p.add_argument("--n", type=int, default=50)
        p.add_argument("--rho", type=float, default=12.0)
        p.add_argument("--spacing", type=float, default=1.0)
        p.add_argument("--k", type=int, default=4, help="cluster count")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--ell", type=int, default=None)

    p_run = sub.add_parser("run", help="run one registered algorithm on an instance")
    add_instance_args(p_run)
    p_run.add_argument(
        "--algorithm", choices=sorted(algorithm_names()), default="aseparator",
        help="any registered algorithm (see 'freezetag algorithms')",
    )
    p_run.add_argument(
        "--param", action="append", metavar="NAME=VALUE",
        help="algorithm parameter (repeatable), e.g. --param solver=greedy",
    )
    p_run.add_argument(
        "--scenario", default=None,
        help="run a registered scenario instead of --family "
             "(see 'freezetag scenarios')",
    )
    p_run.add_argument(
        "--world-param", action="append", metavar="NAME=VALUE",
        help="world-model override (repeatable, requires --scenario), "
             "e.g. --world-param slow_fraction=0.4",
    )
    p_run.add_argument("--draw", action="store_true", help="ASCII wake map")
    p_run.set_defaults(handler=_cmd_run)

    p_algos = sub.add_parser(
        "algorithms", help="list the algorithm registry (names, flags, schemas)"
    )
    p_algos.add_argument(
        "--kind", choices=("distributed", "centralized"), default=None,
        help="only list algorithms of this kind",
    )
    p_algos.add_argument(
        "--verbose", action="store_true", help="also print one-line descriptions"
    )
    p_algos.add_argument(
        "--json", action="store_true",
        help="emit the registry as JSON (same payload as GET /algorithms)",
    )
    p_algos.set_defaults(handler=_cmd_algorithms)

    p_scen = sub.add_parser(
        "scenarios", help="list the scenario registry (names, worlds, schemas)"
    )
    p_scen.add_argument(
        "--verbose", action="store_true",
        help="also dump descriptions and full parameter schemas",
    )
    p_scen.add_argument(
        "--json", action="store_true",
        help="emit the registry as JSON (same payload as GET /scenarios)",
    )
    p_scen.set_defaults(handler=_cmd_scenarios)

    p_params = sub.add_parser("params", help="compute instance parameters")
    add_instance_args(p_params)
    p_params.set_defaults(handler=_cmd_params)

    p_sweep = sub.add_parser(
        "sweep", help="run a declarative sweep spec on an executor backend"
    )
    p_sweep.add_argument("spec", help="path to a sweep-spec JSON file")
    p_sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker count (results are identical for any value); without "
             "--executor, a count above one selects the 'pool' backend",
    )
    p_sweep.add_argument(
        "--executor", choices=executor_names(), default=None,
        help="execution backend (default: pool when --workers > 1, else "
             "serial); records are byte-identical across backends",
    )
    p_sweep.add_argument(
        "--cache-dir", default=None,
        help="directory for the incremental result cache (also the "
             "checkpoint store: a killed sweep resumes from it losslessly)",
    )
    p_sweep.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep from its manifest (requires "
             "--cache-dir and a previous run of the same spec); only "
             "unsettled jobs execute, records stay byte-identical",
    )
    p_sweep.add_argument(
        "--status", action="store_true",
        help="print manifest progress (done/cached/pending counts) against "
             "the cache and exit without executing anything",
    )
    p_sweep.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="supervise the sweep: per-attempt wall clock from dispatch; "
             "a timed-out attempt is killed and retried",
    )
    p_sweep.add_argument(
        "--retries", type=int, default=None,
        help="supervise the sweep: re-attempts per job before it settles "
             "as a quarantined error record (default 2 when supervising)",
    )
    p_sweep.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="arm fault plants for this run (chaos testing): "
             "kind[@indexes][:param=value,...][;...] with kinds crash, "
             "hang, flaky, slow, refuse-sigterm, corrupt, frontier-reach",
    )
    p_sweep.add_argument("--csv", default=None, help="write run records to CSV")
    p_sweep.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )
    p_sweep.add_argument(
        "--json", action="store_true",
        help="with --status: print the manifest progress as JSON",
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_bench = sub.add_parser(
        "bench", help="run/check the tracked performance baselines"
    )
    p_bench.add_argument(
        "--suite", choices=("engine", "scale", "all"), default="all",
        help="engine micro-benches, large-n scale runs, or both",
    )
    p_bench.add_argument(
        "--tier", choices=("quick", "full"), default="quick",
        help="quick tier is CI-sized; full adds the 100k-sleeper runs",
    )
    p_bench.add_argument(
        "--out", default=".",
        help="directory of the BENCH_<suite>.json baselines",
    )
    p_bench.add_argument(
        "--check", action="store_true",
        help="compare fresh measurements against the committed baselines "
             "instead of overwriting them (exit 1 beyond tolerance)",
    )
    p_bench.add_argument(
        "--tolerance", type=float, default=0.25,
        help="relative wall-time slack for --check (default 0.25)",
    )
    p_bench.add_argument(
        "--json", default=None, metavar="DIR",
        help="with --check: also dump fresh measurements to DIR (CI artifact)",
    )
    p_bench.set_defaults(handler=_cmd_bench)

    p_t1 = sub.add_parser("table1", help="reproduce Table 1 experiments")
    p_t1.add_argument(
        "--experiment", choices=("rho", "ell", "energy", "agrid", "awave", "all"),
        default="all",
    )
    p_t1.add_argument("--scale", choices=("small", "full"), default="small")
    p_t1.add_argument("--ell", type=int, default=None)
    p_t1.set_defaults(handler=_cmd_table1)

    p_fig = sub.add_parser("figures", help="reproduce figure experiments")
    p_fig.add_argument(
        "--figure", choices=("phases", "explore", "lowerbound", "all"),
        default="all",
    )
    p_fig.set_defaults(handler=_cmd_figures)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided invariant fuzzing (differential oracle farm)",
    )
    fuzz_sub = p_fuzz.add_subparsers(dest="fuzz_command", required=True)

    pf_run = fuzz_sub.add_parser(
        "run", help="run a fuzz campaign (failures settle as data, exit 1)"
    )
    pf_run.add_argument(
        "--seed", type=int, default=0, help="campaign rng seed (default 0)"
    )
    pf_run.add_argument(
        "--max-runs", type=int, default=None,
        help="stop after this many configs (and/or --time-budget)",
    )
    pf_run.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop drawing new batches after this much wall time",
    )
    pf_run.add_argument(
        "--executor", choices=executor_names(), default=None,
        help="sweep executor backend; campaigns are deterministic across "
             "backends (default: pool when --workers > 1, else serial)",
    )
    pf_run.add_argument("--workers", type=int, default=1)
    pf_run.add_argument(
        "--max-n", type=int, default=48,
        help="largest swarm the generator draws (default 48)",
    )
    pf_run.add_argument(
        "--corpus", default=None, metavar="FILE",
        help="persist the coverage corpus here (loaded when present)",
    )
    pf_run.add_argument(
        "--save-seeds", default=None, metavar="DIR",
        help="write minimized failing configs as seed files under DIR",
    )
    pf_run.add_argument(
        "--no-shrink", action="store_true",
        help="report failures raw, skip minimization",
    )
    pf_run.add_argument(
        "--hostile", action="store_true",
        help="mix out-of-contract draws (ell/rho below the instance's "
             "true values) into the stream; wake completeness is waived "
             "for those, every other invariant still applies",
    )
    pf_run.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    pf_run.add_argument(
        "--json", action="store_true", help="print the campaign report as JSON"
    )
    pf_run.set_defaults(handler=_cmd_fuzz_run)

    pf_replay = fuzz_sub.add_parser(
        "replay", help="re-check committed regression seeds (exit 1 on any fail)"
    )
    pf_replay.add_argument(
        "paths", nargs="+",
        help="seed files or directories of seed files",
    )
    pf_replay.add_argument(
        "--json", action="store_true", help="print the replay report as JSON"
    )
    pf_replay.set_defaults(handler=_cmd_fuzz_replay)

    pf_min = fuzz_sub.add_parser(
        "minimize", help="shrink one failing config (seed file or config JSON)"
    )
    pf_min.add_argument(
        "config", help="path to a seed file or a bare FuzzConfig JSON dict"
    )
    pf_min.add_argument(
        "--save-seeds", default=None, metavar="DIR",
        help="also write the minimized config as a seed file under DIR",
    )
    pf_min.add_argument(
        "--json", action="store_true", help="print the shrink result as JSON"
    )
    pf_min.set_defaults(handler=_cmd_fuzz_minimize)

    p_serve = sub.add_parser(
        "serve",
        help="run the async HTTP sweep service (shared cache, live telemetry)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port", type=int, default=8765,
        help="bind port (default 8765; 0 picks a free port)",
    )
    p_serve.add_argument(
        "--cache-dir", required=True,
        help="content-addressed result cache shared by every tenant; also "
             "holds the sweep manifests the service recovers status from",
    )
    p_serve.add_argument(
        "--workers", type=int, default=None,
        help="process-pool width for job execution (default: os.cpu_count)",
    )
    p_serve.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall clock; a timed-out job's pool is recycled "
             "and the job retried",
    )
    p_serve.add_argument(
        "--retries", type=int, default=None,
        help="re-attempts per job before it settles as a quarantined "
             "error (default 2 when --job-timeout or --retries is given)",
    )
    p_serve.add_argument(
        "--stall-after", type=float, default=None, metavar="SECONDS",
        help="liveness watchdog: recycle the worker pool when jobs are "
             "in flight but nothing settled for this long",
    )
    p_serve.set_defaults(handler=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a sweep-spec file to a running service"
    )
    p_submit.add_argument("spec", help="path to a sweep-spec JSON file")
    p_submit.add_argument(
        "--server", default="http://127.0.0.1:8765",
        help="service base URL (default http://127.0.0.1:8765)",
    )
    p_submit.add_argument(
        "--wait", action="store_true",
        help="follow the settle stream and exit when the sweep finishes "
             "(exit 1 if any job failed)",
    )
    p_submit.add_argument(
        "--json", action="store_true", help="print the raw status body as JSON"
    )
    p_submit.set_defaults(handler=_cmd_submit)

    p_watch = sub.add_parser(
        "watch", help="stream a submitted sweep's settle events"
    )
    p_watch.add_argument(
        "sweep_id", help="sweep id from submit (any unique prefix works)"
    )
    p_watch.add_argument(
        "--server", default="http://127.0.0.1:8765",
        help="service base URL (default http://127.0.0.1:8765)",
    )
    p_watch.add_argument(
        "--json", action="store_true",
        help="print each event as one JSON line instead of progress text",
    )
    p_watch.set_defaults(handler=_cmd_watch)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
