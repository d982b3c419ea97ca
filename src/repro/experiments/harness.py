"""Batch sweep harness: declarative specs, parallel execution, caching.

The paper's experimental claims are all *sweeps* — an algorithm family
crossed with workloads, sizes, seeds and inputs.  This module turns such
a sweep into data:

* :class:`FamilySweep` — one classic instance family plus a grid of
  generator kwargs (every combination is expanded, default world);
* :class:`ScenarioSweep` — one registered scenario plus grids of
  generator kwargs *and* world-model overrides, so "AGrid vs greedy
  under 20% slow robots on an annulus" is one spec entry;
* :class:`SweepSpec` — algorithms x workloads x seeds x algorithm
  params, loadable from a JSON file (``freezetag sweep spec.json``);
* :func:`run_requests` / :func:`run_sweep` — execute the expanded
  :class:`~repro.core.runner.RunRequest` jobs on a pluggable
  :class:`~repro.experiments.executors.Executor` backend (``serial``,
  ``pool``, ``async-local``) with an optional
  :class:`~repro.experiments.cache.ResultCache` and a resumable
  :class:`~repro.experiments.manifest.SweepManifest`.

Workload validation runs against the scenario registry's *declared*
schemas (:mod:`repro.instances.registry`) — no signature sniffing.

Determinism contract: every job is independent and seeded through its
request (instance generation and world-model assignment) while the
engine itself is event-ordered, so a record depends only on its request
— never on scheduling.  Records are normalised through canonical JSON
and returned in spec-expansion order, which makes sweep output
**byte-identical for any executor backend and worker count** and for
cached vs fresh runs.  With a cache, every settled record is
checkpointed as it lands, so a sweep killed at any point resumes
losslessly (the cache *is* the checkpoint; see
:mod:`repro.experiments.manifest`).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..core.registry import get_algorithm
from ..core.runner import RunRequest
from ..instances import FAMILIES, get_scenario
from ..metrics import summarize
from ..sim import WorldConfig
from .cache import ResultCache, canonical_json
from .executors import Executor, resolve_executor
from .manifest import SweepManifest
from .supervise import SupervisedExecutor, SupervisorPolicy

__all__ = [
    "FamilySweep",
    "ScenarioSweep",
    "SweepSpec",
    "SweepProgress",
    "SweepResult",
    "expand_spec",
    "execute_request",
    "run_requests",
    "run_sweep",
    "aggregate_records",
]


def _grid(params: Mapping[str, Sequence[Any]]) -> list[dict[str, Any]]:
    """Every kwarg combination of a name->values grid, in stable
    (sorted-key) order."""
    names = sorted(params)
    combos = itertools.product(*(params[name] for name in names))
    return [dict(zip(names, combo)) for combo in combos]


def _check_grid_values(owner: str, name: str, values: Any) -> None:
    if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
        raise ValueError(
            f"param {name!r} of {owner} must be a list of values to "
            f"sweep, got {values!r}"
        )


# ---------------------------------------------------------------------------
# Declarative specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySweep:
    """One instance family with a grid of generator-kwarg values.

    ``params`` maps each generator kwarg to the *list* of values to sweep;
    the harness expands the full cross product.  Example::

        FamilySweep("uniform_disk", {"n": [40, 80], "rho": [8.0, 12.0]})

    expands to four instances per (algorithm, seed) combination.
    """

    family: str
    params: Mapping[str, Sequence[Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; choose from {sorted(FAMILIES)}"
            )
        # Validate against the registered scenario's declared schema (the
        # classic families all register under their own name).
        spec = get_scenario(self.family)
        for name, values in self.params.items():
            spec.param(name)  # raises "... has no parameter ..." if unknown
            _check_grid_values(f"family {self.family!r}", name, values)

    def grid(self) -> list[dict[str, Any]]:
        """Every kwarg combination, in stable (sorted-key) order."""
        return _grid(self.params)


@dataclass(frozen=True)
class ScenarioSweep:
    """One registered scenario with generator *and* world-model grids.

    ``params`` sweeps the scenario's generator kwargs exactly like
    :class:`FamilySweep`; ``world`` sweeps overrides of the scenario's
    :class:`~repro.sim.WorldConfig` fields.  Example::

        ScenarioSweep(
            "slow_annulus",
            {"n": [40], "r_inner": [3.0], "r_outer": [8.0]},
            world={"slow_fraction": [0.0, 0.2, 0.4]},
        )

    expands to three world variants per (algorithm, seed) combination.
    """

    scenario: str
    params: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    world: Mapping[str, Sequence[Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        spec = get_scenario(self.scenario)  # raises "unknown scenario ..."
        for name, values in self.params.items():
            spec.param(name)
            _check_grid_values(f"scenario {self.scenario!r}", name, values)
        known = WorldConfig.field_names()
        for name, values in self.world.items():
            if name not in known:
                raise ValueError(
                    f"scenario {self.scenario!r} world grid: unknown world "
                    f"parameter {name!r}; choose from {sorted(known)}"
                )
            _check_grid_values(f"scenario {self.scenario!r} world", name, values)

    def grid(self) -> list[dict[str, Any]]:
        """Every generator-kwarg combination, in stable order."""
        return _grid(self.params)

    def world_grid(self) -> list[dict[str, Any]]:
        """Every world-override combination (one empty dict when unset)."""
        return _grid(self.world)


@dataclass(frozen=True)
class SweepSpec:
    """A full sweep: algorithms x workloads x seeds x algorithm params.

    Workloads come in two flavors, enumerated exactly alike: classic
    ``families`` (default world) and registered ``scenarios`` (their own
    world model, optionally swept through ``world`` override grids).
    """

    name: str
    algorithms: Sequence[str]
    families: Sequence[FamilySweep] = ()
    seeds: Sequence[int] = (0,)
    algorithm_params: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    collect: str = "summary"
    scenarios: Sequence[ScenarioSweep] = ()

    def __post_init__(self) -> None:
        for algorithm in self.algorithms:
            get_algorithm(algorithm)  # raises "unknown algorithm ..." early
        if not self.algorithms or not (self.families or self.scenarios):
            raise ValueError(
                "a sweep needs at least one algorithm and one workload "
                "(family or scenario)"
            )

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "SweepSpec":
        """Build a spec from parsed JSON (see ``examples/sweep_quick.json``
        and ``examples/sweep_heterogeneous.json``)."""
        known = {
            "name", "algorithms", "families", "scenarios", "seeds",
            "algorithm_params", "collect",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        for entry in payload.get("families", ()):
            if not isinstance(entry, Mapping) or "family" not in entry:
                raise ValueError(
                    f"each families entry needs a 'family' key, got {entry!r}"
                )
        for entry in payload.get("scenarios", ()):
            if not isinstance(entry, Mapping) or "scenario" not in entry:
                raise ValueError(
                    f"each scenarios entry needs a 'scenario' key, got {entry!r}"
                )
        families = tuple(
            FamilySweep(family=f["family"], params=dict(f.get("params", {})))
            for f in payload.get("families", ())
        )
        scenarios = tuple(
            ScenarioSweep(
                scenario=s["scenario"],
                params=dict(s.get("params", {})),
                world=dict(s.get("world", {})),
            )
            for s in payload.get("scenarios", ())
        )
        return SweepSpec(
            name=str(payload.get("name", "sweep")),
            algorithms=tuple(payload.get("algorithms", ())),
            families=families,
            seeds=tuple(payload.get("seeds", (0,))),
            algorithm_params=dict(payload.get("algorithm_params", {})),
            collect=str(payload.get("collect", "summary")),
            scenarios=scenarios,
        )

    @staticmethod
    def from_file(path: str | Path) -> "SweepSpec":
        return SweepSpec.from_dict(json.loads(Path(path).read_text()))

    def expand(self) -> list[RunRequest]:
        return expand_spec(self)


def expand_spec(spec: SweepSpec) -> list[RunRequest]:
    """Expand a spec into its independent jobs, in deterministic order.

    Seeds are injected as the generator's ``seed`` kwarg; deterministic
    workloads (no ``seed`` in the declared schema) are run once per grid
    point rather than once per seed.  ``algorithm_params`` is itself a
    grid crossing every instance; each name must be accepted by *every*
    swept algorithm's registered parameter schema — a violation is
    reported with the offending sweep entry (algorithm, workload, grid
    point).  Per algorithm, all family jobs come before all scenario
    jobs, so pre-scenario specs expand in their original order.
    """
    param_names = sorted(spec.algorithm_params)
    param_combos = [
        dict(zip(param_names, combo))
        for combo in itertools.product(
            *(spec.algorithm_params[name] for name in param_names)
        )
    ] or [{}]

    def seeded_kwargs(
        workload: str, point: Mapping[str, Any]
    ) -> list[dict[str, Any]]:
        # A seed pinned in the grid wins; deterministic workloads run
        # once per grid point instead of once per seed.
        one_shot = not get_scenario(workload).accepts_seed or "seed" in point
        seeds: Sequence[int | None] = (None,) if one_shot else spec.seeds
        variants = []
        for seed in seeds:
            kwargs = dict(point)
            if seed is not None:
                kwargs["seed"] = seed
            variants.append(kwargs)
        return variants

    def build_request(
        algorithm: str,
        params: Mapping[str, Any],
        context: str,
        **request_kwargs: Any,
    ) -> RunRequest:
        try:
            return RunRequest(
                algorithm=algorithm,
                collect=spec.collect,
                params=dict(params),
                **request_kwargs,
            )
        except ValueError as exc:
            raise ValueError(
                f"sweep {spec.name!r}, algorithm {algorithm!r}, {context}, "
                f"algorithm_params {dict(params)}: {exc}"
            ) from exc

    requests: list[RunRequest] = []
    for algorithm in spec.algorithms:
        for family_sweep in spec.families:
            for point_index, point in enumerate(family_sweep.grid()):
                for kwargs in seeded_kwargs(family_sweep.family, point):
                    for params in param_combos:
                        requests.append(
                            build_request(
                                algorithm,
                                params,
                                f"family {family_sweep.family!r}, "
                                f"grid point #{point_index} {point}",
                                family=family_sweep.family,
                                family_kwargs=kwargs,
                            )
                        )
        for scenario_sweep in spec.scenarios:
            world_points = scenario_sweep.world_grid()
            for point_index, point in enumerate(scenario_sweep.grid()):
                for kwargs in seeded_kwargs(scenario_sweep.scenario, point):
                    for world_point in world_points:
                        for params in param_combos:
                            requests.append(
                                build_request(
                                    algorithm,
                                    params,
                                    f"scenario {scenario_sweep.scenario!r}, "
                                    f"grid point #{point_index} {point}, "
                                    f"world {world_point}",
                                    scenario=scenario_sweep.scenario,
                                    family_kwargs=kwargs,
                                    world_params=world_point,
                                )
                            )
    return requests


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepProgress:
    """One structured progress tick, emitted as each job settles.

    ``elapsed`` is the job's own runtime (measured inside the worker for
    pooled jobs), ``0.0`` for cache hits.  ``hits``/``misses`` are the
    running cache counts of *this* sweep (hits = jobs served from the
    cache so far, misses = jobs that had to execute), so live consumers
    — the progress line, the service's SSE stream, ``/metrics`` — can
    report the hit rate directly instead of inferring it afterwards.
    """

    done: int
    total: int
    cached: bool
    label: str
    elapsed: float
    hits: int = 0
    misses: int = 0
    #: True when this settle is a quarantine (supervised run, retry
    #: budget exhausted): the record is error data, not a result.
    failed: bool = False

    @property
    def hit_rate(self) -> float:
        """Fraction of settled jobs served from the cache so far."""
        settled = self.hits + self.misses
        return (self.hits / settled) if settled else 0.0

    def line(self) -> str:
        if self.failed:
            origin = "QUARANTINED"
        elif self.cached:
            origin = "cached"
        else:
            origin = f"{self.elapsed:6.2f}s"
        return f"[{self.done}/{self.total}] {origin}  {self.label}"


@dataclass
class SweepResult:
    """Ordered records of one sweep plus execution accounting."""

    records: list[dict[str, Any]]
    executed: int
    cached: int
    #: The sweep's resumable manifest (``None`` when run without a cache
    #: or with ``manifest=False``).
    manifest: SweepManifest | None = None
    #: This sweep's cache traffic: ``cache_hits`` jobs were served from
    #: the cache, ``cache_misses`` probed it and had to execute.  Both
    #: stay zero for cache-less runs (every job executes, nothing is
    #: probed) — deltas of the cache's own counters, so a cache shared
    #: across sweeps doesn't leak foreign traffic into this result.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Jobs that settled as quarantine error records (supervised runs
    #: only; their error payloads live in the records and the manifest).
    quarantined: int = 0
    #: The supervisor's counters (``None`` for unsupervised runs).
    supervisor: dict[str, int] | None = None

    @property
    def total(self) -> int:
        return self.executed + self.cached

    @property
    def hit_rate(self) -> float:
        """Fraction of cache probes this sweep answered from disk."""
        probes = self.cache_hits + self.cache_misses
        return (self.cache_hits / probes) if probes else 0.0

    def all_woke(self) -> bool:
        return all(r.get("woke_all", True) for r in self.records)


def execute_request(request: RunRequest) -> dict[str, Any]:
    """Run one request in this process and flatten it into a JSON record.

    The record is a :class:`~repro.metrics.summary.RunSummary` row plus
    the request's identifying fields; ``collect="phases"`` additionally
    captures the traced phase intervals and raw phase markers.

    The trace sink comes from the request's ``trace`` knob: summary runs
    default to the counters-only :class:`~repro.sim.NullTrace` (events
    would be dropped on the floor), phase runs to a full event trace.

    Duck-typed escape hatch: a job exposing ``execute_record()`` settles
    through that hook instead — it must return the job's full JSON-safe
    record itself.  This is how non-``RunRequest`` workloads (the fuzz
    campaign's invariant checks) ride the sweep :class:`Executor`
    backends unchanged; the hook is expected to fold domain failures into
    the record as data, so anything it *raises* still surfaces as a
    :class:`~repro.experiments.executors.SweepJobError`.
    """
    hook = getattr(request, "execute_record", None)
    if hook is not None:
        return hook()
    run = request.execute()
    trace = run.result.trace if request.collect == "phases" else None
    record: dict[str, Any] = summarize(run).as_dict()
    # The scenario name IS the workload label — two scenarios sharing a
    # generator (say a slow and a fragile disk) must aggregate separately.
    record["family"] = request.workload
    record["family_kwargs"] = dict(sorted(dict(request.family_kwargs).items()))
    record["seed"] = dict(request.family_kwargs).get("seed")
    if request.scenario is not None:
        record["scenario"] = request.scenario
        record["world_params"] = dict(sorted(dict(request.world_params).items()))
    if trace is not None:
        record["phases"] = [
            {
                "label": iv.label,
                "process": iv.process_id,
                "start": iv.start,
                "end": iv.end,
                "duration": iv.duration,
            }
            for iv in trace.phases()
        ]
        record["phase_events"] = [
            {"time": e.time, "label": e.data.get("label", ""), "data": e.data.get("data")}
            for e in trace.of_kind("phase")
        ]
    # Canonical JSON round-trip: identical bytes whether a record comes
    # from a worker, the local process, or a cache file.
    return json.loads(canonical_json(record))


def _backend(
    executor: Executor | str | None,
    workers: int | None,
    policy: SupervisorPolicy | None,
) -> Executor:
    """Resolve the backend once; a ``policy`` wraps it in supervision."""
    backend = resolve_executor(executor, workers=workers)
    if policy is not None and not isinstance(backend, SupervisedExecutor):
        backend = SupervisedExecutor(inner=backend, policy=policy)
    return backend


def run_requests(
    requests: Sequence[RunRequest],
    workers: int | None = None,
    cache: ResultCache | None = None,
    progress: Callable[[SweepProgress], None] | None = None,
    executor: Executor | str | None = None,
    manifest: SweepManifest | None = None,
    policy: SupervisorPolicy | None = None,
) -> list[dict[str, Any]]:
    """Execute jobs on an executor backend; records come back in job order.

    ``executor`` names a registered backend (``serial``, ``pool``,
    ``async-local``) or passes an :class:`Executor` instance.  ``workers``
    is the pre-executor compat shim: ``workers=N`` maps onto the ``pool``
    backend with its pinned historical behavior (``N <= 1`` or a single
    pending job runs in-process), so every existing call site keeps
    byte-identical records and cache keys.

    Cached jobs are skipped; fresh results are stored back as each job
    settles — with a cache, the job list can be killed and re-run at any
    point and only the unsettled remainder executes.  The returned list
    is ordered by position in ``requests`` regardless of backend or
    completion order.  A failing job raises
    :class:`~repro.experiments.executors.SweepJobError` naming the job's
    index and label; records settled before the failure are already
    checkpointed.

    ``manifest`` (see :mod:`repro.experiments.manifest`) is notified as
    each job settles and flushed on the way out, so interrupted sweeps
    keep their accounting.

    ``policy`` (a :class:`~repro.experiments.supervise.SupervisorPolicy`)
    wraps the resolved backend in a
    :class:`~repro.experiments.supervise.SupervisedExecutor`: jobs get a
    wall-clock timeout and bounded retries, and a job that exhausts its
    budget settles as a *quarantine record* (``record["quarantined"]``
    true, error payload attached) instead of raising — it is recorded in
    the manifest as ``error`` and **never cached**, so a later run
    retries it.
    """
    backend = _backend(executor, workers, policy)
    total = len(requests)
    records: list[dict[str, Any] | None] = [None] * total
    done = hits = misses = 0

    def tick(index: int, cached: bool, elapsed: float, failed: bool = False) -> None:
        nonlocal done, hits, misses
        done += 1
        if cached:
            hits += 1
        else:
            misses += 1
        if manifest is not None and not failed:
            manifest.mark_done(index)
        if progress is not None:
            progress(
                SweepProgress(
                    done=done,
                    total=total,
                    cached=cached,
                    label=requests[index].label(),
                    elapsed=elapsed,
                    hits=hits,
                    misses=misses,
                    failed=failed,
                )
            )

    pending: list[tuple[int, RunRequest]] = []
    for index, request in enumerate(requests):
        record = cache.load(request) if cache is not None else None
        if record is not None:
            records[index] = record
            tick(index, cached=True, elapsed=0.0)
        else:
            pending.append((index, request))

    try:
        for index, record, elapsed in backend.submit(pending):
            failed = isinstance(record, dict) and bool(record.get("quarantined"))
            if failed:
                # Error data, not a result: checkpoint to the manifest,
                # keep it out of the cache (a later run must retry).
                if manifest is not None:
                    manifest.mark_error(index, record.get("error", {}))
            elif cache is not None:
                cache.store(requests[index], record)
            records[index] = record
            tick(index, cached=False, elapsed=elapsed, failed=failed)
    finally:
        if manifest is not None:
            manifest.flush()

    missing = [index for index, record in enumerate(records) if record is None]
    if missing:
        raise RuntimeError(
            f"executor {backend.name!r} settled {total - len(missing)} of "
            f"{total} jobs; first missing: job #{missing[0]} "
            f"({requests[missing[0]].label()})"
        )
    return records  # type: ignore[return-value]


def run_sweep(
    spec: SweepSpec,
    workers: int | None = None,
    cache: ResultCache | None = None,
    progress: Callable[[SweepProgress], None] | None = None,
    executor: Executor | str | None = None,
    manifest: SweepManifest | bool = True,
    policy: SupervisorPolicy | None = None,
) -> SweepResult:
    """Expand and execute a :class:`SweepSpec`.

    With a ``cache``, the sweep's :class:`SweepManifest` is written
    before the first job runs and refreshed as jobs settle (pass
    ``manifest=False`` to opt out, or a prebuilt manifest to reuse one).
    Killing the sweep at any point and re-running the same spec resumes
    losslessly: settled records load from the cache, records stay
    byte-identical to an uninterrupted run for every executor backend.

    ``policy`` enables supervision (timeout/retry/quarantine — see
    :func:`run_requests`); the supervisor's counters come back on
    :attr:`SweepResult.supervisor` and quarantined jobs in
    :attr:`SweepResult.quarantined`.
    """
    requests = spec.expand()
    backend = _backend(executor, workers, policy)
    sweep_manifest: SweepManifest | None = None
    if cache is not None and manifest is not False:
        sweep_manifest = (
            manifest
            if isinstance(manifest, SweepManifest)
            else SweepManifest.for_spec(spec, requests, cache)
        )
        sweep_manifest.flush()  # on disk before the first job: kill-safe
    hits_before = cache.hits if cache is not None else 0
    misses_before = cache.misses if cache is not None else 0
    records = run_requests(
        requests,
        cache=cache,
        progress=progress,
        executor=backend,
        manifest=sweep_manifest,
    )
    cached = (cache.hits - hits_before) if cache is not None else 0
    return SweepResult(
        records=records,
        executed=len(records) - cached,
        cached=cached,
        manifest=sweep_manifest,
        cache_hits=cached,
        cache_misses=(cache.misses - misses_before) if cache is not None else 0,
        quarantined=sum(
            1 for r in records if isinstance(r, dict) and r.get("quarantined")
        ),
        supervisor=(
            backend.stats.as_dict()
            if isinstance(backend, SupervisedExecutor)
            else None
        ),
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def aggregate_records(
    records: Iterable[Mapping[str, Any]],
    by: Sequence[str] = ("algorithm", "family"),
) -> list[dict[str, Any]]:
    """Per-group summary rows (count, makespan stats, energy, wake status).

    The default grouping reproduces the shape of the paper's tables: one
    row per algorithm x instance family.
    """
    groups: dict[tuple, list[Mapping[str, Any]]] = {}
    for record in records:
        key = tuple(record.get(k) for k in by)
        groups.setdefault(key, []).append(record)
    rows: list[dict[str, Any]] = []
    for key in sorted(groups, key=lambda k: tuple(str(v) for v in k)):
        members = groups[key]
        makespans = [r["makespan"] for r in members]
        rows.append(
            {
                **dict(zip(by, key)),
                "runs": len(members),
                "mean_makespan": sum(makespans) / len(makespans),
                "max_makespan": max(makespans),
                "max_energy": max(r["max_energy"] for r in members),
                "all_woke": all(r["woke_all"] for r in members),
            }
        )
    return rows
