"""Pluggable sweep executors: in-process serial and one process pool.

A sweep selects its execution strategy by name from a small registry
(:func:`register_executor`, :func:`get_executor`, :func:`executor_names`),
mirroring the algorithm and scenario registries:

* :class:`Executor` — the protocol: ``submit(indexed jobs)`` yields
  ``(index, record, elapsed)`` tuples as jobs settle, in any order;
* ``serial`` — in-process, submission order: the debugging and
  profiling baseline (no pickling, original tracebacks chained);
* ``pool``, also registered as ``async-local`` — :class:`PoolExecutor`,
  the one out-of-process backend: a ``concurrent.futures`` process pool
  driven two ways:

  - batch :meth:`PoolExecutor.submit` (``freezetag sweep``), keeping the
    historical ``run_requests(workers=N)`` fast path: one worker or one
    job runs in-process;
  - persistent :meth:`~PoolExecutor.open` / :meth:`~PoolExecutor.run_one`
    / :meth:`~PoolExecutor.kill` / :meth:`~PoolExecutor.close`, awaited
    one job at a time from a caller-owned event loop — the surface the
    supervisor (:mod:`repro.experiments.supervise`) drives for both
    supervised sweeps and ``freezetag serve``.

Executors only order *execution*; the harness reassembles records by
job index and every job is deterministic given its request, so sweep
records are **byte-identical across backends** (pinned by
``tests/experiments/test_executors.py``).

Failure contract: a job that raises surfaces as :class:`SweepJobError`
naming the job's index and the offending request's label — never a bare
pool traceback.  Workers ship a picklable :class:`JobFailure` payload
back instead of the exception object itself, so unpicklable exception
types cannot wedge the pool.  A worker that dies without settling
(SIGKILL, ``os._exit``) breaks the pool: batch ``submit`` raises
:class:`WorkerDied` naming every unsettled job, and ``run_one`` awaiters
see ``BrokenProcessPool``.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Protocol, Sequence, runtime_checkable

from ..core.runner import RunRequest
from .faults import fire_worker_faults

__all__ = [
    "Executor",
    "SweepJobError",
    "WorkerDied",
    "JobFailure",
    "SerialExecutor",
    "PoolExecutor",
    "register_executor",
    "get_executor",
    "executor_names",
    "resolve_executor",
]

#: One unit of work: the job's position in the request list plus the job.
IndexedJob = tuple[int, RunRequest]
#: One settled job: position, normalised record, worker-side wall time.
SettledJob = tuple[int, dict[str, Any], float]


class SweepJobError(RuntimeError):
    """One sweep job failed; carries the job's identity, not just a trace.

    ``index`` is the job's position in the submitted request list and
    ``label`` the offending :meth:`RunRequest.label`, so a failure deep
    in a thousand-job sweep is attributable without replaying it.
    """

    def __init__(self, index: int, label: str, kind: str, message: str) -> None:
        self.index = index
        self.label = label
        self.kind = kind
        self.message = message
        super().__init__(
            f"sweep job #{index} ({label}) failed with {kind}: {message}"
        )


class WorkerDied(RuntimeError):
    """A worker process died without settling its jobs.

    Raised by the batch pool path when the pool breaks.  ``indexes``
    names every submitted-but-unsettled job at the moment of death; the
    pool's remaining workers have already been killed when this is
    raised.
    """

    def __init__(self, indexes: Sequence[int], detail: str = "") -> None:
        self.indexes = tuple(indexes)
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"worker died without settling; {len(self.indexes)} job(s) "
            f"unsettled: {list(self.indexes[:8])}"
            + ("..." if len(self.indexes) > 8 else "")
            + suffix
        )


@dataclass(frozen=True)
class JobFailure:
    """Picklable failure payload shipped back from a worker process
    (exception objects are not reliably picklable)."""

    kind: str
    message: str


@dataclass(frozen=True)
class _Attempt:
    """One supervised attempt of a job, as shipped to a worker.

    Carries the attempt number so transient fault plants heal on retry;
    a bare request always runs as attempt 0.
    """

    request: Any
    attempt: int

    def label(self) -> str:
        return self.request.label()


def _reset_worker_signals() -> None:
    """Pool-worker initializer: restore default SIGTERM handling.

    Workers fork from a parent that may have installed a graceful
    SIGTERM -> ``SystemExit`` handler (the CLI does, so a killed sweep
    flushes its manifest).  Inherited by a worker, that handler turns a
    teardown SIGTERM into an in-flight ``SystemExit`` whose unwinding
    can deadlock against the pool's own queues.  Workers must simply die
    on SIGTERM; the graceful part is the parent's job.
    """
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


def _execute_job(job: IndexedJob) -> tuple[int, Any, float]:
    """Worker body of the process pool (module-level: picklable).

    Failures come back as data (:class:`JobFailure`), not exceptions:
    the parent re-raises them as :class:`SweepJobError` with the job's
    identity attached.  Armed worker fault plants (:mod:`.faults`) fire
    here, at the attempt number an :class:`_Attempt` carries.
    """
    from .harness import execute_request  # runtime import: avoids a cycle

    index, request = job
    attempt = 0
    if isinstance(request, _Attempt):
        request, attempt = request.request, request.attempt
    start = time.perf_counter()
    try:
        fire_worker_faults(index, attempt)
        record = execute_request(request)
    except Exception as exc:
        return index, JobFailure(type(exc).__name__, str(exc)), time.perf_counter() - start
    return index, record, time.perf_counter() - start


def _run_serial(jobs: Sequence[IndexedJob]) -> Iterator[SettledJob]:
    """Run jobs in-process, in submission order, chaining real tracebacks.

    Worker fault plants deliberately do **not** fire here: a planted
    ``crash`` would take the coordinator (and its manifest) down with
    it.  Supervised "serial" execution runs the job in a one-worker pool
    instead and is fully chaos-capable.
    """
    from .harness import execute_request  # runtime import: avoids a cycle

    for index, request in jobs:
        start = time.perf_counter()
        try:
            record = execute_request(request)
        except Exception as exc:
            raise SweepJobError(
                index, request.label(), type(exc).__name__, str(exc)
            ) from exc
        yield index, record, time.perf_counter() - start


def _job_error(index: int, request: Any, failure: JobFailure) -> SweepJobError:
    return SweepJobError(index, request.label(), failure.kind, failure.message)


@runtime_checkable
class Executor(Protocol):
    """Execution backend protocol for sweep jobs.

    ``submit`` consumes indexed jobs and yields them as they settle, in
    *any* order — the harness reassembles records by index.  A failing
    job must surface as :class:`SweepJobError`.

    Supervision (:class:`~repro.experiments.supervise.SupervisedExecutor`)
    additionally needs the persistent surface :class:`PoolExecutor`
    provides: ``open()``, ``await run_one(job)``, ``kill()``, ``close()``
    and a ``workers`` count.
    """

    name: str

    def submit(self, jobs: Sequence[IndexedJob]) -> Iterator[SettledJob]: ...


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_EXECUTORS: dict[str, Callable[..., Executor]] = {}


def register_executor(name: str) -> Callable[[Callable[..., Executor]], Callable[..., Executor]]:
    """Register an executor factory under ``name``.

    The factory is called as ``factory(workers=...)`` where ``workers``
    is the caller's parallelism hint (``None`` = backend default).
    """

    def decorate(factory: Callable[..., Executor]) -> Callable[..., Executor]:
        if name in _EXECUTORS:
            raise ValueError(f"executor {name!r} already registered")
        _EXECUTORS[name] = factory
        return factory

    return decorate


def executor_names() -> tuple[str, ...]:
    """All registered executor names, sorted."""
    return tuple(sorted(_EXECUTORS))


def get_executor(name: str, workers: int | None = None) -> Executor:
    """Instantiate the executor registered under ``name``."""
    try:
        factory = _EXECUTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; choose from {executor_names()}"
        ) from None
    return factory(workers=workers)


def resolve_executor(
    executor: Executor | str | None, workers: int | None = None
) -> Executor:
    """The harness's front door: name, instance or legacy ``workers=``.

    ``None`` keeps the historical ``workers=`` semantics: a worker count
    above one selects the ``pool`` backend, anything else runs serial.
    A string resolves through the registry with ``workers`` as the
    parallelism hint; an instance is used as-is (combining it with
    ``workers=`` is an error — configure the instance instead).
    """
    if executor is None:
        name = "pool" if workers is not None and workers > 1 else "serial"
        return get_executor(name, workers=workers)
    if isinstance(executor, str):
        return get_executor(executor, workers=workers)
    if workers is not None:
        raise ValueError(
            "pass workers= with an executor *name*; an executor instance "
            "carries its own worker count"
        )
    return executor


# ---------------------------------------------------------------------------
# Built-in backends
# ---------------------------------------------------------------------------

def _default_workers(workers: int | None) -> int:
    return workers if workers is not None else (os.cpu_count() or 1)


@register_executor("serial")
class SerialExecutor:
    """In-process execution in submission order.

    The baseline every other backend must match byte-for-byte; also the
    right backend under a debugger or profiler (no pickling, and a
    failing job chains its original traceback).  ``workers`` is accepted
    for registry uniformity and ignored.
    """

    name = "serial"

    def __init__(self, workers: int | None = None) -> None:
        pass

    def submit(self, jobs: Sequence[IndexedJob]) -> Iterator[SettledJob]:
        return _run_serial(jobs)


def _kill_pool(pool: ProcessPoolExecutor, wait: bool) -> None:
    """SIGKILL every worker of ``pool``, then shut it down.

    SIGKILL cannot be refused, so a worker that ignores SIGTERM or hangs
    in a job cannot wedge teardown; the pool notices the deaths and
    fails every unsettled future with ``BrokenProcessPool``.
    """
    for process in list(pool._processes.values()):
        try:
            process.kill()
        except (OSError, ValueError):  # pragma: no cover - already reaped
            pass
    pool.shutdown(wait=wait)


@register_executor("async-local")
@register_executor("pool")
class PoolExecutor:
    """The one out-of-process backend: a ``ProcessPoolExecutor``.

    Batch :meth:`submit` keeps the pinned behavior of the ``workers=``
    compat shim: the pool is capped at the job count, and a single job
    or single worker runs in-process (no pool spawn), exactly as
    ``run_requests(workers=N)`` always did.

    The persistent mode (:meth:`open`, :meth:`run_one`, :meth:`kill`,
    :meth:`close`) keeps one pool of ``workers`` processes alive across
    jobs awaited from a caller-owned event loop.  Every job runs out of
    process there, so a crashed or hung one can be killed and retried.
    """

    name = "pool"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = _default_workers(workers)
        self._pool: ProcessPoolExecutor | None = None

    @staticmethod
    def _spawn(workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max(1, workers), initializer=_reset_worker_signals
        )

    # -- batch Executor protocol --------------------------------------------

    def submit(self, jobs: Sequence[IndexedJob]) -> Iterator[SettledJob]:
        jobs = list(jobs)
        if self.workers <= 1 or len(jobs) <= 1:
            return _run_serial(jobs)
        return self._fan_out(jobs)

    def _fan_out(self, jobs: list[IndexedJob]) -> Iterator[SettledJob]:
        requests = dict(jobs)
        unsettled = set(requests)
        pool = self._spawn(min(self.workers, len(jobs)))
        try:
            futures = [pool.submit(_execute_job, job) for job in jobs]
            for future in as_completed(futures):
                try:
                    index, payload, elapsed = future.result()
                except BrokenProcessPool:
                    raise WorkerDied(sorted(unsettled)) from None
                unsettled.discard(index)
                if isinstance(payload, JobFailure):
                    raise _job_error(index, requests[index], payload)
                yield index, payload, elapsed
        finally:
            # Abandoned early (a failure, a dead worker, SIGTERM): the
            # remaining jobs are not worth waiting for.
            if unsettled:
                _kill_pool(pool, wait=True)
            else:
                pool.shutdown()

    # -- persistent mode (supervision, ``freezetag serve``) ------------------

    def open(self) -> "PoolExecutor":
        """Start the long-lived worker pool for :meth:`run_one` (idempotent)."""
        if self._pool is None:
            self._pool = self._spawn(self.workers)
        return self

    async def run_one(self, job: IndexedJob) -> SettledJob:
        """Await one job on the opened pool from the running event loop.

        Raises :class:`SweepJobError` when the job fails and
        ``BrokenProcessPool`` when the pool breaks under it (a worker
        died, or :meth:`kill` ran).  The event loop is never blocked —
        the simulation runs in a worker process.
        """
        if self._pool is None:
            raise RuntimeError("executor not opened; call open() first")
        index, request = job
        future = self._pool.submit(_execute_job, job)
        index, payload, elapsed = await asyncio.wrap_future(future)
        if isinstance(payload, JobFailure):
            raise _job_error(index, request, payload)
        return index, payload, elapsed

    def kill(self) -> None:
        """Tear the persistent pool down *now*: SIGKILL the workers and
        abandon in-flight jobs (their awaiters see ``BrokenProcessPool``).

        ``close()`` would block behind the very job that is hung.
        Idempotent, like :meth:`close`; :meth:`open` starts a fresh pool.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            _kill_pool(pool, wait=False)

    def close(self) -> None:
        """Shut the persistent pool down (idempotent; queued jobs are
        cancelled, running ones drain)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
