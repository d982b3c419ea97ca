"""Single-writer job queue with cross-tenant dedup over the shared cache.

Every sweep the service accepts is decomposed into independent
:class:`~repro.core.runner.RunRequest` jobs and settled through one
:class:`JobScheduler`.  The scheduler owns the three shared resources:

* the **content-addressed cache** — a job whose record is already on
  disk settles instantly (origin ``cached``);
* the **in-flight table** — a job identical (same
  :func:`~repro.experiments.cache.request_key`) to one currently
  executing piggybacks on its future instead of enqueueing a duplicate
  (origin ``deduped``): concurrent identical submissions compute once;
* the **worker pool** — everything else enters one asyncio queue drained
  by a single coordinator task that hands jobs, bounded by the worker
  count, to the shared attempt loop
  (:class:`~repro.experiments.supervise.Supervisor`) over the opened
  :class:`~repro.experiments.executors.PoolExecutor` (origin
  ``executed``).

Single-writer discipline: the queue, the in-flight table, the cache and
the telemetry counters are touched only from the event loop thread —
worker processes just compute records.  That is what makes the dedup
window race-free without locks: between a cache miss and the enqueue
there is no ``await``.

Failures settle too: a job that raises inside a worker resolves its
future with :class:`JobError` (kind + message, picklable data shipped
back by the executor), which every waiter — the submitting sweep and any
deduped siblings — receives as a per-job error state.  The scheduler
itself never dies with a job.

Supervision: with a
:class:`~repro.experiments.supervise.SupervisorPolicy`, the attempt loop
bounds each attempt by ``job_timeout``, replaces a dead or wedged pool
(``pools_recycled`` in telemetry), retries with the policy's
deterministic backoff and charges attempts by the same rule as
``freezetag sweep`` (see :mod:`repro.experiments.supervise`).  A job that
exhausts its budget settles as a quarantined :class:`JobError`.
Independent of the policy, a ``stall_after`` watchdog recycles the pool
when jobs are in flight but no attempt has ended for that long — the
liveness backstop for wedges no per-job timeout covers.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

from ..core.runner import RunRequest
from ..experiments.cache import ResultCache, request_key
from ..experiments.executors import PoolExecutor, get_executor
from ..experiments.supervise import AttemptsExhausted, Supervisor, SupervisorPolicy
from .telemetry import Telemetry

__all__ = ["JobError", "JobScheduler"]


class JobError(RuntimeError):
    """Terminal failure of one scheduled job, as data.

    ``kind`` is the original exception type name from the worker,
    ``message`` its text.  Raised to *every* waiter of the job — the
    submitting sweep and all deduped siblings — and recorded as a
    per-job error state, never a transport-level 500.
    """

    def __init__(self, kind: str, message: str) -> None:
        self.kind = kind
        self.message = message
        super().__init__(f"{kind}: {message}")


class JobScheduler:
    """The service's only writer of cache, queue and telemetry state."""

    def __init__(
        self,
        cache: ResultCache,
        executor: PoolExecutor | None = None,
        workers: int | None = None,
        telemetry: Telemetry | None = None,
        policy: SupervisorPolicy | None = None,
        stall_after: float | None = None,
    ) -> None:
        self.cache = cache
        self.executor = (
            executor
            if executor is not None
            else get_executor("pool", workers=workers)
        )
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        #: Liveness watchdog: with jobs in flight and no attempt ending
        #: for this long, the pool is presumed wedged and recycled.
        #: ``None`` disables it.
        self.stall_after = stall_after
        #: The attempt loop.  ``policy=None`` keeps the historical
        #: single-attempt behavior; a policy arms per-attempt timeout,
        #: retries and quarantine.
        self.supervisor = Supervisor(
            self.executor, policy, stats=self.telemetry.supervision
        )
        self._queue: asyncio.Queue[tuple[str, RunRequest, asyncio.Future]] = (
            asyncio.Queue()
        )
        self._inflight: dict[str, asyncio.Future] = {}
        self._running: set[asyncio.Task] = set()
        self._drain_task: asyncio.Task | None = None
        self._watchdog_task: asyncio.Task | None = None
        self._sequence = 0  # job numbers for executor-level error labels

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Open the worker pool and start the coordinator task."""
        self.executor.open()
        self.supervisor.beat()
        if self._drain_task is None:
            self._drain_task = asyncio.create_task(
                self._drain(), name="freezetag-scheduler"
            )
        if self._watchdog_task is None and self.stall_after is not None:
            self._watchdog_task = asyncio.create_task(
                self._watchdog(), name="freezetag-watchdog"
            )

    async def stop(self) -> None:
        """Cancel coordination and shut the worker pool down."""
        tasks = [self._drain_task, self._watchdog_task, *self._running]
        self._drain_task = None
        self._watchdog_task = None
        for task in tasks:
            if task is not None:
                task.cancel()
        await asyncio.gather(
            *(t for t in tasks if t is not None), return_exceptions=True
        )
        # Fail anything still queued or in flight so no waiter hangs.
        stopped = JobError("ServiceStopped", "scheduler shut down")
        while not self._queue.empty():
            _, _, future = self._queue.get_nowait()
            if not future.done():
                future.set_exception(stopped)
        for future in self._inflight.values():
            if not future.done():
                future.set_exception(stopped)
        self._inflight.clear()
        # Pool shutdown joins worker processes; keep it off the loop.
        await asyncio.to_thread(self.executor.close)

    # -- introspection ------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Jobs accepted but not yet dispatched to a worker."""
        return self._queue.qsize()

    @property
    def inflight(self) -> int:
        """Unique jobs somewhere between acceptance and settlement."""
        return len(self._inflight)

    # -- the one entry point ------------------------------------------------

    async def settle(
        self, request: RunRequest
    ) -> tuple[dict[str, Any], str, float]:
        """Resolve one job to its record: ``(record, origin, elapsed)``.

        ``origin`` is ``cached`` | ``deduped`` | ``executed``.  Raises
        :class:`JobError` when the job fails (including when an in-flight
        job this one deduped onto fails).  No ``await`` separates the
        cache probe, the in-flight lookup and the enqueue, so two
        identical concurrent submissions can never both enqueue.
        """
        key = request_key(request)
        record = self.cache.load(request)
        if record is not None:
            self.telemetry.job_settled("cached")
            return record, "cached", 0.0
        existing = self._inflight.get(key)
        if existing is not None:
            try:
                record, elapsed = await existing
            except JobError:
                self.telemetry.job_settled("failed")
                raise
            self.telemetry.job_settled("deduped")
            return record, "deduped", elapsed
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self._queue.put_nowait((key, request, future))
        try:
            record, elapsed = await future
        except JobError:
            self.telemetry.job_settled("failed")
            raise
        self.telemetry.job_settled("executed")
        return record, "executed", elapsed

    # -- coordinator ---------------------------------------------------------

    async def _drain(self) -> None:
        """Pull queued jobs and dispatch, bounded by the worker count."""
        limit = asyncio.Semaphore(max(1, self.executor.workers))
        while True:
            item = await self._queue.get()
            await limit.acquire()
            task = asyncio.create_task(self._execute(item, limit))
            self._running.add(task)
            task.add_done_callback(self._running.discard)

    async def _execute(
        self,
        item: tuple[str, RunRequest, asyncio.Future],
        limit: asyncio.Semaphore,
    ) -> None:
        """Run one job through the attempt loop and resolve its future."""
        key, request, future = item
        self._sequence += 1
        try:
            _, record, elapsed = await self.supervisor.run(self._sequence, request)
            self.cache.store(request, record)
            if not future.done():
                future.set_result((record, elapsed))
        except AttemptsExhausted as failure:
            if not future.done():
                future.set_exception(JobError(failure.kind, failure.message))
        except asyncio.CancelledError:
            if not future.done():
                future.set_exception(
                    JobError("ServiceStopped", "scheduler shut down")
                )
            raise
        except Exception as exc:  # pragma: no cover - scheduler bug guard
            if not future.done():
                future.set_exception(JobError(type(exc).__name__, str(exc)))
        finally:
            self._inflight.pop(key, None)
            limit.release()

    async def _watchdog(self) -> None:
        """Recycle the pool when in-flight jobs stop settling.

        The per-job timeout needs the policy armed; this is the
        independent backstop — pure heartbeat age, so even a policy-less
        scheduler gets its wedged pool replaced and the waiters failed
        over.
        """
        assert self.stall_after is not None
        interval = max(0.05, self.stall_after / 4.0)
        while True:
            await asyncio.sleep(interval)
            stalled = time.monotonic() - self.supervisor.last_beat > self.stall_after
            if self._inflight and stalled:
                self.supervisor.recycle(self.supervisor.generation)
