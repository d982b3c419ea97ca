"""Scheduler unit tests: dedup window, failure settlement, lifecycle.

A controllable fake executor replaces the process pool so the tests can
freeze jobs mid-flight and assert on the dedup behaviour
deterministically — no timing assumptions, no worker processes.
"""

import asyncio
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.runner import RunRequest
from repro.experiments.cache import ResultCache, request_key
from repro.experiments.executors import SweepJobError
from repro.experiments.supervise import SupervisorPolicy
from repro.service.scheduler import JobError, JobScheduler
from repro.service.telemetry import Telemetry


def make_request(seed: int = 0) -> RunRequest:
    return RunRequest(
        "greedy", family="beaded_path",
        family_kwargs={"n": 4, "spacing": 1.0, "seed": seed},
    )


class FakeExecutor:
    """Deterministic in-loop executor: records calls, optionally blocks
    on a gate, optionally fails."""

    name = "fake"

    def __init__(self, workers: int = 2, fail_kind: str | None = None):
        self.workers = workers
        self.fail_kind = fail_kind
        self.calls: list[RunRequest] = []
        self.gate: asyncio.Event | None = None
        self.opened = False
        self.closed = False

    def open(self):
        self.opened = True
        return self

    def close(self):
        self.closed = True

    async def run_one(self, job):
        index, payload = job
        # Supervised schedulers ship ``_Attempt`` wrappers; unwrap either.
        request = getattr(payload, "request", payload)
        self.calls.append(request)
        if self.gate is not None:
            await self.gate.wait()
        if self.fail_kind is not None:
            raise SweepJobError(index, request.label(), self.fail_kind, "boom")
        return index, {"algorithm": request.algorithm, "n": 4}, 0.01


class WedgingExecutor(FakeExecutor):
    """First dispatch wedges until the scheduler kills the pool, then
    surfaces the death as ``BrokenProcessPool``; every later dispatch
    succeeds — the shape of a recycle-then-heal supervision cycle."""

    def __init__(self, workers: int = 2):
        super().__init__(workers)
        self.kills = 0
        self.opens = 0
        self._dead: asyncio.Event | None = None

    def open(self):
        self.opens += 1
        return super().open()

    def kill(self):
        self.kills += 1
        if self._dead is not None:
            self._dead.set()

    async def run_one(self, job):
        index, payload = job
        request = getattr(payload, "request", payload)
        self.calls.append(request)
        if len(self.calls) == 1:
            self._dead = asyncio.Event()
            await self._dead.wait()
            raise BrokenProcessPool("worker pool killed mid-job")
        return index, {"algorithm": request.algorithm, "n": 4}, 0.01


class KillablePool(FakeExecutor):
    """A fake pool whose ``kill()`` breaks every job in flight on it.

    The seed-0 job hangs until killed; the first dispatch of any other
    job stays in flight until the pool is killed, and later dispatches
    (on the fresh pool) succeed at once.
    """

    def __init__(self, workers: int = 2):
        super().__init__(workers)
        self._killed: asyncio.Event | None = None

    def open(self):
        self._killed = asyncio.Event()
        return super().open()

    def kill(self):
        self._killed.set()

    async def run_one(self, job):
        index, payload = job
        request = getattr(payload, "request", payload)
        first = request not in self.calls
        self.calls.append(request)
        if request.family_kwargs["seed"] == 0 or first:
            await self._killed.wait()
            raise BrokenProcessPool("worker pool killed mid-job")
        return index, {"algorithm": request.algorithm, "n": 4}, 0.01


def run(coro):
    return asyncio.run(coro)


class TestSettleOrigins:
    def test_cache_hit_settles_without_executor(self, tmp_path):
        async def go():
            cache = ResultCache(tmp_path)
            request = make_request()
            cache.store(request, {"algorithm": "greedy", "n": 4})
            executor = FakeExecutor()
            scheduler = JobScheduler(cache, executor=executor)
            await scheduler.start()
            try:
                record, origin, elapsed = await scheduler.settle(request)
            finally:
                await scheduler.stop()
            assert origin == "cached" and elapsed == 0.0
            assert record["algorithm"] == "greedy"
            assert executor.calls == []
            assert scheduler.telemetry.jobs_cached == 1

        run(go())

    def test_miss_executes_and_stores(self, tmp_path):
        async def go():
            cache = ResultCache(tmp_path)
            request = make_request()
            executor = FakeExecutor()
            scheduler = JobScheduler(cache, executor=executor)
            await scheduler.start()
            try:
                record, origin, _ = await scheduler.settle(request)
            finally:
                await scheduler.stop()
            assert origin == "executed"
            assert len(executor.calls) == 1
            assert cache.peek_key(request_key(request)) == record
            assert scheduler.telemetry.jobs_executed == 1

        run(go())

    def test_concurrent_identical_jobs_compute_once(self, tmp_path):
        """The dedup window: N simultaneous settles of the same request
        dispatch exactly one execution; the rest ride its future."""

        async def go():
            cache = ResultCache(tmp_path)
            executor = FakeExecutor()
            executor.gate = asyncio.Event()
            scheduler = JobScheduler(cache, executor=executor)
            await scheduler.start()
            try:
                request = make_request()
                waiters = [
                    asyncio.create_task(scheduler.settle(request))
                    for _ in range(5)
                ]
                # Let every waiter reach the probe before any job finishes.
                while not executor.calls:
                    await asyncio.sleep(0)
                executor.gate.set()
                settled = await asyncio.gather(*waiters)
            finally:
                await scheduler.stop()
            assert len(executor.calls) == 1
            origins = sorted(origin for _, origin, _ in settled)
            assert origins == ["deduped"] * 4 + ["executed"]
            records = [record for record, _, _ in settled]
            assert all(record == records[0] for record in records)
            assert scheduler.telemetry.jobs_executed == 1
            assert scheduler.telemetry.jobs_deduped == 4
            assert scheduler.inflight == 0

        run(go())

    def test_distinct_jobs_all_execute(self, tmp_path):
        async def go():
            cache = ResultCache(tmp_path)
            executor = FakeExecutor()
            scheduler = JobScheduler(cache, executor=executor)
            await scheduler.start()
            try:
                settled = await asyncio.gather(
                    *(scheduler.settle(make_request(seed)) for seed in range(3))
                )
            finally:
                await scheduler.stop()
            assert len(executor.calls) == 3
            assert all(origin == "executed" for _, origin, _ in settled)

        run(go())


class TestFailures:
    def test_failure_reaches_every_waiter_as_joberror(self, tmp_path):
        async def go():
            cache = ResultCache(tmp_path)
            executor = FakeExecutor(fail_kind="ValueError")
            executor.gate = asyncio.Event()
            scheduler = JobScheduler(cache, executor=executor)
            await scheduler.start()
            try:
                request = make_request()
                waiters = [
                    asyncio.create_task(scheduler.settle(request))
                    for _ in range(3)
                ]
                while not executor.calls:
                    await asyncio.sleep(0)
                executor.gate.set()
                outcomes = await asyncio.gather(
                    *waiters, return_exceptions=True
                )
            finally:
                await scheduler.stop()
            assert len(executor.calls) == 1  # still deduped
            assert all(isinstance(o, JobError) for o in outcomes)
            assert all(o.kind == "ValueError" for o in outcomes)
            # Nothing was cached and the telemetry counted every waiter.
            assert cache.peek_key(request_key(request)) is None
            assert scheduler.telemetry.jobs_failed == 3
            assert scheduler.inflight == 0

        run(go())

    def test_failed_job_can_be_retried(self, tmp_path):
        """A failure leaves no in-flight residue: resubmitting the same
        request executes again (and can succeed)."""

        async def go():
            cache = ResultCache(tmp_path)
            executor = FakeExecutor(fail_kind="ValueError")
            scheduler = JobScheduler(cache, executor=executor)
            await scheduler.start()
            try:
                request = make_request()
                with pytest.raises(JobError):
                    await scheduler.settle(request)
                executor.fail_kind = None
                record, origin, _ = await scheduler.settle(request)
            finally:
                await scheduler.stop()
            assert origin == "executed"
            assert len(executor.calls) == 2

        run(go())


class TestLifecycle:
    def test_start_is_idempotent_and_stop_closes_pool(self, tmp_path):
        async def go():
            executor = FakeExecutor()
            scheduler = JobScheduler(ResultCache(tmp_path), executor=executor)
            await scheduler.start()
            await scheduler.start()
            assert executor.opened
            await scheduler.stop()
            assert executor.closed

        run(go())

    def test_stop_fails_stuck_waiters(self, tmp_path):
        async def go():
            executor = FakeExecutor()
            executor.gate = asyncio.Event()  # never set: job hangs
            scheduler = JobScheduler(ResultCache(tmp_path), executor=executor)
            await scheduler.start()
            waiter = asyncio.create_task(scheduler.settle(make_request()))
            while not executor.calls:
                await asyncio.sleep(0)
            await scheduler.stop()
            with pytest.raises(JobError, match="ServiceStopped"):
                await waiter

        run(go())


class TestSupervision:
    """PR 9 health layer: per-job timeout, pool recycle, stall watchdog."""

    def test_job_timeout_recycles_pool_and_retry_heals(self, tmp_path):
        async def go():
            policy = SupervisorPolicy(
                job_timeout=0.2, retries=2, backoff_base=0.01, jitter=0.0
            )
            executor = WedgingExecutor()
            scheduler = JobScheduler(
                ResultCache(tmp_path), executor=executor, policy=policy
            )
            await scheduler.start()
            try:
                record, origin, _ = await scheduler.settle(make_request())
            finally:
                await scheduler.stop()
            assert origin == "executed" and record["algorithm"] == "greedy"
            assert scheduler.telemetry.pools_recycled == 1
            assert scheduler.telemetry.jobs_retried == 1
            assert scheduler.telemetry.jobs_quarantined == 0
            assert executor.kills == 1
            assert executor.opens == 2  # start + one recycle

        run(go())

    def test_timeout_kill_does_not_charge_in_flight_sibling(self, tmp_path):
        """The charging rule: job A times out, and the recycle that kills
        it also kills job B, in flight on the other worker.  A is charged
        and quarantined; B reruns uncharged and settles."""

        async def go():
            policy = SupervisorPolicy(job_timeout=0.4, retries=0)
            executor = KillablePool(workers=2)
            scheduler = JobScheduler(
                ResultCache(tmp_path), executor=executor, policy=policy
            )
            await scheduler.start()
            try:
                hung = asyncio.create_task(scheduler.settle(make_request(0)))
                await asyncio.sleep(0.2)
                sibling = asyncio.create_task(scheduler.settle(make_request(1)))
                outcomes = await asyncio.wait_for(
                    asyncio.gather(hung, sibling, return_exceptions=True), 10.0
                )
            finally:
                await scheduler.stop()
            failure, settled = outcomes
            assert isinstance(failure, JobError)
            assert failure.kind == "JobTimeout"
            assert not isinstance(settled, BaseException), settled
            record, origin, _ = settled
            assert origin == "executed" and record["algorithm"] == "greedy"
            assert scheduler.telemetry.jobs_quarantined == 1
            assert scheduler.telemetry.pools_recycled == 1

        run(go())

    def test_budget_exhaustion_quarantines(self, tmp_path):
        async def go():
            policy = SupervisorPolicy(
                job_timeout=5.0, retries=1, backoff_base=0.01, jitter=0.0
            )
            executor = FakeExecutor(fail_kind="TransientFault")
            scheduler = JobScheduler(
                ResultCache(tmp_path), executor=executor, policy=policy
            )
            await scheduler.start()
            try:
                with pytest.raises(JobError, match="TransientFault"):
                    await scheduler.settle(make_request())
            finally:
                await scheduler.stop()
            assert len(executor.calls) == 2  # original attempt + one retry
            assert scheduler.telemetry.jobs_retried == 1
            assert scheduler.telemetry.jobs_quarantined == 1

        run(go())

    def test_stall_watchdog_recycles_wedged_pool(self, tmp_path):
        """No policy armed: the heartbeat watchdog alone must notice a
        wedge, replace the pool, and fail the waiter over — not hang."""

        async def go():
            executor = WedgingExecutor()
            scheduler = JobScheduler(
                ResultCache(tmp_path), executor=executor, stall_after=0.2
            )
            await scheduler.start()
            try:
                with pytest.raises(JobError, match="BrokenProcessPool"):
                    await scheduler.settle(make_request())
            finally:
                await scheduler.stop()
            assert scheduler.telemetry.pools_recycled == 1
            assert executor.kills == 1 and executor.opens == 2

        run(go())

    def test_stall_recycle_with_policy_retries_and_heals(self, tmp_path):
        """Watchdog + policy compose: the recycle surfaces as a retryable
        failure and the job settles on the fresh pool."""

        async def go():
            policy = SupervisorPolicy(
                job_timeout=30.0, retries=1, backoff_base=0.01, jitter=0.0
            )
            executor = WedgingExecutor()
            scheduler = JobScheduler(
                ResultCache(tmp_path),
                executor=executor,
                policy=policy,
                stall_after=0.2,
            )
            await scheduler.start()
            try:
                record, origin, _ = await scheduler.settle(make_request())
            finally:
                await scheduler.stop()
            assert origin == "executed" and record["algorithm"] == "greedy"
            assert scheduler.telemetry.pools_recycled == 1
            assert scheduler.telemetry.jobs_retried == 1

        run(go())


class TestTelemetry:
    def test_snapshot_shape_and_rate(self):
        telemetry = Telemetry()
        for origin in ("executed", "executed", "cached", "deduped", "failed"):
            telemetry.job_settled(origin)
        snapshot = telemetry.snapshot()
        assert snapshot["jobs"]["executed"] == 2
        assert snapshot["jobs"]["cached"] == 1
        assert snapshot["jobs"]["deduped"] == 1
        assert snapshot["jobs"]["failed"] == 1
        assert snapshot["jobs"]["settled"] == 5
        assert snapshot["events_per_s"] > 0
        assert snapshot["uptime_s"] >= 0
