"""Supervised execution: timeout, retry, backoff, quarantine.

One async attempt loop, :class:`Supervisor`, serves both ``freezetag
sweep`` (:class:`SupervisedExecutor` drives it on a private event loop)
and ``freezetag serve`` (:class:`~repro.service.scheduler.JobScheduler`
drives it from the service loop).  It runs every attempt through the
persistent surface of :class:`~repro.experiments.executors.PoolExecutor`
(``open``/``run_one``/``kill``) and applies one policy:

* **dispatch** — at most ``workers`` attempts in flight, so a dispatched
  job is a running job;
* **timeout** — each attempt is bounded by ``job_timeout`` with
  ``asyncio.wait_for``;
* **recycle** — a timeout or a broken pool replaces the worker pool
  (SIGKILL, then a fresh pool) once per break, however many in-flight
  jobs the break took down;
* **retry** — a charged attempt is rescheduled after a deterministic
  exponential backoff with seeded jitter (pure function of ``(seed, job
  index, attempt)`` — reruns behave identically);
* **quarantine** — a job charged ``retries + 1`` times gives up: a
  sweep settles it as an error *record* (data, never an exception; not
  cached, so a later run retries it), the service as a ``JobError``.

The charging rule — which attempts count against a job's budget:

* a job is charged for its own failure and for its own timeout;
* a job is charged for a pool break it was in flight for, unless the
  supervisor killed the pool for a timeout: a worker death and a
  recycle by the service's stall watchdog are charged;
* jobs killed by the recycle for *another* job's timeout rerun
  uncharged, at the same attempt number;
* ``worker_deaths`` counts only pool breaks no recycle caused (a
  worker died on its own).

Because a quarantine-free supervised run yields exactly the records the
unsupervised backend would have produced, sweep output stays
**byte-identical** to a clean run — the chaos matrix
(``tests/experiments/test_supervise.py``) byte-diffs exactly that under
every planted fault in :mod:`repro.experiments.faults`.
"""

from __future__ import annotations

import asyncio
import random
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import Any, Iterator, Sequence

from .executors import (
    Executor,
    IndexedJob,
    PoolExecutor,
    SettledJob,
    SweepJobError,
    WorkerDied,
    _Attempt,
    register_executor,
    resolve_executor,
)

__all__ = [
    "AttemptsExhausted",
    "Supervisor",
    "SupervisorPolicy",
    "SupervisorStats",
    "SupervisedExecutor",
    "quarantine_record",
]


@dataclass(frozen=True)
class SupervisorPolicy:
    """The supervision knobs (all deterministic; see :meth:`backoff`).

    ``retries`` is the number of *re*-attempts: a job is charged at most
    ``retries + 1`` attempts before quarantine.  ``job_timeout`` bounds
    each attempt's wall clock from dispatch; ``None`` disables it.
    """

    job_timeout: float | None = None
    retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError("job_timeout must be positive (or None)")

    def backoff(self, index: int, attempt: int) -> float:
        """Delay before re-attempt ``attempt`` of job ``index``.

        Exponential in the attempt number, capped, plus jitter drawn
        from a generator seeded by ``(seed, index, attempt)`` — the
        schedule is a pure function of the policy, so a re-run of the
        same chaos scenario retries at the same offsets.
        """
        base = min(
            self.backoff_max,
            self.backoff_base * (self.backoff_factor ** max(0, attempt - 1)),
        )
        if self.jitter <= 0:
            return base
        rng = random.Random(f"{self.seed}:{index}:{attempt}")
        return base * (1.0 + self.jitter * rng.random())


@dataclass
class SupervisorStats:
    """Counters accumulated across one supervisor's lifetime.

    ``retried`` counts charged attempts that were rescheduled,
    ``quarantined`` jobs that spent their budget, ``timeouts`` attempts
    killed for exceeding ``job_timeout``, ``worker_deaths`` pool breaks
    no recycle caused, and ``pools_recycled`` every pool replacement,
    whatever its cause.
    """

    retried: int = 0
    quarantined: int = 0
    worker_deaths: int = 0
    timeouts: int = 0
    pools_recycled: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class AttemptsExhausted(Exception):
    """A job was charged its last allowed attempt; carries that failure."""

    def __init__(self, kind: str, message: str, attempts: int) -> None:
        self.kind = kind
        self.message = message
        self.attempts = attempts
        super().__init__(f"{kind}: {message} (after {attempts} attempt(s))")


def quarantine_record(
    request: Any, index: int, kind: str, message: str, attempts: int
) -> dict[str, Any]:
    """The error-data record a quarantined job settles as.

    Shaped like a failed run row (``woke_all`` False, identifying fields
    present) so CSV output and aggregation degrade gracefully; the
    ``quarantined`` flag is how the harness knows not to cache it.
    """
    label = getattr(request, "label", None)
    record: dict[str, Any] = {
        "quarantined": True,
        "error": {"kind": kind, "message": message, "attempts": attempts},
        "label": label() if callable(label) else f"job #{index}",
        "woke_all": False,
    }
    for attr, column in (("algorithm", "algorithm"), ("workload", "family")):
        value = getattr(request, attr, None)
        if isinstance(value, str):
            record[column] = value
    return record


class Supervisor:
    """The attempt loop over an opened persistent pool.

    ``policy=None`` keeps the unsupervised service behavior: one attempt,
    no timeout, and a failure is not counted as a quarantine.  Must be
    driven from a single event loop; ``stats`` may be shared with a
    caller that reports it (the service's telemetry does).
    """

    def __init__(
        self,
        executor: Any,
        policy: SupervisorPolicy | None = None,
        stats: SupervisorStats | None = None,
    ) -> None:
        self.executor = executor
        self.policy = policy
        self.stats = stats if stats is not None else SupervisorStats()
        #: When an attempt last ended or the pool was last replaced: the
        #: heartbeat the service's stall watchdog reads.
        self.last_beat = time.monotonic()
        self._slots = asyncio.Semaphore(max(1, executor.workers))
        self._generation = 0
        #: Pool generations the supervisor killed for a timeout: breaks
        #: their other in-flight jobs are not charged for.
        self._timeout_kills: set[int] = set()

    @property
    def generation(self) -> int:
        """How many times the pool has been replaced."""
        return self._generation

    def beat(self) -> None:
        self.last_beat = time.monotonic()

    def recycle(self, generation: int, for_timeout: bool = False) -> bool:
        """Replace the pool of ``generation`` (SIGKILL, then a fresh pool).

        Every job in flight when a pool breaks observes the break, but
        only the first recycles; the rest find a newer generation.
        ``for_timeout`` marks the kill as the supervisor's own, so the
        jobs it takes down rerun uncharged.  Returns whether this call
        replaced the pool.
        """
        if generation != self._generation:
            return False
        if for_timeout:
            self._timeout_kills.add(generation)
        self._generation += 1
        self.stats.pools_recycled += 1
        self.beat()
        self.executor.kill()
        self.executor.open()
        return True

    async def run(self, index: int, request: Any) -> SettledJob:
        """Settle job ``index``: its ``(index, record, elapsed)``.

        Raises :class:`AttemptsExhausted` once the job has been charged
        ``retries + 1`` attempts (one without a policy).
        """
        policy = self.policy
        timeout = policy.job_timeout if policy is not None else None
        retries = policy.retries if policy is not None else 0
        attempts = 0
        while True:
            # A supervised attempt carries its number, so transient fault
            # plants heal on retry.
            payload = _Attempt(request, attempts) if policy is not None else request
            async with self._slots:
                generation = self._generation
                try:
                    settle = self.executor.run_one((index, payload))
                    return await asyncio.wait_for(settle, timeout)
                except TimeoutError:
                    # The worker is still grinding the job; only a pool
                    # replacement actually stops it.
                    self.stats.timeouts += 1
                    self.recycle(generation, for_timeout=True)
                    kind, message = "JobTimeout", f"exceeded job timeout of {timeout}s"
                except (BrokenProcessPool, WorkerDied) as exc:
                    if generation in self._timeout_kills:
                        continue  # killed for another job's timeout
                    if self.recycle(generation):
                        self.stats.worker_deaths += 1
                    kind, message = type(exc).__name__, str(exc) or "worker pool broke"
                except SweepJobError as exc:
                    kind, message = exc.kind, exc.message
                except RuntimeError as exc:  # pool closed mid-flight, pickling, OS
                    kind, message = type(exc).__name__, str(exc)
                finally:
                    self.beat()
            attempts += 1
            if attempts > retries:
                if policy is not None:
                    self.stats.quarantined += 1
                raise AttemptsExhausted(kind, message, attempts)
            self.stats.retried += 1
            await asyncio.sleep(policy.backoff(index, attempts))


@register_executor("supervised")
class SupervisedExecutor:
    """Retry/timeout/quarantine supervision for batch sweeps.

    ``inner`` is a backend name, ``None`` (the ``workers=`` compat
    resolution) or an instance offering the persistent pool surface
    (``open``/``run_one``/``kill``/``close``).  "serial" (and the
    single-worker resolution of ``None``) becomes a one-worker
    :class:`PoolExecutor`: a crashed or hung job must not take the
    coordinator down.  Registered as ``"supervised"`` with the default
    policy, so ``freezetag sweep --executor supervised`` works; the CLI's
    ``--job-timeout``/``--retries`` knobs build an explicit policy.
    """

    name = "supervised"

    def __init__(
        self,
        inner: Executor | str | None = "pool",
        workers: int | None = None,
        policy: SupervisorPolicy | None = None,
    ) -> None:
        self.policy = policy if policy is not None else SupervisorPolicy()
        base = (
            inner
            if not (inner is None or isinstance(inner, str))
            else resolve_executor(inner, workers=workers)
        )
        if base.name == "serial":
            base = PoolExecutor(workers=1)
        if not callable(getattr(base, "run_one", None)):
            raise ValueError(
                f"executor {base.name!r} offers no run_one(); supervision "
                "needs the persistent pool surface of PoolExecutor"
            )
        self.inner: Any = base
        self.workers = base.workers
        self.stats = SupervisorStats()

    def submit(self, jobs: Sequence[IndexedJob]) -> Iterator[SettledJob]:
        """Settle every job: successes verbatim, quarantines as error data.

        Never raises for job failures, worker deaths or timeouts — the
        caller sees those only as ``quarantined`` records (and the
        running counters in :attr:`stats`).
        """
        loop = asyncio.new_event_loop()
        supervisor = Supervisor(self.inner, self.policy, self.stats)

        async def settle(index: int, request: Any) -> SettledJob:
            try:
                return await supervisor.run(index, request)
            except AttemptsExhausted as failure:
                record = quarantine_record(
                    request, index, failure.kind, failure.message, failure.attempts
                )
                return index, record, 0.0

        pending: set[asyncio.Task] = set()
        try:
            self.inner.open()
            pending = {loop.create_task(settle(i, request)) for i, request in jobs}
            while pending:
                done, pending = loop.run_until_complete(
                    asyncio.wait(pending, return_when=asyncio.FIRST_COMPLETED)
                )
                for task in done:
                    yield task.result()
        finally:
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
                self.inner.kill()
            else:
                self.inner.close()
            loop.close()
