"""Process-wide service telemetry: settle counters and rates.

One :class:`Telemetry` instance lives on the service and is written
exclusively from the event loop thread (the scheduler's settle path and
the sweep runners), so plain attribute updates are race-free — the
single-writer discipline the whole service is built on.  ``/metrics``
reads a :meth:`snapshot`.

Jobs are counted by *origin*, matching the scheduler's settle outcomes:

* ``executed`` — ran on the worker pool;
* ``cached``   — served from the shared content-addressed cache;
* ``deduped``  — piggybacked on an identical job already in flight
  (the concurrent-submission dedup win: computed zero extra times);
* ``failed``   — surfaced as a per-job error state.

Supervision counters ride alongside, read from the scheduler's
:class:`~repro.experiments.supervise.SupervisorStats`: ``jobs_retried``
counts charged attempts that were rescheduled, ``jobs_quarantined`` jobs
that exhausted their retry budget, ``pools_recycled`` worker-pool
replacements after a timeout, death or stall.  ``last_settle_age_s`` is
the service heartbeat ``/healthz`` reports — how long ago *any* job
reached a terminal state.

``events_per_s`` is measured over a sliding window of recent settles so
a long-idle server reports its current rate, not a lifetime average.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..experiments.supervise import SupervisorStats

__all__ = ["Telemetry"]

#: Sliding-window width (seconds) for the events/s rate.
RATE_WINDOW = 60.0


@dataclass
class Telemetry:
    """Settle counters plus derived rates for ``GET /metrics``."""

    started_wall: float = field(default_factory=time.time)
    started_mono: float = field(default_factory=time.monotonic)
    jobs_executed: int = 0
    jobs_cached: int = 0
    jobs_deduped: int = 0
    jobs_failed: int = 0
    sweeps_submitted: int = 0
    sweeps_completed: int = 0
    last_settle_mono: float | None = None
    supervision: SupervisorStats = field(default_factory=SupervisorStats)
    _settle_times: deque[float] = field(default_factory=deque, repr=False)

    @property
    def jobs_retried(self) -> int:
        return self.supervision.retried

    @property
    def jobs_quarantined(self) -> int:
        return self.supervision.quarantined

    @property
    def pools_recycled(self) -> int:
        return self.supervision.pools_recycled

    @property
    def jobs_settled(self) -> int:
        """Every job that reached a terminal state, successful or not."""
        return (
            self.jobs_executed
            + self.jobs_cached
            + self.jobs_deduped
            + self.jobs_failed
        )

    def job_settled(self, origin: str) -> None:
        """Count one settle by origin (``executed`` | ``cached`` |
        ``deduped`` | ``failed``)."""
        attribute = f"jobs_{origin}"
        setattr(self, attribute, getattr(self, attribute) + 1)
        now = time.monotonic()
        self.last_settle_mono = now
        self._settle_times.append(now)
        self._prune(now)

    def last_settle_age_s(self) -> float | None:
        """Seconds since the last settle; ``None`` before the first one.

        The stall watchdog and ``/healthz`` both read this: a server
        with in-flight jobs whose last settle is old is wedged, not busy.
        """
        if self.last_settle_mono is None:
            return None
        return time.monotonic() - self.last_settle_mono

    def _prune(self, now: float) -> None:
        cutoff = now - RATE_WINDOW
        times = self._settle_times
        while times and times[0] < cutoff:
            times.popleft()

    def uptime(self) -> float:
        return time.monotonic() - self.started_mono

    def events_per_s(self) -> float:
        """Settle rate over the recent window (whole uptime when younger)."""
        now = time.monotonic()
        self._prune(now)
        span = min(self.uptime(), RATE_WINDOW)
        if span <= 0.0:
            return 0.0
        return len(self._settle_times) / span

    def snapshot(self) -> dict[str, Any]:
        """The counters and rates section of ``GET /metrics``."""
        return {
            "started": self.started_wall,
            "uptime_s": self.uptime(),
            "jobs": {
                "settled": self.jobs_settled,
                "executed": self.jobs_executed,
                "cached": self.jobs_cached,
                "deduped": self.jobs_deduped,
                "failed": self.jobs_failed,
                "retried": self.jobs_retried,
                "quarantined": self.jobs_quarantined,
            },
            "pools_recycled": self.pools_recycled,
            "last_settle_age_s": self.last_settle_age_s(),
            "events_per_s": self.events_per_s(),
            "sweeps": {
                "submitted": self.sweeps_submitted,
                "completed": self.sweeps_completed,
            },
        }
