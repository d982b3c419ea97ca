"""Execution traces.

The engine appends a :class:`TraceEvent` for every observable step: wakes,
moves, barriers, forks, process lifecycle, and the zero-cost ``Annotate``
markers algorithms emit to label their phases.  The trace is the raw
material for the metrics module (wake curves, energy, phase timelines) and
for the FIG1/FIG2 phase-duration benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple

__all__ = ["TraceEvent", "Trace", "NullTrace", "PhaseInterval"]

_EMPTY_DATA: dict[str, Any] = {}


class TraceEvent(NamedTuple):
    """One timestamped event.

    A ``NamedTuple`` rather than a dataclass: traces allocate one of these
    per recorded event, and tuple construction is several times cheaper
    than a frozen-dataclass ``__init__``.  ``data`` defaults to a shared
    empty mapping — treat it as read-only.
    """

    time: float
    kind: str           # 'wake' | 'move' | 'sweep' | 'look' | 'fork' |
                        # 'barrier' | 'absorb' | 'crash' | 'process_start' |
                        # 'process_end' | 'phase'
    process_id: int
    data: dict[str, Any] = _EMPTY_DATA


@dataclass(frozen=True)
class PhaseInterval:
    """A labelled phase reconstructed from consecutive markers."""

    label: str
    process_id: int
    start: float
    end: float
    data: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Trace:
    """Append-only event log with query helpers."""

    def __init__(self, enabled: bool = True, keep_looks: bool = False) -> None:
        self.enabled = enabled
        #: ``look`` events are by far the most numerous; they are dropped by
        #: default and only retained when a test explicitly asks for them.
        self.keep_looks = keep_looks
        self.events: list[TraceEvent] = []
        self._look_count = 0

    # -- recording (engine only) ------------------------------------------
    def append(
        self, time: float, kind: str, process_id: int, data: dict[str, Any]
    ) -> None:
        """Append one pre-built event unconditionally.

        Callers guard on :attr:`enabled` (and :attr:`keep_looks` for
        ``look`` events) *before* building ``data``, which is the whole
        point: a dropped event must not allocate anything.
        """
        self.events.append(TraceEvent(time, kind, process_id, data))

    # -- queries ---------------------------------------------------------
    @property
    def look_count(self) -> int:
        """Total snapshots taken (counted even when not retained)."""
        return self._look_count

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def filter(self, predicate: Callable[[TraceEvent], bool]) -> list[TraceEvent]:
        return [e for e in self.events if predicate(e)]

    def wake_events(self) -> list[TraceEvent]:
        return self.of_kind("wake")

    def total_move_length(self) -> float:
        # "sweep" is the lattice-run sibling of "move": both
        # carry a travelled "length" and together cover all motion.
        return sum(
            e.data.get("length", 0.0)
            for e in self.events
            if e.kind == "move" or e.kind == "sweep"
        )

    def phases(self, label_prefix: str = "") -> list[PhaseInterval]:
        """Phase intervals per process from consecutive ``phase`` markers.

        Each ``Annotate`` marker opens a phase for its process and closes
        the previous one; a process-end event closes the last open phase.
        Only labels starting with ``label_prefix`` are returned (empty
        prefix keeps everything).
        """
        open_phase: dict[int, tuple[str, float, Any]] = {}
        intervals: list[PhaseInterval] = []

        def close(pid: int, end: float) -> None:
            if pid in open_phase:
                label, start, data = open_phase.pop(pid)
                intervals.append(PhaseInterval(label, pid, start, end, data))

        last_time = 0.0
        for event in self.events:
            last_time = max(last_time, event.time)
            if event.kind == "phase":
                close(event.process_id, event.time)
                open_phase[event.process_id] = (
                    event.data.get("label", ""),
                    event.time,
                    event.data.get("data"),
                )
            elif event.kind == "process_end":
                close(event.process_id, event.time)
        for pid in list(open_phase):
            close(pid, last_time)
        intervals.sort(key=lambda iv: (iv.start, iv.process_id))
        if label_prefix:
            intervals = [iv for iv in intervals if iv.label.startswith(label_prefix)]
        return intervals

    def phase_durations(self) -> dict[str, float]:
        """Total duration per phase label, summed across processes."""
        totals: dict[str, float] = {}
        for interval in self.phases():
            totals[interval.label] = totals.get(interval.label, 0.0) + interval.duration
        return totals

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


class NullTrace(Trace):
    """Counters-only trace sink: look/event counts, zero retention.

    The default for sweep runs (``RunRequest.trace="auto"`` with
    ``collect="summary"``): summaries only need the snapshot counter, so
    storing hundreds of thousands of :class:`TraceEvent` objects is pure
    overhead.  The engine's guarded call sites never build event kwargs
    against a disabled trace, so this sink makes tracing free.
    """

    def __init__(self) -> None:
        super().__init__(enabled=False)

    def append(
        self, time: float, kind: str, process_id: int, data: dict[str, Any]
    ) -> None:  # pragma: no cover - engine guards on ``enabled`` first
        pass
