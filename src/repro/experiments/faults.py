"""Structured fault-injection registry: the ``FREEZETAG_FAULTS`` contract.

A small registry of **named, deterministically-activated fault plants**
shared by the chaos tests, the chaos-smoke CI job and the fuzzer — the
adversary the supervision layer (:mod:`repro.experiments.supervise`) is
tested against.

Spec grammar (the ``FREEZETAG_FAULTS`` environment variable)::

    FREEZETAG_FAULTS = plant [ ";" plant ]*
    plant            = kind [ "@" selector ] [ ":" param "=" value [ "," ... ] ]
    selector         = "*" | index [ "," index ]*          (default "*")

Examples::

    crash@2                      # SIGKILL-equivalent os._exit in job 2's worker
    hang@0:seconds=60            # job 0 sleeps 60s (a timeout must fire)
    flaky@*:times=2              # every job raises TransientFault on attempts 0..1
    slow@1,3:seconds=0.2         # jobs 1 and 3 run 0.2s late, then succeed
    refuse-sigterm@*             # workers ignore SIGTERM (kill must escalate)
    corrupt@*:times=1            # truncate the first cache entry written
    frontier-reach:margin=0.5    # shrink awave's frontier reach

Determinism: a plant fires as a pure function of ``(kind, selector,
job index, attempt number)`` — no clocks, no randomness, no cross-process
state.  ``times=k`` means "fire on attempts ``0..k-1``", so a transient
fault heals exactly when the supervisor's retry raises the attempt
number.  Defaults make every worker fault transient (``times=1``) and
every environmental fault permanent (``corrupt``/``slow``/
``frontier-reach`` fire on every match) — a supervised sweep therefore
converges to the exact same records as a clean run, which is what the
chaos matrix byte-diffs.

Unsupervised execution always runs at attempt 0, so a planted worker
fault without a supervisor fires every time — that is the *point*: the
failure modes exist either way, supervision is what survives them.  The
in-process ``serial`` path never fires worker faults (a planted crash
would take the coordinator down with it); supervised "serial" runs its
one worker out of process and is fully chaos-capable.

Never set ``FREEZETAG_FAULTS`` outside a test, a chaos CI job, or a
fuzzer self-check.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

__all__ = [
    "FAULTS_ENV",
    "FAULT_KINDS",
    "FaultPlant",
    "FaultSpecError",
    "TransientFault",
    "parse_faults",
    "active_plants",
    "fire_worker_faults",
    "corrupt_after_store",
    "frontier_reach_deficit",
]

#: The shared fault-plant contract: tests, chaos CI and the fuzzer all
#: plant faults by setting this one environment variable.
FAULTS_ENV = "FREEZETAG_FAULTS"

#: Every registered fault kind and where it fires.
FAULT_KINDS = (
    "crash",           # worker: os._exit before the job body runs
    "hang",            # worker: sleep `seconds` (default 3600) first
    "flaky",           # worker: raise TransientFault (retryable)
    "slow",            # worker: sleep `seconds` (default 0.2), then run
    "refuse-sigterm",  # worker: ignore SIGTERM (teardown must SIGKILL)
    "corrupt",         # parent: truncate the cache entry just written
    "frontier-reach",  # in-run: shrink FrontierIndex reach by `margin`
)

#: Worker-side kinds: transient by default (fire on attempt 0 only).
_WORKER_KINDS = frozenset({"crash", "hang", "flaky", "slow", "refuse-sigterm"})

_DEFAULT_SECONDS = {"hang": 3600.0, "slow": 0.2}


class FaultSpecError(ValueError):
    """A malformed ``FREEZETAG_FAULTS`` spec; carries the grammar hint."""

    def __init__(self, spec: str, reason: str) -> None:
        super().__init__(
            f"bad fault spec {spec!r}: {reason} "
            "(grammar: kind[@selector][:param=value,...][;...]; kinds: "
            + ", ".join(FAULT_KINDS)
            + ")"
        )


class TransientFault(RuntimeError):
    """The planted ``flaky`` failure: succeeds once retried past ``times``."""


@dataclass(frozen=True)
class FaultPlant:
    """One parsed fault plant.

    ``indexes`` is ``None`` for the ``*`` selector (every job).
    ``times`` is ``None`` for "fire on every matching attempt".
    """

    kind: str
    indexes: tuple[int, ...] | None = None
    times: int | None = 1
    seconds: float = 0.0
    margin: float = 0.0
    exit_code: int = 64

    def matches(self, index: int, attempt: int) -> bool:
        """Whether this plant fires for ``(job index, attempt)``."""
        if self.indexes is not None and index not in self.indexes:
            return False
        return self.times is None or attempt < self.times

    def spec(self) -> str:
        """The canonical one-plant spec string (round-trips via parse)."""
        selector = "*" if self.indexes is None else ",".join(
            str(i) for i in self.indexes
        )
        params = []
        if self.times != (1 if self.kind in _WORKER_KINDS else None):
            params.append(f"times={'always' if self.times is None else self.times}")
        if self.kind in ("hang", "slow") and self.seconds != _DEFAULT_SECONDS[self.kind]:
            params.append(f"seconds={self.seconds}")
        if self.kind == "frontier-reach":
            params.append(f"margin={self.margin}")
        text = f"{self.kind}@{selector}"
        return text + (":" + ",".join(params) if params else "")


def _parse_plant(raw: str) -> FaultPlant:
    head, _, tail = raw.partition(":")
    kind, _, selector = head.partition("@")
    kind = kind.strip()
    if kind not in FAULT_KINDS:
        raise FaultSpecError(raw, f"unknown kind {kind!r}")
    selector = selector.strip() or "*"
    indexes: tuple[int, ...] | None
    if selector == "*":
        indexes = None
    else:
        try:
            indexes = tuple(sorted({int(part) for part in selector.split(",")}))
        except ValueError:
            raise FaultSpecError(
                raw, f"selector {selector!r} must be '*' or comma-separated indexes"
            ) from None
        if any(i < 0 for i in indexes):
            raise FaultSpecError(raw, "job indexes must be non-negative")
    times: int | None = 1 if kind in _WORKER_KINDS else None
    seconds = _DEFAULT_SECONDS.get(kind, 0.0)
    margin = 0.0
    exit_code = 64
    for pair in filter(None, (p.strip() for p in tail.split(","))):
        name, eq, value = pair.partition("=")
        if not eq:
            raise FaultSpecError(raw, f"parameter {pair!r} must be name=value")
        name = name.strip()
        value = value.strip()
        try:
            if name == "times":
                times = None if value == "always" else int(value)
                if times is not None and times < 1:
                    raise FaultSpecError(
                        raw, "times must be a positive int or 'always'"
                    )
            elif name == "seconds":
                seconds = float(value)
                if seconds < 0:
                    raise FaultSpecError(raw, "seconds must be non-negative")
            elif name == "margin":
                margin = float(value)
                if margin <= 0:
                    raise FaultSpecError(raw, "margin must be positive")
            elif name == "exit":
                exit_code = int(value)
            else:
                raise FaultSpecError(raw, f"unknown parameter {name!r}")
        except FaultSpecError:
            raise
        except ValueError:
            raise FaultSpecError(raw, f"bad value for {name!r}: {value!r}") from None
    if kind == "frontier-reach" and margin <= 0:
        raise FaultSpecError(raw, "frontier-reach needs margin=<positive float>")
    return FaultPlant(
        kind=kind,
        indexes=indexes,
        times=times,
        seconds=seconds,
        margin=margin,
        exit_code=exit_code,
    )


def parse_faults(spec: str) -> tuple[FaultPlant, ...]:
    """Parse a full ``FREEZETAG_FAULTS`` spec into its plants.

    Raises :class:`FaultSpecError` (a ``ValueError``) with the grammar
    attached, so ``freezetag sweep --faults`` can reject typos up front
    instead of silently running a clean sweep.
    """
    return tuple(
        _parse_plant(raw.strip())
        for raw in spec.split(";")
        if raw.strip()
    )


# -- env-driven activation ---------------------------------------------------

# Parsed-spec memo keyed by the raw env value: workers re-read the env on
# every job (it can change between tests) but parse each value once.
_PARSE_MEMO: dict[str, tuple[FaultPlant, ...]] = {}


def active_plants() -> tuple[FaultPlant, ...]:
    """The plants currently armed via ``FREEZETAG_FAULTS``.

    A malformed spec in the environment is **inert** (no plants) rather
    than fatal: the planted-fault machinery must never be able to crash
    a production sweep that inherited a stale variable.  CLI entry
    points validate explicitly via :func:`parse_faults`.
    """
    raw = os.environ.get(FAULTS_ENV, "")
    if not raw:
        return ()
    plants = _PARSE_MEMO.get(raw)
    if plants is None:
        try:
            plants = parse_faults(raw)
        except FaultSpecError:
            plants = ()
        if len(_PARSE_MEMO) > 64:  # stray unbounded growth guard
            _PARSE_MEMO.clear()
        _PARSE_MEMO[raw] = plants
    return plants


def _matching(kinds: Iterable[str], index: int, attempt: int) -> list[FaultPlant]:
    wanted = frozenset(kinds)
    return [
        plant
        for plant in active_plants()
        if plant.kind in wanted and plant.matches(index, attempt)
    ]


def fire_worker_faults(index: int, attempt: int) -> None:
    """Fire every armed worker-side plant matching ``(index, attempt)``.

    Called in the worker process at the top of a job body.  Ordering is
    fixed: ``refuse-sigterm`` first (it must be armed before anything can
    try to terminate the worker), then ``slow``/``hang`` delays, then
    ``flaky``, then ``crash`` — ``crash`` last so a combined plant
    exercises the messier state.
    """
    plants = _matching(_WORKER_KINDS, index, attempt)
    if not plants:
        return
    by_kind = {plant.kind: plant for plant in plants}
    if "refuse-sigterm" in by_kind:
        try:
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    for kind in ("slow", "hang"):
        plant = by_kind.get(kind)
        if plant is not None and plant.seconds > 0:
            time.sleep(plant.seconds)
    if "flaky" in by_kind:
        raise TransientFault(
            f"planted flaky fault (job #{index}, attempt {attempt})"
        )
    if "crash" in by_kind:
        os._exit(by_kind["crash"].exit_code)


@dataclass
class CorruptStats:
    """In-process accounting for ``corrupt`` plants.

    ``seen`` counts every store made while a given spec was armed (the
    plant's selector addresses store *ordinals* — the cache never knows
    job indexes); ``fired`` counts actual truncations (the ``times``
    budget).  Keyed by raw spec value so tests flipping the env between
    cases never share counters.
    """

    fired: int = 0
    _seen: dict[str, int] = field(default_factory=dict)
    _fired: dict[str, int] = field(default_factory=dict)


_CORRUPT = CorruptStats()


def corrupt_after_store(path: "os.PathLike[str] | str") -> bool:
    """Truncate the cache entry at ``path`` if a ``corrupt`` plant matches.

    Called by :meth:`ResultCache.store` after the atomic replace — the
    simulated failure is a torn write that *looked* complete, exactly
    the artifact a SIGKILLed box leaves behind.  A plant's selector
    addresses store ordinals in this process (``corrupt@0`` = the first
    store) and ``times=k`` caps total truncations, so ``corrupt@*:
    times=1`` corrupts exactly one entry per run.  Returns whether it
    fired; warm reads discover the damage and quarantine it.
    """
    plants = [p for p in active_plants() if p.kind == "corrupt"]
    if not plants:
        return False
    raw = os.environ.get(FAULTS_ENV, "")
    ordinal = _CORRUPT._seen.get(raw, 0)
    _CORRUPT._seen[raw] = ordinal + 1
    fired = _CORRUPT._fired.get(raw, 0)
    if not any(
        (p.indexes is None or ordinal in p.indexes)
        and (p.times is None or fired < p.times)
        for p in plants
    ):
        return False
    _CORRUPT._fired[raw] = fired + 1
    _CORRUPT.fired += 1
    data = Path(path).read_bytes()
    Path(path).write_bytes(data[: max(1, len(data) // 2)])
    return True


def frontier_reach_deficit() -> float:
    """The armed ``frontier-reach`` margin
    (``FREEZETAG_FAULTS=frontier-reach:margin=0.5``), or 0.0 when
    unplanted."""
    return max(
        (
            plant.margin
            for plant in active_plants()
            if plant.kind == "frontier-reach"
        ),
        default=0.0,
    )
