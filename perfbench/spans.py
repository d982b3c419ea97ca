"""In-memory spans recorded from outside the program, around calls into
each module's public functions.

Nothing under ``src/`` knows about this file: :func:`install` replaces a
handful of public functions and methods with thin wrappers that open a
span and then call the original.  A span's *self time* is its duration
minus the part its child spans cover, so nested calls (the ``ell_star``
computed inside ``AlgorithmSpec.build``) are charged to the innermost
layer.

Spans live in per-thread accumulators (no lock, so a worker forked while
another thread is mid-span cannot inherit a held lock).  Pool workers are
forked from the traced process and inherit the wrappers; after every job
a worker appends that job's per-layer totals as one JSON line to
``<spans_dir>/<pid>.jsonl``, which :meth:`Tracer.totals` folds back in.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Iterator


class _Lane:
    """One thread's span stack and totals."""

    def __init__(self, main: bool) -> None:
        self.main = main
        self.stack: list[float] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def snapshot(self) -> tuple[dict[str, float], dict[str, int]]:
        return dict(self.self_s), dict(self.counts)


class Tracer:
    """Span recorder: per-layer self time (s) and per-layer counts."""

    def __init__(self, spans_dir: Path) -> None:
        self.spans_dir = Path(spans_dir)
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self._local = threading.local()
        self._lanes: list[_Lane] = []

    def _lane(self) -> _Lane:
        lane = getattr(self._local, "lane", None)
        if lane is None:
            lane = _Lane(threading.current_thread() is threading.main_thread())
            self._local.lane = lane
            self._lanes.append(lane)  # list.append is atomic under the GIL
        return lane

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        lane = self._lane()
        lane.stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            covered = lane.stack.pop()
            if lane.stack:
                lane.stack[-1] += duration
            lane.self_s[name] += duration - covered

    def count(self, name: str, amount: int = 1) -> None:
        self._lane().counts[name] += amount

    def in_worker(self) -> bool:
        return os.getpid() != self.pid

    def ship(self, before: tuple[dict[str, float], dict[str, int]]) -> None:
        """Append this worker's totals since ``before`` to its spans file."""
        lane = self._lane()
        self_s, counts = lane.snapshot()
        delta = {
            "self_s": {k: v - before[0].get(k, 0.0) for k, v in self_s.items()},
            "counts": {k: v - before[1].get(k, 0) for k, v in counts.items()},
        }
        with open(self.spans_dir / f"{os.getpid()}.jsonl", "a") as handle:
            handle.write(json.dumps(delta) + "\n")

    def totals(self) -> tuple[dict[str, float], dict[str, int], float]:
        """``(self_s, counts, main_self_s)`` over every thread of this
        process plus every shipped worker job; ``main_self_s`` is the sum
        of self times on the driving (main) thread alone."""
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        main_self_s = 0.0
        for lane in self._lanes:
            for name, value in lane.self_s.items():
                self_s[name] += value
                if lane.main:
                    main_self_s += value
            for name, value in lane.counts.items():
                counts[name] += value
        for path in sorted(self.spans_dir.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                delta = json.loads(line)
                for name, value in delta["self_s"].items():
                    self_s[name] += value
                for name, value in delta["counts"].items():
                    counts[name] += value
        return dict(self_s), dict(counts), main_self_s


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a no-op context."""

    _null = nullcontext()

    def span(self, name: str) -> Any:
        return self._null


def _wrap(
    tracer: Tracer,
    name: str,
    func: Callable,
    counts: Callable[[Any], list[tuple[str, int]]] | None = None,
) -> Callable:
    """``func`` inside span ``name``; ``counts(result)`` names the
    counters to bump once it returns."""

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            result = func(*args, **kwargs)
        for counter, amount in counts(result) if counts is not None else ():
            tracer.count(counter, amount)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points with spans.

    Must run after the algorithm catalog is loaded (its specs' ``build``
    factories are wrapped in place) and before any pool is forked.
    """
    from repro.core import registry
    from repro.core.runner import RunRequest
    from repro.experiments import cache, harness
    from repro.experiments.cache import ResultCache
    from repro.experiments.manifest import SweepManifest
    from repro.instances import Instance
    from repro.sim import Engine

    # instances: request -> generated instance
    RunRequest.instance = _wrap(tracer, "instances.make", RunRequest.instance)

    # geometry: ell* (a cached_property, wrapped as one) and xi_ell
    ell_star = Instance.__dict__["ell_star"].func
    prop = functools.cached_property(_wrap(tracer, "geometry.ell_star", ell_star))
    prop.__set_name__(Instance, "ell_star")
    Instance.ell_star = prop
    Instance.xi = _wrap(tracer, "geometry.xi", Instance.xi)

    # core: program build (AWave's FrontierIndex included).  ``build`` is a
    # field of the frozen spec dataclass, so it is replaced per spec.
    for spec in registry.iter_algorithms():
        object.__setattr__(spec, "build", _wrap(tracer, "core.build", spec.build))

    # sim: world construction and the engine's spawn + run
    Instance.world = _wrap(tracer, "sim.world", Instance.world)
    Engine.spawn = _wrap(tracer, "sim.run", Engine.spawn)
    Engine.run = _wrap(
        tracer, "sim.run", Engine.run,
        lambda result: [
            ("sim.events", result.events_processed), ("sim.snapshots", result.snapshots)
        ],
    )

    # metrics: the summary row (rho*, ell* already memoized on the instance)
    harness.summarize = _wrap(tracer, "metrics.summarize", harness.summarize)

    # cache: canonical JSON, store (with bytes written) and load (hit/miss)
    harness.canonical_json = _wrap(tracer, "cache.serialize", harness.canonical_json)
    cache.canonical_json = _wrap(tracer, "cache.serialize", cache.canonical_json)
    ResultCache.store = _wrap(
        tracer, "cache.store", ResultCache.store,
        lambda path: [("cache.bytes", path.stat().st_size)],
    )
    ResultCache.load = _wrap(
        tracer, "cache.load", ResultCache.load,
        lambda record: [("cache.misses" if record is None else "cache.hits", 1)],
    )

    # manifest: every flush to disk
    SweepManifest.flush = _wrap(
        tracer, "manifest.flush", SweepManifest.flush, lambda _: [("manifest.flushes", 1)]
    )

    # Worker-side jobs ship their span totals back after each record.
    execute_request = harness.execute_request

    @functools.wraps(execute_request)
    def execute_wrapper(request: Any) -> Any:
        if not tracer.in_worker():
            return execute_request(request)
        before = tracer._lane().snapshot()
        record = execute_request(request)
        tracer.ship(before)
        return record

    harness.execute_request = execute_wrapper

