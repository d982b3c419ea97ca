"""Executor backends: registry, byte-identical records, failure wrapping.

The redesign's contract, stated as tests: sweep records are
byte-identical across every registered backend x {cold cache, warm
cache, mid-sweep kill + resume}, and a job that raises surfaces as
:class:`SweepJobError` naming the offending request — never a bare pool
traceback.
"""

import json

import pytest

from repro.core.runner import RunRequest
from repro.experiments import (
    Executor,
    FamilySweep,
    PoolExecutor,
    ResultCache,
    SerialExecutor,
    SweepJobError,
    SweepSpec,
    executor_names,
    get_executor,
    resolve_executor,
    run_requests,
    run_sweep,
)

EXECUTORS = ("serial", "pool", "async-local")

SPEC = SweepSpec(
    name="executors",
    algorithms=("agrid", "greedy"),
    families=(
        FamilySweep("uniform_disk", {"n": [12], "rho": [4.0]}),
        FamilySweep("beaded_path", {"n": [6], "spacing": [1.0]}),
    ),
    seeds=(0, 1),
)


@pytest.fixture(scope="module")
def reference_records():
    """The serial, cache-less baseline every backend must reproduce."""
    return run_requests(SPEC.expand(), executor="serial")


def poisoned_request():
    """A valid request that fails at execution time (budget too small)."""
    return RunRequest(
        "greedy",
        scenario="slow_swarm",
        family_kwargs={"n": 8, "rho": 4.0, "seed": 0},
        world_params={"budget": 0.1, "source_budget": 0.1},
    )


class TestRegistry:
    def test_builtins_registered(self):
        assert executor_names() == ("async-local", "pool", "serial", "supervised")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor 'threads'"):
            get_executor("threads")
        with pytest.raises(ValueError, match="unknown executor"):
            run_requests(SPEC.expand()[:1], executor="threads")

    def test_resolve_none_keeps_workers_semantics(self):
        # The workers= compat shim: >1 selects pool, else serial.
        assert resolve_executor(None).name == "serial"
        assert resolve_executor(None, workers=1).name == "serial"
        pool = resolve_executor(None, workers=4)
        assert pool.name == "pool" and pool.workers == 4

    def test_resolve_name_and_instance(self):
        assert resolve_executor("async-local", workers=3).workers == 3
        instance = SerialExecutor()
        assert resolve_executor(instance) is instance
        with pytest.raises(ValueError, match="carries its own worker count"):
            resolve_executor(PoolExecutor(2), workers=4)

    def test_builtins_satisfy_protocol(self):
        for backend in (
            SerialExecutor(), PoolExecutor(2), get_executor("async-local", 2)
        ):
            assert isinstance(backend, Executor)


class TestByteIdenticalRecords:
    """The matrix: executors x {cold, warm, kill + resume}."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_cold_and_warm_cache(self, executor, reference_records, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(SPEC, workers=3, cache=cache, executor=executor)
        assert cold.executed == len(reference_records) and cold.cached == 0
        warm = run_sweep(SPEC, workers=3, cache=cache, executor=executor)
        assert warm.cached == len(reference_records) and warm.executed == 0
        assert json.dumps(cold.records) == json.dumps(reference_records)
        assert json.dumps(warm.records) == json.dumps(reference_records)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_kill_and_resume(self, executor, reference_records, tmp_path):
        # Simulate a sweep killed after an arbitrary prefix: only the
        # first k jobs settled into the cache before the kill.  The
        # resumed run must execute exactly the remainder and return
        # records byte-identical to the uninterrupted reference.
        requests = SPEC.expand()
        for k in (1, len(requests) // 2, len(requests) - 1):
            cache = ResultCache(tmp_path / f"cache-{executor}-{k}")
            partial = run_requests(requests[:k], cache=cache, executor=executor)
            assert json.dumps(partial) == json.dumps(reference_records[:k])
            resumed = run_sweep(SPEC, workers=3, cache=cache, executor=executor)
            assert resumed.cached == k
            assert resumed.executed == len(requests) - k
            assert json.dumps(resumed.records) == json.dumps(reference_records)

    def test_cross_executor_resume(self, reference_records, tmp_path):
        # A sweep started under one backend resumes under another: the
        # cache is backend-agnostic (the multi-host stepping stone).
        requests = SPEC.expand()
        cache = ResultCache(tmp_path / "cache")
        run_requests(requests[:3], cache=cache, executor="pool", workers=2)
        resumed = run_sweep(SPEC, cache=cache, executor="async-local", workers=2)
        assert resumed.cached == 3
        assert json.dumps(resumed.records) == json.dumps(reference_records)


class TestFailureWrapping:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_poisoned_request_names_job(self, executor):
        good = RunRequest("greedy", "beaded_path", {"n": 5, "spacing": 1.0})
        with pytest.raises(SweepJobError) as excinfo:
            run_requests(
                [good, poisoned_request(), good],
                executor=executor,
                workers=2,
            )
        err = excinfo.value
        assert err.index == 1
        assert err.kind == "EnergyBudgetExceeded"
        assert "slow_swarm" in err.label
        assert "sweep job #1" in str(err)
        assert "budget=0.1" in err.label  # the offending request's label

    def test_serial_failure_chains_original_traceback(self):
        from repro.sim import EnergyBudgetExceeded

        with pytest.raises(SweepJobError) as excinfo:
            run_requests([poisoned_request()], executor="serial")
        assert isinstance(excinfo.value.__cause__, EnergyBudgetExceeded)

    def test_settled_records_survive_a_failure(self, tmp_path):
        # Jobs settled before the poison are checkpointed: a re-run with
        # the poison removed is incremental, not from scratch.
        good = [
            RunRequest("greedy", "beaded_path", {"n": n, "spacing": 1.0})
            for n in (5, 6)
        ]
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(SweepJobError):
            run_requests([*good, poisoned_request()], cache=cache, executor="serial")
        records = run_requests(good, cache=cache, executor="serial")
        assert cache.hits == len(good)
        assert all(r["woke_all"] for r in records)


class TestWorkerSignalHygiene:
    @pytest.mark.parametrize("executor", ("pool", "async-local"))
    def test_process_backends_survive_a_graceful_sigterm_parent(
        self, executor, reference_records
    ):
        # The CLI installs a SIGTERM -> SystemExit handler so a killed
        # sweep flushes its manifest.  Forked pool workers inherit it,
        # and without the worker-side reset the pool's own teardown
        # SIGTERM raises SystemExit mid-unwind inside the worker — a
        # parent/worker join deadlock.  Regression: run a pooled sweep
        # with the parent handler installed; it must terminate.
        import signal
        import sys

        previous = signal.signal(
            signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum)
        )
        try:
            records = run_requests(SPEC.expand(), executor=executor, workers=2)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert json.dumps(records) == json.dumps(reference_records)


class TestWorkersCompatShim:
    def test_workers_map_to_pool_backend(self, reference_records):
        # run_requests(workers=N) keeps working and stays byte-identical
        # with the explicit pool backend (the pinned historical path).
        via_shim = run_requests(SPEC.expand(), workers=3)
        via_name = run_requests(SPEC.expand(), executor="pool", workers=3)
        assert json.dumps(via_shim) == json.dumps(via_name)
        assert json.dumps(via_shim) == json.dumps(reference_records)

    def test_run_sweep_workers_compat(self, reference_records, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        result = run_sweep(SPEC, workers=2, cache=cache)
        assert json.dumps(result.records) == json.dumps(reference_records)
        assert result.executed == len(reference_records)

    def test_single_job_runs_in_process(self):
        # The historical fast path: one pending job never spawns a pool.
        [record] = run_requests(
            [RunRequest("greedy", "beaded_path", {"n": 5, "spacing": 1.0})],
            workers=8,
        )
        assert record["woke_all"]
