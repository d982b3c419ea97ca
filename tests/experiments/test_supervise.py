"""Supervised execution under planted faults: the chaos matrix.

The contract under test: for every fault kind in
:mod:`repro.experiments.faults` and every inner backend, a supervised
sweep converges to records **byte-identical** to a clean unsupervised
serial run — across cold cache, warm cache and mid-sweep kill + resume —
with the supervisor's counters accounting for exactly the planted
damage.  Quarantine is the one deliberate divergence, and it is settled
*data*, never an exception.

Counters are asserted at ``workers=1``: with one out-of-process worker
the fault schedule is a pure function of the plant spec, so
``timeouts``/``quarantined`` are exact; crash/hang cells assert
``retried`` only as a lower bound.  The charging rule on two workers
(a timeout kill does not charge the siblings it takes down) has its own
regression test.
"""

import itertools
import json

import pytest

from repro.core.runner import RunRequest
from repro.experiments import (
    FAULTS_ENV,
    FamilySweep,
    PoolExecutor,
    ResultCache,
    SupervisedExecutor,
    SupervisorPolicy,
    SweepSpec,
    WorkerDied,
    run_requests,
    run_sweep,
)

INNERS = ("serial", "pool", "async-local")

SPEC = SweepSpec(
    name="chaos",
    algorithms=("greedy",),
    families=(FamilySweep("uniform_disk", {"n": [8, 10], "rho": [8.0]}),),
    seeds=(0, 1),
)

#: Fast, deterministic supervision: tiny backoff, no jitter, and a
#: timeout that fires quickly but only for the planted 30s hangs.
POLICY = SupervisorPolicy(
    job_timeout=10.0, retries=2, backoff_base=0.01, jitter=0.0
)
HANG_POLICY = SupervisorPolicy(
    job_timeout=0.75, retries=2, backoff_base=0.01, jitter=0.0
)

#: (fault id, FREEZETAG_FAULTS spec, policy, exact counter subset).
FAULT_CASES = (
    ("flaky", "flaky@*:times=1", POLICY, {"retried": 4, "quarantined": 0}),
    # crash: ``retried`` is left to the lower-bound check in the test.
    ("crash", "crash@1", POLICY, {"quarantined": 0, "worker_deaths": 1}),
    ("hang", "hang@1:seconds=30", HANG_POLICY, {"quarantined": 0, "timeouts": 1}),
    (
        "refuse-sigterm",
        "refuse-sigterm@1:times=always;hang@1:seconds=30",
        HANG_POLICY,
        {"quarantined": 0, "timeouts": 1},
    ),
)

#: Unique raw spec per corrupt case: the plant's per-process ``times``
#: accounting is keyed by the raw env value, so reusing one string across
#: tests in a single pytest process would spend the budget once globally.
_corrupt_serial = itertools.count()


def corrupt_spec() -> str:
    return f"corrupt@*:times=1;slow@{9000 + next(_corrupt_serial)}:seconds=0"


@pytest.fixture(scope="module")
def reference_records():
    """The clean, unsupervised serial baseline every cell must match."""
    return run_requests(SPEC.expand(), executor="serial")


def supervised(inner: str, policy: SupervisorPolicy) -> SupervisedExecutor:
    return SupervisedExecutor(inner=inner, workers=1, policy=policy)


class TestChaosMatrix:
    """fault x inner x {cold, warm, kill + resume}."""

    @pytest.mark.parametrize("inner", INNERS)
    @pytest.mark.parametrize(
        "fault_id,spec,policy,expected",
        FAULT_CASES,
        ids=[case[0] for case in FAULT_CASES],
    )
    def test_supervised_sweep_matches_clean_reference(
        self, fault_id, spec, policy, expected, inner,
        reference_records, tmp_path, monkeypatch,
    ):
        monkeypatch.setenv(FAULTS_ENV, spec)

        # Cold: every fault fires, supervision heals, records match.
        cache = ResultCache(tmp_path / "cold")
        backend = supervised(inner, policy)
        cold = run_sweep(SPEC, cache=cache, executor=backend)
        assert json.dumps(cold.records) == json.dumps(reference_records)
        assert cold.quarantined == 0
        stats = backend.stats.as_dict()
        assert {k: stats[k] for k in expected} == expected
        assert stats["retried"] >= 1  # every fault cost at least one retry

        # Warm: everything cached; no worker runs, so no fault can fire.
        warm = run_sweep(SPEC, cache=cache, executor=supervised(inner, policy))
        assert warm.cached == len(reference_records) and warm.executed == 0
        assert json.dumps(warm.records) == json.dumps(reference_records)

        # Kill + resume: a sweep killed after 2 settled jobs resumes into
        # the same byte-identical records, faults firing on both sides.
        cache = ResultCache(tmp_path / "resume")
        requests = SPEC.expand()
        partial = run_requests(
            requests[:2], cache=cache, executor=supervised(inner, policy)
        )
        assert json.dumps(partial) == json.dumps(reference_records[:2])
        resumed = run_sweep(SPEC, cache=cache, executor=supervised(inner, policy))
        assert resumed.cached == 2 and resumed.executed == 2
        assert json.dumps(resumed.records) == json.dumps(reference_records)

    @pytest.mark.parametrize("inner", INNERS)
    def test_corrupt_cache_entry_heals_on_resume(
        self, inner, reference_records, tmp_path, monkeypatch
    ):
        """The parent-side fault: one torn cache entry per run.  The cold
        sweep's records are already settled when the plant tears the
        entry, so only the warm run notices — as one quarantined entry
        and one re-execution, never as output drift."""
        monkeypatch.setenv(FAULTS_ENV, corrupt_spec())
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(SPEC, cache=cache, executor=supervised(inner, POLICY))
        assert json.dumps(cold.records) == json.dumps(reference_records)
        monkeypatch.delenv(FAULTS_ENV)
        warm = run_sweep(SPEC, cache=cache, executor=supervised(inner, POLICY))
        assert warm.cached == len(reference_records) - 1
        assert warm.executed == 1
        assert cache.quarantined == 1
        assert json.dumps(warm.records) == json.dumps(reference_records)


class TestQuarantineAsData:
    def test_budget_exhaustion_settles_as_error_record(
        self, reference_records, tmp_path
    ):
        """A permanently-failing job quarantines; siblings are untouched,
        the error is manifest data, and nothing poisons the cache."""
        policy = SupervisorPolicy(retries=1, backoff_base=0.01, jitter=0.0)
        cache = ResultCache(tmp_path / "cache")
        backend = supervised("pool", policy)
        import os

        os.environ[FAULTS_ENV] = "flaky@2:times=always"
        try:
            result = run_sweep(SPEC, cache=cache, executor=backend)
        finally:
            del os.environ[FAULTS_ENV]
        assert result.quarantined == 1
        assert result.supervisor == backend.stats.as_dict()
        assert backend.stats.quarantined == 1
        assert backend.stats.retried == 1  # one re-attempt, then give up
        bad = result.records[2]
        assert bad["quarantined"] is True and bad["woke_all"] is False
        assert bad["error"]["kind"] == "TransientFault"
        assert bad["error"]["attempts"] == 2
        # Siblings settled verbatim.
        for index in (0, 1, 3):
            assert json.dumps(result.records[index]) == json.dumps(
                reference_records[index]
            )
        # The quarantine reached the manifest but never the cache.
        assert len(cache) == len(reference_records) - 1
        assert any(result.manifest.errors)
        # A later clean run retries the job from scratch and heals.
        healed = run_sweep(SPEC, cache=cache, executor=supervised("pool", policy))
        assert healed.quarantined == 0 and healed.executed == 1
        assert json.dumps(healed.records) == json.dumps(reference_records)

    def test_timeout_kill_does_not_charge_in_flight_siblings(
        self, reference_records, monkeypatch
    ):
        """The charging rule on two workers: job 0 hangs, jobs 1-3 run
        0.6 s each on the other worker, so job 3 is in flight when job 0
        times out at 1.5 s.  The recycle that kills job 0 also kills job
        3, which reruns uncharged; it is neither a quarantine nor a
        worker death."""
        monkeypatch.setenv(FAULTS_ENV, "hang@0:seconds=30;slow@1,2,3:seconds=0.6")
        policy = SupervisorPolicy(
            job_timeout=1.5, retries=0, backoff_base=0.01, jitter=0.0
        )
        backend = SupervisedExecutor(inner="pool", workers=2, policy=policy)
        records = run_requests(SPEC.expand(), executor=backend)
        assert [bool(r.get("quarantined")) for r in records] == [
            True, False, False, False,
        ]
        assert records[0]["error"]["kind"] == "JobTimeout"
        assert json.dumps(records[1:]) == json.dumps(reference_records[1:])
        assert backend.stats.quarantined == 1
        assert backend.stats.timeouts == 1
        assert backend.stats.worker_deaths == 0

    def test_unsupervised_runs_report_no_supervisor(self, tmp_path):
        result = run_sweep(
            SPEC, cache=ResultCache(tmp_path / "cache"), executor="serial"
        )
        assert result.supervisor is None and result.quarantined == 0


class TestWorkerDeathUnsupervised:
    """Satellite regression: a dead worker is a typed error, not a hang.

    ``PoolExecutor.submit`` used to deadlock in ``imap_unordered`` when a
    worker was SIGKILLed; the pool backend (under both of its names) must
    detect the death and raise :class:`WorkerDied` naming every
    unsettled job.
    """

    @pytest.mark.parametrize("executor", ("pool", "async-local"))
    def test_worker_death_raises_typed_error(self, executor, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "crash@1:times=always")
        with pytest.raises(WorkerDied) as excinfo:
            run_requests(SPEC.expand(), executor=executor, workers=2)
        assert 1 in excinfo.value.indexes

    def test_serial_never_fires_worker_faults(
        self, reference_records, monkeypatch
    ):
        """A planted crash must not take the in-process coordinator down:
        the serial path skips worker faults by design."""
        monkeypatch.setenv(FAULTS_ENV, "crash@*:times=always")
        records = run_requests(SPEC.expand(), executor="serial")
        assert json.dumps(records) == json.dumps(reference_records)


class TestSupervisedExecutorSurface:
    def test_serial_inner_promoted_out_of_process(self):
        backend = SupervisedExecutor(inner="serial")
        assert isinstance(backend.inner, PoolExecutor)
        assert backend.inner.workers == 1

    def test_process_inners_forced_out_of_process(self, monkeypatch):
        # One job on one worker must still run out of process, or a
        # planted crash would take this test process down with it.
        monkeypatch.setenv(FAULTS_ENV, "crash@0")
        backend = SupervisedExecutor(inner="pool", workers=1, policy=POLICY)
        [record] = run_requests(SPEC.expand()[:1], executor=backend)
        assert not record.get("quarantined")
        assert backend.stats.worker_deaths == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="retries"):
            SupervisorPolicy(retries=-1)
        with pytest.raises(ValueError, match="job_timeout"):
            SupervisorPolicy(job_timeout=0.0)

    def test_backoff_is_deterministic_and_bounded(self):
        policy = SupervisorPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5, jitter=0.25
        )
        first = [policy.backoff(3, a) for a in range(1, 6)]
        second = [policy.backoff(3, a) for a in range(1, 6)]
        assert first == second  # pure function of (seed, index, attempt)
        assert all(d <= 0.5 * 1.25 for d in first)  # cap + jitter ceiling
        assert policy.backoff(3, 1) != policy.backoff(4, 1)  # de-synchronized

    def test_registered_name_resolves(self):
        from repro.experiments import resolve_executor

        backend = resolve_executor("supervised", workers=2)
        assert isinstance(backend, SupervisedExecutor)
        assert backend.workers == 2

    def test_quarantine_free_supervised_run_matches_unsupervised(
        self, reference_records
    ):
        """No faults armed: supervision is observationally free."""
        records = run_requests(
            SPEC.expand(), executor=supervised("pool", POLICY)
        )
        assert json.dumps(records) == json.dumps(reference_records)


class TestQuarantineRecordShape:
    def test_record_carries_identifying_columns(self):
        from repro.experiments.supervise import quarantine_record

        request = RunRequest("greedy", "uniform_disk", {"n": 8, "rho": 8.0, "seed": 0})
        record = quarantine_record(request, 3, "TransientFault", "boom", attempts=2)
        assert record["quarantined"] is True
        assert record["woke_all"] is False
        assert record["algorithm"] == "greedy"
        assert record["error"] == {
            "kind": "TransientFault",
            "message": "boom",
            "attempts": 2,
        }
        assert "uniform_disk" in record["label"]
