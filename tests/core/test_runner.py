"""Runner entry points: defaults, budget enforcement, trace pass-through."""

import pytest

from repro.core.runner import AlgorithmRun, run_agrid, run_aseparator, run_awave
from repro.instances import uniform_disk
from repro.sim import Trace


@pytest.fixture(scope="module")
def small_disk():
    return uniform_disk(n=25, rho=6.0, seed=8)


class TestDefaults:
    def test_default_inputs_taken_from_instance(self, small_disk):
        run = run_aseparator(small_disk)
        ell, rho = small_disk.default_inputs()
        assert run.ell == ell
        assert run.rho == rho
        assert run.algorithm == "ASeparator"

    def test_explicit_inputs_override(self, small_disk):
        ell, rho = small_disk.default_inputs()
        run = run_aseparator(small_disk, ell=ell + 1, rho=rho + 5)
        assert run.ell == ell + 1
        assert run.rho == rho + 5
        assert run.woke_all

    def test_run_record_properties(self, small_disk):
        run = run_aseparator(small_disk)
        assert isinstance(run, AlgorithmRun)
        assert run.makespan == run.result.makespan
        assert run.max_energy == run.result.max_energy
        assert small_disk.name in run.summary()


class TestTracePassThrough:
    def test_external_trace_is_used(self, small_disk):
        trace = Trace()
        run = run_aseparator(small_disk, trace=trace)
        assert run.result.trace is trace
        assert len(trace) > 0


class TestBudgetEnforcement:
    def test_agrid_enforced_budget_completes(self, small_disk):
        run = run_agrid(small_disk, enforce_budget=True)
        assert run.woke_all

    @pytest.mark.slow
    def test_awave_enforced_budget_completes_single_cell(self, small_disk):
        run = run_awave(small_disk, ell=4, enforce_budget=True)
        assert run.woke_all

    @pytest.mark.slow
    def test_algorithms_agree_on_who_wakes(self, small_disk):
        """All three algorithms wake the same swarm (everyone)."""
        runs = [
            run_aseparator(small_disk),
            run_agrid(small_disk),
            run_awave(small_disk, ell=4),
        ]
        for run in runs:
            assert run.woke_all
            assert set(run.result.wake_times) == set(range(26))
