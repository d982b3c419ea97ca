"""Shrinker: convergence on a planted violation, determinism, guards."""

import pytest

from repro.fuzz import FuzzConfig, check_config, shrink
from repro.experiments.faults import FAULTS_ENV


def failing_config():
    return FuzzConfig("awave", "uniform_disk", {"n": 8, "rho": 4.0, "seed": 3})


@pytest.fixture
def planted_fault(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV, "frontier-reach:margin=0.5")


class TestConvergence:
    def test_minimizes_the_planted_violation_to_a_tiny_seed(self, planted_fault):
        result = shrink(failing_config())
        kwargs = result.config.scenario_kwargs
        assert kwargs["n"] <= 12  # the ISSUE's acceptance ceiling
        assert kwargs["seed"] == 0
        assert result.accepted >= 1
        assert result.attempts <= 200

    def test_minimized_config_still_fails_the_same_invariant(self, planted_fault):
        original = failing_config()
        targets = {v.invariant for v in check_config(original).violations}
        result = shrink(original)
        assert any(v.invariant in targets for v in result.outcome.violations)

    def test_deterministic(self, planted_fault):
        a = shrink(failing_config())
        b = shrink(failing_config())
        assert a.config.config_id() == b.config.config_id()
        assert (a.attempts, a.accepted) == (b.attempts, b.accepted)

    def test_drops_irrelevant_knobs(self, planted_fault):
        noisy = FuzzConfig(
            "awave",
            "uniform_disk",
            {"n": 8, "rho": 4.0, "seed": 3},
            world_params={"slow_speed": 0.9, "slow_fraction": 0.0},
        )
        result = shrink(noisy)
        assert result.config.world_params == {}

    def test_result_dict_names_both_endpoints(self, planted_fault):
        original = failing_config()
        payload = shrink(original).as_dict()
        assert payload["original_id"] == original.config_id()
        assert payload["config_id"] != payload["original_id"]
        assert payload["violations"]


class TestGuards:
    def test_passing_config_is_rejected(self):
        with pytest.raises(ValueError, match="nothing to shrink"):
            shrink(failing_config())  # no fault planted: the config is clean

    def test_attempt_budget_is_respected(self, planted_fault):
        result = shrink(failing_config(), max_attempts=2)
        assert result.attempts <= 2
