"""The invariant layer: clean runs, planted faults, budget aborts."""

import math

import pytest

from repro.fuzz import FuzzConfig, check_config, json_safe, outcome_from_dict
from repro.experiments.faults import FAULTS_ENV


def awave_disk(n=8, rho=4.0, seed=3, **overrides):
    return FuzzConfig(
        "awave", "uniform_disk", {"n": n, "rho": rho, "seed": seed}, **overrides
    )


class TestCleanRuns:
    def test_clean_config_passes_every_invariant(self):
        outcome = check_config(awave_disk(n=6, rho=2.0))
        assert outcome.ok
        assert outcome.stats["outcome"] == "ok"
        assert outcome.stats["woke_all"] is True
        # The oracles actually ran: awave drags legacy_awave along, and
        # n <= 9 on the default world engages the exact solver.
        assert outcome.stats["differential"] is True
        assert outcome.stats["exact_oracle"] is True

    def test_signature_and_round_trip(self):
        outcome = check_config(awave_disk(n=6, rho=2.0))
        again = outcome_from_dict(outcome.as_dict())
        assert again.ok == outcome.ok
        assert again.signature == outcome.signature
        assert again.config == outcome.config

    def test_centralized_run_skips_differential(self):
        outcome = check_config(
            FuzzConfig("greedy", "uniform_disk", {"n": 4, "rho": 2.0, "seed": 1})
        )
        assert outcome.ok
        assert "differential" not in outcome.stats


class TestPlantedFault:
    """A ``frontier-reach`` fault plant shrinks awave's frontier reach —
    an awave-only bug the differential + wake invariants must catch."""

    def test_fault_trips_wake_and_differential(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "frontier-reach:margin=0.5")
        outcome = check_config(awave_disk())
        names = {v.invariant for v in outcome.violations}
        assert "wake-completeness" in names
        assert "differential-legacy" in names

    def test_violations_carry_triage_details(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "frontier-reach:margin=0.5")
        outcome = check_config(awave_disk())
        diff = next(
            v for v in outcome.violations if v.invariant == "differential-legacy"
        )
        assert "wake_map" in diff.details
        assert diff.details["wake_map"]["missing"]

    def test_hostile_mode_waives_wake_completeness_only(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "frontier-reach:margin=0.5")
        outcome = check_config(awave_disk(mode="hostile"))
        names = {v.invariant for v in outcome.violations}
        assert "wake-completeness" not in names
        assert "differential-legacy" in names

    def test_reference_algorithm_unaffected(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "frontier-reach:margin=0.5")
        outcome = check_config(
            FuzzConfig(
                "legacy_awave", "uniform_disk", {"n": 8, "rho": 4.0, "seed": 3}
            )
        )
        assert outcome.ok


class TestBudgetAborts:
    def test_finite_world_budget_justifies_the_abort(self):
        outcome = check_config(
            FuzzConfig(
                "greedy",
                "uniform_disk",
                {"n": 4, "rho": 4.0, "seed": 1},
                world_params={"budget": 0.25},
            )
        )
        assert outcome.ok  # aborting is the *correct* behavior here
        assert outcome.stats["outcome"] == "budget"
        assert outcome.stats["exception"] == "EnergyBudgetExceeded"

    def test_awave_abort_must_reproduce_in_the_reference(self):
        outcome = check_config(
            awave_disk(world_params={"budget": 0.25})
        )
        assert outcome.ok
        assert outcome.stats["outcome"] == "budget"
        assert outcome.stats["differential"] is True


class TestConstructionPromises:
    def test_grid_of_disks_promises_hold(self):
        outcome = check_config(
            FuzzConfig(
                "aseparator",
                "grid_of_disks",
                {"ell": 2.0, "rho": 6.0, "n": 12, "seed": 7},
            )
        )
        assert not any(
            v.invariant == "construction-promise" for v in outcome.violations
        )


class TestJsonSafe:
    def test_non_finite_floats_become_none(self):
        payload = {
            "a": math.inf,
            "b": [1.0, -math.inf, {"c": math.nan}],
            "d": "inf",
        }
        assert json_safe(payload) == {
            "a": None,
            "b": [1.0, None, {"c": None}],
            "d": "inf",
        }

    def test_outcome_dicts_are_json_clean(self):
        import json

        outcome = check_config(awave_disk(n=3, rho=1.0))
        text = json.dumps(outcome.as_dict(), allow_nan=False)
        assert "fuzz-outcome" in text


@pytest.mark.parametrize("raw", ["", "not-a-float", "-3"])
def test_fault_env_garbage_is_inert(monkeypatch, raw):
    monkeypatch.setenv(FAULTS_ENV, f"frontier-reach:margin={raw}")
    assert check_config(awave_disk(n=4, rho=2.0)).ok
