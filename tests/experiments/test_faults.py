"""The ``FREEZETAG_FAULTS`` contract: grammar, determinism, activation.

The fault registry is the adversary the whole supervision layer is
tested against, so its own semantics get pinned first: parsing is
strict (CLI rejects typos), env activation is forgiving (a stale
variable must never crash a production sweep), and firing is a pure
function of ``(kind, selector, job index, attempt)``.
"""

import pytest

from repro.experiments.faults import (
    FAULT_KINDS,
    FAULTS_ENV,
    FaultPlant,
    FaultSpecError,
    TransientFault,
    active_plants,
    fire_worker_faults,
    frontier_reach_deficit,
    parse_faults,
)


class TestGrammar:
    def test_bare_kind_defaults(self):
        (plant,) = parse_faults("crash")
        assert plant.kind == "crash"
        assert plant.indexes is None  # '*' selector
        assert plant.times == 1  # worker faults are transient by default

    def test_environmental_kinds_default_permanent(self):
        (plant,) = parse_faults("corrupt")
        assert plant.times is None  # fires on every match

    def test_selector_and_params(self):
        (plant,) = parse_faults("hang@1:seconds=30,times=1")
        assert plant.indexes == (1,)
        assert plant.seconds == 30.0
        assert plant.times == 1

    def test_multi_index_selector_sorts_and_dedups(self):
        (plant,) = parse_faults("slow@3,1,3:seconds=0.2")
        assert plant.indexes == (1, 3)

    def test_times_always(self):
        (plant,) = parse_faults("flaky@*:times=always")
        assert plant.times is None

    def test_multiple_plants_split_on_semicolons(self):
        plants = parse_faults("refuse-sigterm@1:times=always; hang@1:seconds=30")
        assert [p.kind for p in plants] == ["refuse-sigterm", "hang"]

    def test_empty_segments_skipped(self):
        assert parse_faults("crash@0;;") == parse_faults("crash@0")

    @pytest.mark.parametrize(
        "spec",
        [
            "explode",  # unknown kind
            "crash@x",  # non-integer selector
            "crash@-1",  # negative index
            "hang@1:times=1:seconds=30",  # second colon is not grammar
            "flaky:times=0",  # times must be >= 1
            "hang:seconds=-1",  # negative delay
            "frontier-reach",  # margin is mandatory
            "frontier-reach:margin=0",  # and positive
            "crash:wat",  # parameter without '='
            "crash:color=red",  # unknown parameter
        ],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(FaultSpecError):
            parse_faults(spec)

    def test_error_carries_the_grammar_hint(self):
        with pytest.raises(FaultSpecError, match="kind\\[@selector\\]"):
            parse_faults("explode")

    def test_spec_round_trips(self):
        specs = (
            "crash@2",
            "hang@0:seconds=60.0",
            "flaky@*:times=2",
            "slow@1,3:seconds=0.5",
            "refuse-sigterm@*:times=always",
            "corrupt@*:times=1",
            "frontier-reach:margin=0.5",
        )
        for spec in specs:
            (plant,) = parse_faults(spec)
            assert parse_faults(plant.spec()) == (plant,)


class TestMatching:
    def test_fires_as_a_pure_function_of_index_and_attempt(self):
        plant = FaultPlant(kind="flaky", indexes=(2,), times=2)
        assert plant.matches(2, 0) and plant.matches(2, 1)
        assert not plant.matches(2, 2)  # healed past the times budget
        assert not plant.matches(3, 0)  # wrong job

    def test_star_selector_matches_every_index(self):
        plant = FaultPlant(kind="crash", indexes=None, times=None)
        assert plant.matches(0, 0) and plant.matches(999, 7)


class TestEnvActivation:
    def test_unset_env_means_no_plants(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert active_plants() == ()

    def test_armed_env_parses(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "flaky@1:times=2")
        (plant,) = active_plants()
        assert plant.kind == "flaky" and plant.indexes == (1,)

    def test_malformed_env_is_inert_not_fatal(self, monkeypatch):
        """A stale or typoed variable must never crash a sweep; explicit
        validation is the CLI's job (``freezetag sweep --faults``)."""
        monkeypatch.setenv(FAULTS_ENV, "explode@*")
        assert active_plants() == ()

    def test_flaky_fires_then_heals_on_retry(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "flaky@4:times=1")
        with pytest.raises(TransientFault):
            fire_worker_faults(4, 0)
        fire_worker_faults(4, 1)  # attempt past the budget: healed
        fire_worker_faults(5, 0)  # different job: never planted


class TestLegacyAlias:
    def test_registry_margin(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "frontier-reach:margin=0.5")
        assert frontier_reach_deficit() == 0.5


def test_registry_names_are_exhaustive():
    assert FAULT_KINDS == (
        "crash",
        "hang",
        "flaky",
        "slow",
        "refuse-sigterm",
        "corrupt",
        "frontier-reach",
    )
