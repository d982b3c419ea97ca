"""Scenario registry: schemas, worlds, registration, deprecation shims."""

import pytest

from repro.instances import (
    ScenarioSpec,
    get_scenario,
    iter_scenarios,
    make_instance,
    register_scenario,
    scenario_names,
    unregister_scenario,
    uniform_disk,
)
from repro.params import ParamSpec
from repro.sim import WorldConfig


class TestRegistryContents:
    def test_every_family_is_a_scenario(self):
        from repro.instances import FAMILIES

        names = scenario_names()
        for family in FAMILIES:
            assert family in names
            spec = get_scenario(family)
            assert spec.world.is_default()
            assert spec.build is FAMILIES[family]

    def test_world_model_scenarios_registered(self):
        assert get_scenario("slow_swarm").world.slow_fraction == 0.25
        assert get_scenario("slow_annulus").world.min_speed() == 0.5
        assert get_scenario("fragile_swarm").world.crash_on_wake == 0.1
        assert get_scenario("turbo_swarm").world.speed == 2.0

    def test_derived_scenarios_name_their_generator_family(self):
        assert get_scenario("slow_swarm").family == "uniform_disk"
        assert get_scenario("slow_annulus").family == "annulus"
        assert get_scenario("uniform_disk").family == "uniform_disk"

    def test_declared_seed_metadata_matches_signatures(self):
        # The schema replaces inspect-sniffing: deterministic generators
        # must declare no seed, seeded ones must declare it.
        assert not get_scenario("spiral").accepts_seed
        assert not get_scenario("grid_lattice").accepts_seed
        for name in ("uniform_disk", "annulus", "beaded_path", "slow_swarm"):
            assert get_scenario(name).accepts_seed

    def test_schemas_match_generator_signatures(self):
        import inspect as stdlib_inspect

        for spec in iter_scenarios():
            accepted = set(stdlib_inspect.signature(spec.build).parameters)
            assert set(spec.param_names) == accepted, spec.name

    def test_describe_lines_are_single_lines(self):
        for spec in iter_scenarios():
            assert "\n" not in spec.describe()
            assert spec.name in spec.describe()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("atlantis")


class TestScenarioBuilding:
    def test_scenario_builds_same_instance_as_family(self):
        kwargs = {"n": 9, "rho": 4.0, "seed": 5}
        assert (
            get_scenario("uniform_disk").make(**kwargs).positions
            == make_instance("uniform_disk", **kwargs).positions
            == get_scenario("slow_swarm").make(**kwargs).positions
        )

    def test_schema_validation(self):
        spec = get_scenario("uniform_disk")
        with pytest.raises(ValueError, match="no parameter 'mass'"):
            spec.make(n=5, rho=3.0, mass=9)
        with pytest.raises(ValueError, match="expects int"):
            spec.make(n=5.5, rho=3.0)

    def test_world_config_overrides(self):
        spec = get_scenario("slow_swarm")
        assert spec.world_config() is spec.world
        replaced = spec.world_config({"slow_fraction": 0.75, "failure_seed": 2})
        assert replaced.slow_fraction == 0.75
        assert replaced.failure_seed == 2
        assert spec.world.slow_fraction == 0.25  # spec untouched
        with pytest.raises(ValueError, match="unknown world parameter"):
            spec.world_config({"gravity": 9.8})


class TestRegistration:
    def test_register_and_unregister(self):
        try:
            @register_scenario(
                name="temp_scn", label="Temp", family="uniform_disk",
                params=(ParamSpec("n", int), ParamSpec("rho", float),
                        ParamSpec("seed", int, default=0)),
                world=WorldConfig(speed=3.0),
            )
            def build(n, rho, seed=0):
                return uniform_disk(n=n, rho=rho, seed=seed)

            spec = get_scenario("temp_scn")
            assert spec.world.speed == 3.0
            assert spec.make(n=4, rho=2.0).n == 4

            with pytest.raises(ValueError, match="already registered"):
                register_scenario(name="temp_scn", label="Dup")(build)
        finally:
            unregister_scenario("temp_scn")
        assert "temp_scn" not in scenario_names()

    def test_duplicate_param_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate parameter"):
            ScenarioSpec(
                name="x", label="X", build=uniform_disk,
                params=(ParamSpec("n", int), ParamSpec("n", int)),
            )

    def test_family_defaults_to_name(self):
        spec = ScenarioSpec(name="solo", label="Solo", build=uniform_disk)
        assert spec.family == "solo"


class TestDeprecatedShim:
    def test_no_inspect_left_in_families_module(self):
        # The satellite contract: schema metadata replaced signature
        # sniffing; the module must not even import inspect.
        import repro.instances.families as families

        assert not hasattr(families, "inspect")
        assert "import inspect" not in open(families.__file__).read()
