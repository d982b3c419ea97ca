"""Algorithm registry: specs, schemas, compat shim, adapter round-trips."""

import json

import pytest

from repro.core.registry import (
    AlgorithmSpec,
    ParamSpec,
    RunSetup,
    algorithm_names,
    get_algorithm,
    iter_algorithms,
    register_algorithm,
    unregister_algorithm,
)
from repro.core.runner import RunRequest, run_algorithm
from repro.core.wakeup import schedule_program
from repro.experiments.cache import request_key
from repro.instances import uniform_disk


class TestRegistryContents:
    def test_builtins_registered(self):
        names = algorithm_names()
        for name in ("aseparator", "agrid", "awave",
                     "greedy", "quadtree", "chain", "exact", "online_greedy"):
            assert name in names

    def test_kind_filters_partition(self):
        distributed = set(algorithm_names(kind="distributed"))
        centralized = set(algorithm_names(kind="centralized"))
        assert distributed & centralized == set()
        assert distributed | centralized == set(algorithm_names())
        assert {"aseparator", "agrid", "awave"} <= distributed

    def test_capability_flags(self):
        assert get_algorithm("aseparator").needs_rho
        assert not get_algorithm("aseparator").supports_budget
        assert get_algorithm("agrid").supports_budget
        assert get_algorithm("awave").supports_budget
        assert get_algorithm("exact").max_n == 9
        for spec in iter_algorithms(kind="centralized"):
            assert not spec.needs_rho and not spec.supports_budget

    def test_energy_budget_functions(self):
        assert get_algorithm("agrid").energy_budget(3) > 0
        assert get_algorithm("awave").energy_budget(3) > 0
        assert get_algorithm("greedy").energy_budget is None

    def test_describe_lines_are_single_lines(self):
        for spec in iter_algorithms():
            assert "\n" not in spec.describe()
            assert spec.name in spec.describe()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            get_algorithm("magic")


class TestRegistration:
    def test_duplicate_name_rejected(self):
        try:
            @register_algorithm(name="temp_algo", label="Temp", kind="distributed")
            def build_a(instance, params):  # pragma: no cover - never built
                raise AssertionError

            with pytest.raises(ValueError, match="already registered"):
                @register_algorithm(name="temp_algo", label="Temp2", kind="distributed")
                def build_b(instance, params):  # pragma: no cover - never built
                    raise AssertionError
        finally:
            unregister_algorithm("temp_algo")
        assert "temp_algo" not in algorithm_names()

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm kind"):
            AlgorithmSpec(name="x", label="X", kind="quantum", build=lambda i, p: None)

    def test_duplicate_param_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate parameter"):
            AlgorithmSpec(
                name="x", label="X", kind="distributed",
                build=lambda i, p: None,
                params=(ParamSpec("ell", int), ParamSpec("ell", int)),
            )

    def test_registered_algorithm_is_sweepable(self):
        # The point of the registry: a new registration needs no harness,
        # cache or CLI change to become runnable.
        @register_algorithm(
            name="temp_teleport", label="Teleport", kind="centralized",
            params=(ParamSpec("ell", int),),
        )
        def build(instance, params):
            from repro.centralized import greedy_schedule

            ell, rho = instance.default_inputs()
            return RunSetup(
                program=schedule_program(
                    greedy_schedule(instance.source, list(instance.positions))
                ),
                label="Teleport", ell=params.get("ell", ell), rho=float(rho),
            )

        try:
            request = RunRequest(
                "temp_teleport", "uniform_disk", {"n": 8, "rho": 3.0, "seed": 0}
            )
            run = request.execute()
            assert run.algorithm == "Teleport"
            assert run.woke_all
            assert request_key(request)  # hashable for the cache
        finally:
            unregister_algorithm("temp_teleport")


class TestParamSchema:
    def test_unknown_param_rejected(self):
        spec = get_algorithm("agrid")
        with pytest.raises(ValueError, match="no parameter 'warp'"):
            spec.validate_params({"warp": 9})

    def test_type_mismatches_rejected(self):
        spec = get_algorithm("aseparator")
        with pytest.raises(ValueError, match="expects int"):
            spec.validate_params({"ell": 2.5})
        with pytest.raises(ValueError, match="expects int"):
            spec.validate_params({"ell": True})  # bools are not ints here
        with pytest.raises(ValueError, match="expects float"):
            spec.validate_params({"rho": "big"})
        with pytest.raises(ValueError, match="expects bool"):
            get_algorithm("agrid").validate_params({"enforce_budget": 1})

    def test_choices_enforced(self):
        with pytest.raises(ValueError, match="must be one of"):
            get_algorithm("aseparator").validate_params({"solver": "warp"})

    def test_none_means_unset(self):
        resolved = get_algorithm("aseparator").validate_params(
            {"ell": None, "rho": 4.0}
        )
        assert resolved == {"rho": 4.0}

    def test_int_accepted_where_float_expected(self):
        resolved = get_algorithm("aseparator").validate_params({"rho": 4})
        assert resolved == {"rho": 4}

    def test_max_n_enforced_at_run_time(self):
        with pytest.raises(ValueError, match="limited to n <= 9"):
            run_algorithm("exact", uniform_disk(n=12, rho=4.0, seed=0))


class TestCompatShim:
    """Pre-redesign requests keep their exact dict shape and cache keys."""

    # request_key values recorded on the pre-registry tree (PR 1): the
    # shim's whole job is that these never move.
    PINNED = [
        (
            RunRequest("aseparator", "uniform_disk", {"n": 12, "rho": 4.0, "seed": 0}),
            "4bf2eaaf692a7df7cc182f660542d1b0",
        ),
        (
            RunRequest("aseparator", "uniform_disk", {"n": 12, "rho": 4.0, "seed": 0},
                       params={"ell": 2, "rho": 6.0, "solver": "greedy"}),
            "44ae63e65c9975aa5c1cc1ca7ab5eb0a",
        ),
        (
            RunRequest("agrid", "beaded_path", {"n": 6, "spacing": 1.0},
                       params={"ell": 3, "enforce_budget": True}),
            "84badbdbc7c2ba4d17e31aa24d6abcf3",
        ),
        (
            # Pre-registry code accepted (and ignored) enforce_budget on
            # aseparator, and the flag was part of the cache key — a
            # sweep crossing it over all three algorithms must keep
            # expanding to the same keys.
            RunRequest("aseparator", "uniform_disk", {"n": 12, "rho": 4.0, "seed": 0},
                       params={"enforce_budget": True}),
            "90c726cd5ba5a0f4f35ad82fdd481e74",
        ),
        (
            RunRequest("awave", "beaded_path", {"n": 6, "spacing": 1.0},
                       collect="phases"),
            "e8e03bf04994f96d8d2508220b8e7368",
        ),
    ]

    def test_pinned_pre_redesign_cache_keys(self):
        for request, expected in self.PINNED:
            assert request_key(request) == expected, request

    def test_as_dict_keeps_legacy_slots(self):
        request = RunRequest(
            "aseparator", "uniform_disk", {"n": 12, "rho": 4.0, "seed": 0}
        )
        assert request.as_dict() == {
            "algorithm": "aseparator",
            "family": "uniform_disk",
            "family_kwargs": {"n": 12, "rho": 4.0, "seed": 0},
            "ell": None,
            "rho": None,
            "enforce_budget": False,
            "solver": None,
            "collect": "summary",
        }

    def test_centralized_requests_share_the_dict_shape(self):
        request = RunRequest("greedy", "uniform_disk", {"n": 8, "rho": 3.0})
        payload = request.as_dict()
        assert payload["algorithm"] == "greedy"
        assert "params" not in payload  # ell rides in its legacy slot
        round_trip = json.loads(json.dumps(payload))
        assert round_trip == payload

    def test_legacy_execution_unchanged(self):
        run = RunRequest(
            "aseparator", "uniform_disk", {"n": 12, "rho": 4.0, "seed": 3},
            params={"solver": "greedy"},
        ).execute()
        assert run.algorithm == "ASeparator[greedy]"
        assert run.woke_all


class TestScheduleAdapter:
    def test_adapter_reproduces_schedule_makespan(self):
        # The engine-executed makespan of a clairvoyant schedule equals
        # the schedule's own evaluation (unit speed, zero-cost wakes).
        from repro.centralized import greedy_schedule

        inst = uniform_disk(n=14, rho=5.0, seed=7)
        schedule = greedy_schedule(inst.source, list(inst.positions))
        run = run_algorithm("greedy", inst)
        assert run.makespan == pytest.approx(schedule.makespan())
        assert run.result.max_energy == pytest.approx(
            schedule.evaluate().max_travel
        )

    def test_online_greedy_adapter_runs(self):
        run = run_algorithm("online_greedy", uniform_disk(n=10, rho=4.0, seed=1))
        assert run.woke_all
        assert run.algorithm == "Centralized[online_greedy]"

    def test_exact_adapter_on_micro_instance(self):
        from repro.centralized import exact_makespan

        inst = uniform_disk(n=6, rho=3.0, seed=4)
        run = run_algorithm("exact", inst)
        assert run.woke_all
        assert run.makespan == pytest.approx(
            exact_makespan(inst.source, list(inst.positions))
        )
