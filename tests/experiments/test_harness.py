"""Sweep harness: spec expansion, parallel determinism, result caching."""

import json

import pytest

from repro.core.runner import RunRequest
from repro.experiments import (
    FamilySweep,
    ResultCache,
    ScenarioSweep,
    SweepSpec,
    aggregate_records,
    request_key,
    run_requests,
    run_sweep,
)

TINY_SPEC = SweepSpec(
    name="tiny",
    algorithms=("aseparator", "agrid", "awave"),
    families=(
        FamilySweep("uniform_disk", {"n": [12], "rho": [4.0]}),
        FamilySweep("beaded_path", {"n": [6], "spacing": [1.0]}),
        FamilySweep("grid_lattice", {"side": [3], "spacing": [1.0]}),
    ),
    seeds=(0, 1),
)


class TestExpansion:
    def test_cross_product_counts(self):
        requests = TINY_SPEC.expand()
        # 3 algorithms x (2 seeded families x 2 seeds + 1 deterministic family).
        assert len(requests) == 3 * (2 * 2 + 1)
        assert len({request_key(r) for r in requests}) == len(requests)

    def test_deterministic_families_ignore_seeds(self):
        lattice = [r for r in TINY_SPEC.expand() if r.family == "grid_lattice"]
        assert len(lattice) == 3  # one per algorithm, not per seed
        assert all("seed" not in r.family_kwargs for r in lattice)

    def test_param_grid(self):
        sweep = FamilySweep("uniform_disk", {"n": [10, 20], "rho": [4.0, 8.0]})
        assert len(sweep.grid()) == 4

    def test_algorithm_params_cross(self):
        spec = SweepSpec(
            name="p",
            algorithms=("agrid",),
            families=(FamilySweep("beaded_path", {"n": [6], "spacing": [1.0]}),),
            seeds=(0,),
            algorithm_params={"ell": [1, 2]},
        )
        assert [r.params["ell"] for r in spec.expand()] == [1, 2]

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown family"):
            FamilySweep("nope", {})
        with pytest.raises(ValueError, match="unknown algorithm"):
            SweepSpec(name="x", algorithms=("magic",), families=(FamilySweep("spiral"),))
        with pytest.raises(ValueError, match="must be a list"):
            FamilySweep("uniform_disk", {"n": 12})
        with pytest.raises(ValueError, match="no parameter 'count'"):
            FamilySweep("beaded_path", {"count": [5]})

    def test_expansion_error_names_offending_entry(self):
        # `solver` is an aseparator-only parameter: expanding it against
        # agrid must identify the sweep entry, not just the bad value.
        spec = SweepSpec(
            name="ctx",
            algorithms=("aseparator", "agrid"),
            families=(FamilySweep("beaded_path", {"n": [4], "spacing": [1.0]}),),
            seeds=(0,),
            algorithm_params={"solver": ["greedy"]},
        )
        with pytest.raises(ValueError) as excinfo:
            spec.expand()
        message = str(excinfo.value)
        assert "sweep 'ctx'" in message
        assert "algorithm 'agrid'" in message
        assert "family 'beaded_path'" in message
        assert "grid point #0" in message
        assert "no parameter 'solver'" in message

    def test_enforce_budget_crosses_all_three_algorithms(self):
        # Pre-registry sweeps could cross enforce_budget over the full
        # distributed trio (aseparator silently ignored it) — they must
        # keep expanding, with the flag still in each request's key.
        spec = SweepSpec(
            name="budget",
            algorithms=("aseparator", "agrid", "awave"),
            families=(FamilySweep("beaded_path", {"n": [4], "spacing": [1.0]}),),
            seeds=(0,),
            algorithm_params={"enforce_budget": [True]},
        )
        requests = spec.expand()
        assert [r.algorithm for r in requests] == ["aseparator", "agrid", "awave"]
        assert all(r.params["enforce_budget"] for r in requests)

    def test_generic_params_route_through_sweep(self):
        spec = SweepSpec(
            name="generic",
            algorithms=("aseparator",),
            families=(FamilySweep("beaded_path", {"n": [4], "spacing": [1.0]}),),
            seeds=(0,),
            algorithm_params={"solver": ["quadtree", "greedy"]},
        )
        assert [r.params["solver"] for r in spec.expand()] == [
            "quadtree", "greedy",
        ]

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown spec fields"):
            SweepSpec.from_dict({"name": "x", "algorithms": ["agrid"],
                                 "families": [], "typo": 1})
        with pytest.raises(ValueError, match="needs a 'family' key"):
            SweepSpec.from_dict({"name": "x", "algorithms": ["agrid"],
                                 "families": [{"params": {"n": [5]}}]})

    def test_from_file_roundtrip(self, tmp_path):
        payload = {
            "name": "f",
            "algorithms": ["aseparator"],
            "families": [{"family": "beaded_path", "params": {"n": [4], "spacing": [1.0]}}],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        spec = SweepSpec.from_file(path)
        assert spec.name == "f"
        assert len(spec.expand()) == 1


class TestScenarioSweeps:
    """Scenarios enumerate exactly like families — plus world grids."""

    def test_scenarios_expand_after_families_per_algorithm(self):
        spec = SweepSpec(
            name="mixed-workloads",
            algorithms=("greedy", "chain"),
            families=(FamilySweep("beaded_path", {"n": [4], "spacing": [1.0]}),),
            scenarios=(ScenarioSweep("slow_swarm", {"n": [6], "rho": [3.0]}),),
            seeds=(0,),
        )
        requests = spec.expand()
        assert [(r.algorithm, r.workload) for r in requests] == [
            ("greedy", "beaded_path"), ("greedy", "slow_swarm"),
            ("chain", "beaded_path"), ("chain", "slow_swarm"),
        ]
        assert requests[1].scenario == "slow_swarm"
        assert requests[1].family == ""

    def test_world_grid_crosses_instances(self):
        sweep = ScenarioSweep(
            "slow_annulus",
            {"n": [8], "r_inner": [2.0], "r_outer": [4.0]},
            world={"slow_fraction": [0.0, 0.2, 0.4]},
        )
        spec = SweepSpec(
            name="worlds", algorithms=("greedy",), scenarios=(sweep,), seeds=(0,)
        )
        requests = spec.expand()
        assert [r.world_params.get("slow_fraction") for r in requests] == [0.0, 0.2, 0.4]
        assert len({request_key(r) for r in requests}) == 3

    def test_scenario_seeding_uses_declared_schema(self):
        spec = SweepSpec(
            name="seeds",
            algorithms=("greedy",),
            scenarios=(
                ScenarioSweep("slow_swarm", {"n": [6], "rho": [3.0]}),
                ScenarioSweep("spiral", {"n": [6], "spacing": [1.0]}),
            ),
            seeds=(0, 1, 2),
        )
        requests = spec.expand()
        slow = [r for r in requests if r.scenario == "slow_swarm"]
        spirals = [r for r in requests if r.scenario == "spiral"]
        assert len(slow) == 3       # seeded: once per seed
        assert len(spirals) == 1    # deterministic schema: once
        assert "seed" not in spirals[0].family_kwargs

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            ScenarioSweep("atlantis")
        with pytest.raises(ValueError, match="no parameter 'mass'"):
            ScenarioSweep("slow_swarm", {"mass": [5]})
        with pytest.raises(ValueError, match="unknown world parameter"):
            ScenarioSweep("slow_swarm", world={"gravity": [9.8]})
        with pytest.raises(ValueError, match="must be a list"):
            ScenarioSweep("slow_swarm", world={"slow_fraction": 0.2})

    def test_expansion_error_names_offending_scenario_entry(self):
        spec = SweepSpec(
            name="ctx2",
            algorithms=("agrid",),
            scenarios=(ScenarioSweep("slow_swarm", {"n": [4], "rho": [2.0]}),),
            seeds=(0,),
            algorithm_params={"solver": ["greedy"]},
        )
        with pytest.raises(ValueError) as excinfo:
            spec.expand()
        message = str(excinfo.value)
        assert "sweep 'ctx2'" in message
        assert "scenario 'slow_swarm'" in message
        assert "no parameter 'solver'" in message

    def test_from_dict_parses_scenarios(self):
        spec = SweepSpec.from_dict({
            "name": "json",
            "algorithms": ["greedy"],
            "scenarios": [
                {"scenario": "fragile_swarm", "params": {"n": [6], "rho": [3.0]},
                 "world": {"crash_on_wake": [0.0, 0.5]}},
            ],
        })
        assert len(spec.expand()) == 2
        with pytest.raises(ValueError, match="needs a 'scenario' key"):
            SweepSpec.from_dict({"name": "x", "algorithms": ["greedy"],
                                 "scenarios": [{"params": {}}]})

    def test_scenario_records_carry_world_columns(self):
        spec = SweepSpec(
            name="records",
            algorithms=("greedy",),
            scenarios=(
                ScenarioSweep(
                    "fragile_swarm", {"n": [8], "rho": [3.0]},
                    world={"crash_on_wake": [0.5]},
                ),
            ),
            seeds=(4,),
        )
        [record] = run_sweep(spec).records
        assert record["scenario"] == "fragile_swarm"
        assert record["family"] == "fragile_swarm"  # aggregates separately
        assert record["world_params"] == {"crash_on_wake": 0.5}
        assert record["seed"] == 4
        assert record["woke_all"]


class TestDeterminism:
    def test_workers_1_vs_4_byte_identical(self):
        serial = run_sweep(TINY_SPEC, workers=1)
        parallel = run_sweep(TINY_SPEC, workers=4)
        assert json.dumps(serial.records) == json.dumps(parallel.records)
        assert serial.records  # sanity: the sweep actually ran

    def test_records_follow_request_order(self):
        requests = TINY_SPEC.expand()
        records = run_requests(requests, workers=4)
        for request, record in zip(requests, records):
            assert record["family"] == request.family
            algorithms = {"aseparator": "ASeparator", "agrid": "AGrid", "awave": "AWave"}
            assert record["algorithm"].startswith(algorithms[request.algorithm])


class TestCache:
    def test_hit_miss_and_incremental_rerun(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(TINY_SPEC, workers=2, cache=cache)
        assert cold.executed == cold.total and cold.cached == 0
        warm = run_sweep(TINY_SPEC, workers=2, cache=cache)
        assert warm.cached == warm.total and warm.executed == 0
        assert json.dumps(cold.records) == json.dumps(warm.records)

    def test_result_carries_hit_miss_counters(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(TINY_SPEC, workers=2, cache=cache)
        assert cold.cache_hits == 0
        assert cold.cache_misses == cold.total
        assert cold.hit_rate == 0.0
        warm = run_sweep(TINY_SPEC, workers=2, cache=cache)
        assert warm.cache_hits == warm.total
        assert warm.cache_misses == 0
        assert warm.hit_rate == 1.0

    def test_uncached_result_counters_are_zero(self):
        result = run_requests(
            [RunRequest("agrid", "beaded_path", {"n": 6, "spacing": 1.0})]
        )
        assert len(result) == 1  # no cache: nothing to count

    def test_progress_reports_hits_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(TINY_SPEC, cache=cache)
        ticks = []
        run_sweep(TINY_SPEC, cache=cache, progress=ticks.append)
        assert ticks  # warm run still ticks per job
        final = ticks[-1]
        assert final.hits == final.total and final.misses == 0
        assert final.hit_rate == 1.0

    def test_spec_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        base = RunRequest("agrid", "beaded_path", {"n": 6, "spacing": 1.0})
        changed = RunRequest("agrid", "beaded_path", {"n": 7, "spacing": 1.0})
        run_requests([base], cache=cache)
        assert cache.load(base) is not None
        assert cache.load(changed) is None
        assert request_key(base) != request_key(changed)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        request = RunRequest("agrid", "beaded_path", {"n": 6, "spacing": 1.0})
        run_requests([request], cache=cache)
        for path in (tmp_path / "cache").glob("*.json"):
            path.write_text("{not json")
        assert cache.load(request) is None

    def test_corrupt_entry_quarantines_and_reheals(self, tmp_path):
        """The torn-write regression: a truncated entry must read as a
        miss, move to ``quarantine/`` (counted, visible in stats), and a
        re-execution must transparently heal the cache."""
        cache = ResultCache(tmp_path / "cache")
        request = RunRequest("agrid", "beaded_path", {"n": 6, "spacing": 1.0})
        clean = run_requests([request], cache=cache)
        (entry,) = (tmp_path / "cache").glob("*.json")
        data = entry.read_bytes()
        entry.write_bytes(data[: len(data) // 2])  # the torn write
        assert cache.load(request) is None
        assert cache.quarantined == 1
        assert cache.quarantined_on_disk() == 1
        assert list(cache.quarantine_dir.glob("*.json*"))
        assert len(cache) == 0  # the bad entry left the record namespace
        assert "1 corrupt entries quarantined" in cache.stats()
        healed = run_requests([request], cache=cache)
        assert json.dumps(healed) == json.dumps(clean)
        assert cache.load(request) is not None

    def test_truncation_onto_valid_json_prefix_still_quarantines(self, tmp_path):
        """Truncation can land on parseable JSON with no record inside —
        just as unusable, and historically the crashier path."""
        cache = ResultCache(tmp_path / "cache")
        request = RunRequest("agrid", "beaded_path", {"n": 6, "spacing": 1.0})
        run_requests([request], cache=cache)
        for path in (tmp_path / "cache").glob("*.json"):
            path.write_text('{"schema": 1}')
        assert cache.load(request) is None
        assert cache.quarantined == 1

    def test_corrupt_fault_plant_truncates_one_store(self, tmp_path, monkeypatch):
        """``corrupt@*:times=1`` (FREEZETAG_FAULTS) tears exactly one
        entry; the warm read discovers it, quarantines, and re-executes."""
        from repro.experiments.faults import FAULTS_ENV

        monkeypatch.setenv(FAULTS_ENV, "corrupt@*:times=1")
        cache = ResultCache(tmp_path / "cache")
        requests = [
            RunRequest("agrid", "beaded_path", {"n": n, "spacing": 1.0})
            for n in (5, 6)
        ]
        run_requests(requests, cache=cache)
        monkeypatch.delenv(FAULTS_ENV)
        loaded = [cache.load(r) for r in requests]
        assert sum(1 for r in loaded if r is None) == 1  # exactly one torn
        assert cache.quarantined == 1

    def test_cached_equals_fresh(self, tmp_path):
        request = RunRequest("aseparator", "uniform_disk", {"n": 12, "rho": 4.0, "seed": 0})
        fresh = run_requests([request])
        cache = ResultCache(tmp_path / "cache")
        run_requests([request], cache=cache)
        cached = run_requests([request], cache=cache)
        assert json.dumps(fresh) == json.dumps(cached)


class TestMixedKinds:
    """Centralized baselines and distributed algorithms in one sweep."""

    MIXED_SPEC = SweepSpec(
        name="mixed",
        algorithms=("agrid", "greedy", "quadtree"),
        families=(FamilySweep("uniform_disk", {"n": [12], "rho": [4.0]}),),
        seeds=(0, 1),
    )

    def test_mixed_sweep_shares_one_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(self.MIXED_SPEC, workers=2, cache=cache)
        assert cold.executed == 6 and cold.cached == 0
        warm = run_sweep(self.MIXED_SPEC, workers=2, cache=cache)
        assert warm.cached == 6 and warm.executed == 0
        assert json.dumps(cold.records) == json.dumps(warm.records)
        labels = {r["algorithm"] for r in cold.records}
        assert labels == {"AGrid", "Centralized[greedy]", "Centralized[quadtree]"}
        assert all(r["woke_all"] for r in cold.records)

    def test_baselines_executed_through_engine(self):
        # The adapter realizes the schedule in the simulator, so energy
        # and termination accounting match the distributed records.
        [record] = run_requests(
            [RunRequest("chain", "uniform_disk", {"n": 10, "rho": 4.0, "seed": 5})]
        )
        assert record["woke_all"]
        # A chain tour is one robot walking everything: its makespan IS
        # the max per-robot energy, and it dominates everyone else's.
        assert record["max_energy"] == pytest.approx(record["makespan"])
        assert record["total_energy"] == pytest.approx(record["makespan"])

    def test_clairvoyant_beats_distributed(self):
        # Same instance: the informed greedy schedule can't be slower
        # than the discovery-paying distributed run.
        kwargs = {"n": 16, "rho": 5.0, "seed": 2}
        greedy, distributed = run_requests(
            [
                RunRequest("greedy", "uniform_disk", kwargs),
                RunRequest("aseparator", "uniform_disk", kwargs),
            ]
        )
        assert greedy["makespan"] < distributed["makespan"]


class TestRecords:
    def test_phase_collection(self):
        request = RunRequest(
            "aseparator", "uniform_disk",
            {"n": 30, "rho": 8.0, "seed": 1}, collect="phases",
        )
        [record] = run_requests([request])
        assert record["woke_all"]
        assert any(p["label"] == "asep:init" for p in record["phases"])
        assert all(p["end"] >= p["start"] for p in record["phases"])
        assert record["phase_events"], "annotate markers should be captured"

    def test_aggregate_rows(self):
        records = run_requests(
            [
                RunRequest("agrid", "beaded_path", {"n": 6, "spacing": 1.0}),
                RunRequest("agrid", "beaded_path", {"n": 8, "spacing": 1.0}),
            ]
        )
        [row] = aggregate_records(records)
        assert row["runs"] == 2
        assert row["all_woke"]
        assert row["max_makespan"] >= row["mean_makespan"]

    def test_invalid_requests_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            RunRequest("magic", "uniform_disk", {})
        with pytest.raises(ValueError, match="no parameter 'solver'"):
            RunRequest("agrid", "uniform_disk", {}, params={"solver": "greedy"})
        # rho is now an accepted (label-only) agrid parameter: pinning it
        # together with ell skips instance parameter estimation at scale.
        RunRequest("agrid", "uniform_disk", {}, params={"rho": 5.0})
        with pytest.raises(ValueError, match="no parameter 'gamma'"):
            RunRequest("agrid", "uniform_disk", {}, params={"gamma": 1})
        with pytest.raises(ValueError, match="collect"):
            RunRequest("agrid", "uniform_disk", {}, collect="everything")
        with pytest.raises(ValueError, match="expects int"):
            RunRequest("agrid", "uniform_disk", {}, params={"ell": "two"})
        with pytest.raises(ValueError, match="must be one of"):
            RunRequest("aseparator", "uniform_disk", {}, params={"solver": "magic"})

    def test_solver_variants_run(self):
        requests = [
            RunRequest("aseparator", "uniform_disk",
                       {"n": 12, "rho": 4.0, "seed": 3}, params={"solver": solver})
            for solver in ("quadtree", "greedy")
        ]
        quadtree, greedy = run_requests(requests)
        assert quadtree["algorithm"] == "ASeparator[quadtree]"
        assert greedy["algorithm"] == "ASeparator[greedy]"
        assert quadtree["woke_all"] and greedy["woke_all"]
