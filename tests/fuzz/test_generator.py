"""Seeded config generation: determinism, admissibility, mutation."""

from repro.core.registry import get_algorithm
from repro.fuzz import (
    ConfigGenerator,
    CorpusDatabase,
    FuzzConfig,
    coverage_signature,
)


def ids(configs):
    return [c.config_id() for c in configs]


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = ConfigGenerator(seed=7).generate(25)
        b = ConfigGenerator(seed=7).generate(25)
        assert ids(a) == ids(b)
        assert len(a) == 25

    def test_different_seeds_diverge(self):
        a = ConfigGenerator(seed=7).generate(25)
        b = ConfigGenerator(seed=8).generate(25)
        assert ids(a) != ids(b)

    def test_no_duplicates_within_a_generator(self):
        gen = ConfigGenerator(seed=3)
        batch = gen.generate(15) + gen.generate(15)
        assert len(set(ids(batch))) == len(batch)


class TestAdmissibility:
    def test_capacity_limited_algorithms_stay_under_max_n(self):
        """Every draw respects the registry's max_n — the guard that keeps
        a mutation from pushing ``exact`` past its capacity and settling
        as a spurious unexpected-exception."""
        configs = ConfigGenerator(seed=11).generate(60)
        for config in configs:
            max_n = get_algorithm(config.algorithm).max_n
            if max_n is not None and config.n_hint is not None:
                assert config.n_hint <= max_n

    def test_config_whose_instance_cannot_build_is_rejected(self):
        """A mutation can ask ``l1_diamond`` for more robots than its
        lattice holds (16 of 12 points at radius 2, pitch 1): the schema
        accepts it, the instance build raises."""
        from repro.fuzz.generator import _admissible

        config = FuzzConfig(
            "awave", "l1_diamond", {"n": 16, "rho": 2.0, "pitch": 1.0, "seed": 0}
        )
        assert not _admissible(config)
        assert _admissible(config.replace(scenario_kwargs={**config.scenario_kwargs, "n": 12}))

    def test_capacity_is_judged_on_the_built_robot_count(self):
        """``two_clusters_bridge(n=2, gap=20, spacing=1)`` builds 24 robots,
        far past ``exact``'s ``max_n``, whatever its ``n`` says."""
        from repro.fuzz.generator import _admissible

        config = FuzzConfig(
            "exact",
            "two_clusters_bridge",
            {"n": 2, "gap": 20.0, "spacing": 1.0, "seed": 0},
        )
        assert config.request().instance().n == 24
        assert get_algorithm("exact").max_n < 24
        assert not _admissible(config)
        assert _admissible(config.replace(algorithm="greedy"))

    def test_every_config_validates_eagerly(self):
        # FuzzConfig construction builds the RunRequest; surviving the
        # generator means surviving both registries.
        configs = ConfigGenerator(seed=19).generate(40)
        assert all(isinstance(c, FuzzConfig) for c in configs)
        assert all(c.mode == "contract" for c in configs)

    def test_sampler_mix_covers_the_roadmap_corners(self):
        configs = ConfigGenerator(seed=0).generate(80)
        scenarios = {c.scenario for c in configs}
        assert scenarios & {"coincident_pairs", "grid_of_disks"}  # degenerate
        assert any("budget" in c.world_params for c in configs)  # cliffs
        assert any(
            c.world_params.get("slow_fraction") or c.world_params.get("crash_on_wake")
            for c in configs
        )  # speed floors / crash patterns
        assert any(c.n_hint == 1 for c in configs)  # n=1 torture


class TestHostileMode:
    def test_bad_mode_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="mode must be one of"):
            ConfigGenerator(mode="chaotic")

    def test_contract_generator_never_draws_hostile(self):
        configs = ConfigGenerator(seed=5).generate(40)
        assert all(c.mode == "contract" for c in configs)

    def test_hostile_generator_mixes_out_of_contract_draws(self):
        configs = ConfigGenerator(seed=5, mode="hostile").generate(40)
        hostile = [c for c in configs if c.mode == "hostile"]
        assert hostile  # the new sampler actually fires
        assert any(c.mode == "contract" for c in configs)  # mixed stream
        for config in hostile:
            # The lie: a pinned ell far below what a spread-out disk needs.
            assert config.params["ell"] in (1, 2)
            assert config.scenario_kwargs["rho"] >= 4.0

    def test_hostile_stream_is_deterministic(self):
        a = ConfigGenerator(seed=21, mode="hostile").generate(30)
        b = ConfigGenerator(seed=21, mode="hostile").generate(30)
        assert ids(a) == ids(b)

    def test_hostile_draws_check_clean(self):
        """An out-of-contract run may strand robots asleep — and that is
        legitimate in hostile mode; every other invariant still holds."""
        from repro.fuzz import check_config

        gen = ConfigGenerator(seed=7, max_n=12, mode="hostile")
        hostile = [c for c in gen.generate(30) if c.mode == "hostile"][:6]
        assert hostile
        outcomes = [check_config(c) for c in hostile]
        assert all(o.ok for o in outcomes)
        # The waiver matters: for a fixed seed at least one draw strands
        # robots, which contract mode would flag as wake-incompleteness.
        assert any(o.stats.get("woke_all") is False for o in outcomes)


class TestMutation:
    def _corpus_with(self, cfg):
        corpus = CorpusDatabase()
        corpus.observe(
            {
                "signature": coverage_signature(cfg, {"n": cfg.n_hint}),
                "config": cfg.as_dict(),
                "ok": True,
            }
        )
        return corpus

    def test_mutations_orbit_the_parent(self):
        parent = FuzzConfig(
            "awave",
            "uniform_disk",
            {"n": 8, "rho": 2.0, "seed": 5},
            world_params={"budget": 16.0},
        )
        gen = ConfigGenerator(
            seed=2, corpus=self._corpus_with(parent), mutation_rate=1.0
        )
        children = gen.generate(10)
        assert children
        # Single-knob mutation: the scenario never changes, and some child
        # actually moved a knob away from the parent.
        assert all(c.scenario == "uniform_disk" for c in children)
        assert any(c.config_id() != parent.config_id() for c in children)
        assert len(set(ids(children))) == len(children)

    def test_zero_mutation_rate_ignores_corpus_content(self):
        """mutation_rate=0 never mutates: two generators fed *different*
        corpora of the same size draw the identical config stream."""
        parent_a = FuzzConfig("greedy", "spiral", {"n": 4, "spacing": 1.0})
        parent_b = FuzzConfig(
            "awave", "uniform_disk", {"n": 9, "rho": 8.0, "seed": 2}
        )
        stream_a = ConfigGenerator(
            seed=13, corpus=self._corpus_with(parent_a), mutation_rate=0.0
        ).generate(20)
        stream_b = ConfigGenerator(
            seed=13, corpus=self._corpus_with(parent_b), mutation_rate=0.0
        ).generate(20)
        assert ids(stream_a) == ids(stream_b)
