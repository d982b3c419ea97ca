"""Seeded config generation: random sampling + corpus-biased mutation.

The generator is a pure function of its seed and of the corpus contents
at each ``generate`` call — no wall clock, no global randomness — so a
campaign with a fixed seed produces the identical config stream on every
backend and every rerun (the determinism the seed-replay tests pin).

Sampling deliberately over-weights the adversarial corners ROADMAP item 4
names: degenerate geometry (``n=1``, coincident robots, razor-thin
annuli, extreme aspect ratios), crash patterns (``crash_on_wake`` up to
certainty, varied ``failure_seed``), budget cliffs (world budgets placed
just above/below the swarm radius, ``enforce_budget`` toggles), speed
floors (slow cohorts down to 5% speed) and the ``awave`` differential
target (it gets the largest algorithm share, since every awave run drags
the ``legacy_awave`` oracle along).

A ``mode="hostile"`` generator additionally draws *out-of-contract*
configs — ``ell``/``rho`` inputs below the instance's true ``ell*`` /
``rho*`` — stamped ``mode="hostile"`` so the invariant checker waives
wake completeness but still demands energy conservation, reachability
and clean termination.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from .config import MODES, FuzzConfig
from .corpus import CorpusDatabase

__all__ = ["ConfigGenerator", "DEFAULT_MAX_N"]

DEFAULT_MAX_N = 48

#: (algorithm, weight).  ``awave`` dominates: it is the differential
#: target.  ``exact`` is sampled rarely and clamped to tiny ``n``.
_ALGORITHMS: tuple[tuple[str, int], ...] = (
    ("awave", 30),
    ("agrid", 14),
    ("aseparator", 14),
    ("legacy_awave", 6),
    ("greedy", 8),
    ("quadtree", 7),
    ("chain", 7),
    ("online_greedy", 7),
    ("exact", 7),
)

_RHO_CHOICES = (0.5, 1.0, 2.0, 4.0, 8.0, 20.0)
_CRASH_CHOICES = (0.1, 0.5, 1.0)
_SLOW_SPEED_CHOICES = (0.05, 0.25, 0.5, 0.9)


def _admissible(config: FuzzConfig) -> bool:
    """Judge the instance a config actually builds.

    ``FuzzConfig`` construction validates schemas only.  The instance can
    still fail to build (``l1_diamond`` asked for more robots than its
    lattice holds) or hold more robots than ``n`` says
    (``two_clusters_bridge`` pads its blobs and bridge), and ``max_n``
    (e.g. ``exact``'s) is only enforced at execution time.  Such a config
    must be rejected here, not settled as a spurious harness error or
    unexpected exception.
    """
    from ..core.registry import get_algorithm

    try:
        instance = config.request().instance()
    except (ValueError, KeyError):
        return False
    max_n = get_algorithm(config.algorithm).max_n
    return max_n is None or instance.n <= max_n


class ConfigGenerator:
    """Draws :class:`FuzzConfig` batches from seeded randomness.

    ``corpus`` (optional) feeds mutation: with some probability a new
    config is a single-knob mutation of a random corpus representative
    instead of a fresh sample, steering generation toward the neighborhood
    of behavior classes already proven reachable.
    """

    def __init__(
        self,
        seed: int = 0,
        corpus: CorpusDatabase | None = None,
        max_n: int = DEFAULT_MAX_N,
        mutation_rate: float = 0.4,
        mode: str = "contract",
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self._rng = random.Random(seed)
        self._corpus = corpus
        self._max_n = max(1, int(max_n))
        self._mutation_rate = mutation_rate
        self.mode = mode
        self._seen: set[str] = set()
        samplers: list[Callable[[], FuzzConfig]] = [
            self._sample_classic,
            self._sample_degenerate,
            self._sample_world_stress,
            self._sample_budget_cliff,
        ]
        if mode == "hostile":
            # Over-weight the whole point of a hostile campaign while
            # keeping the contract samplers in the pool — mixed streams
            # catch regressions where an out-of-contract run poisons the
            # engine state a later in-contract run depends on.
            samplers += [self._sample_hostile, self._sample_hostile]
        self._samplers = tuple(samplers)

    # -- public surface ------------------------------------------------------

    def generate(self, count: int) -> list[FuzzConfig]:
        """The next ``count`` configs (exact-duplicate configs skipped)."""
        batch: list[FuzzConfig] = []
        attempts = 0
        while len(batch) < count and attempts < count * 30:
            attempts += 1
            config = self._draw()
            if config is None:
                continue
            cid = config.config_id()
            if cid in self._seen:
                continue
            self._seen.add(cid)
            batch.append(config)
        return batch

    # -- draw dispatch -------------------------------------------------------

    def _draw(self) -> FuzzConfig | None:
        rng = self._rng
        try:
            if (
                self._corpus is not None
                and len(self._corpus)
                and rng.random() < self._mutation_rate
            ):
                config = self._mutate()
            else:
                sampler = rng.choice(self._samplers)
                config = sampler()
        except (ValueError, KeyError):
            # An inadmissible draw (schema rejection, over-capacity n,
            # bad world override) is simply discarded and redrawn.
            return None
        return config if config is not None and _admissible(config) else None

    def _size(self, cap: int | None = None) -> int:
        """Swarm sizes biased small (shrinking likes it), tail to max_n."""
        rng = self._rng
        limit = min(self._max_n, cap) if cap else self._max_n
        roll = rng.random()
        if roll < 0.15:
            return rng.choice((1, 2, 3))
        if roll < 0.7:
            return rng.randint(1, min(12, limit))
        return rng.randint(1, limit)

    def _algorithm(self) -> str:
        names = [name for name, _ in _ALGORITHMS]
        weights = [weight for _, weight in _ALGORITHMS]
        return self._rng.choices(names, weights=weights, k=1)[0]

    def _algorithm_params(self, algorithm: str) -> dict[str, Any]:
        rng = self._rng
        params: dict[str, Any] = {}
        if algorithm in ("awave", "agrid", "legacy_awave") and rng.random() < 0.25:
            params["enforce_budget"] = True
        if algorithm == "aseparator" and rng.random() < 0.5:
            params["solver"] = rng.choice(("quadtree", "greedy", "chain"))
        return params

    # -- samplers ------------------------------------------------------------

    def _sample_classic(self) -> FuzzConfig:
        rng = self._rng
        algorithm = self._algorithm()
        cap = 7 if algorithm == "exact" else None
        scenario = rng.choice(
            (
                "uniform_disk",
                "uniform_square",
                "clusters",
                "annulus",
                "beaded_path",
                "spiral",
                "grid_lattice",
                "l1_diamond",
                "connected_walk",
                "two_clusters_bridge",
            )
        )
        n = self._size(cap)
        seed = rng.randint(0, 10_000)
        rho = rng.choice(_RHO_CHOICES)
        kwargs: dict[str, Any]
        if scenario == "uniform_disk":
            kwargs = {"n": n, "rho": rho, "seed": seed}
        elif scenario == "uniform_square":
            kwargs = {"n": n, "half_width": rho, "seed": seed}
        elif scenario == "clusters":
            kwargs = {
                "n": n,
                "n_clusters": rng.randint(1, max(1, min(4, n))),
                "rho": max(rho, 2.0),
                "spread": rng.choice((0.2, 1.0)),
                "seed": seed,
            }
        elif scenario == "annulus":
            r_outer = max(rho, 1.0)
            r_inner = r_outer * rng.choice((0.1, 0.5, 0.95))
            kwargs = {"n": n, "r_inner": r_inner, "r_outer": r_outer, "seed": seed}
        elif scenario == "beaded_path":
            kwargs = {
                "n": n,
                "spacing": rng.choice((0.25, 1.0, 2.5)),
                "seed": seed,
                "wiggle": rng.choice((0.0, 0.3)),
            }
        elif scenario == "spiral":
            kwargs = {"n": n, "spacing": rng.choice((0.5, 1.0, 2.0))}
        elif scenario == "grid_lattice":
            side = rng.randint(1, 2) if cap else rng.randint(1, 6)
            kwargs = {"side": side, "spacing": rng.choice((0.5, 1.0, 2.0))}
        elif scenario == "l1_diamond":
            pitch = rng.choice((0.5, 1.0))
            radius = max(rho, 2.0)
            k = int(radius / pitch)
            capacity = 2 * k * (k + 1)
            kwargs = {
                "n": min(n, capacity),
                "rho": radius,
                "pitch": pitch,
                "seed": seed,
            }
        elif scenario == "connected_walk":
            kwargs = {
                "n": n,
                "step": rng.choice((0.5, 1.0, 2.0)),
                "seed": seed,
                "jitter": rng.choice((0.0, 0.3)),
            }
        else:  # two_clusters_bridge
            kwargs = {
                "n": max(n, 2),
                "gap": rng.choice((2.0, 8.0, 20.0)),
                "spacing": rng.choice((0.5, 1.0)),
                "seed": seed,
            }
        return FuzzConfig(
            algorithm=algorithm,
            scenario=scenario,
            scenario_kwargs=kwargs,
            params=self._algorithm_params(algorithm),
        )

    def _sample_degenerate(self) -> FuzzConfig:
        """Geometry torture: coincident robots, the Thm 2 grid, n=1."""
        rng = self._rng
        algorithm = self._algorithm()
        cap = 7 if algorithm == "exact" else None
        seed = rng.randint(0, 10_000)
        if rng.random() < 0.5:
            scenario = "coincident_pairs"
            kwargs: dict[str, Any] = {
                "n": self._size(cap),
                "rho": rng.choice((0.5, 2.0, 8.0)),
                "seed": seed,
            }
        else:
            scenario = "grid_of_disks"
            ell = rng.choice((1.0, 2.0, 3.0))
            kwargs = {
                "ell": ell,
                "rho": ell * rng.choice((1.0, 1.5, 3.0)),
                "n": self._size(cap),
                "seed": seed,
            }
        return FuzzConfig(
            algorithm=algorithm,
            scenario=scenario,
            scenario_kwargs=kwargs,
            params=self._algorithm_params(algorithm),
        )

    def _sample_world_stress(self) -> FuzzConfig:
        """Crash patterns, speed floors, turbo swarms."""
        rng = self._rng
        algorithm = self._algorithm()
        cap = 7 if algorithm == "exact" else None
        n = self._size(cap)
        seed = rng.randint(0, 10_000)
        scenario = rng.choice(
            ("fragile_swarm", "slow_swarm", "slow_annulus", "turbo_swarm")
        )
        if scenario == "slow_annulus":
            kwargs: dict[str, Any] = {
                "n": n,
                "r_inner": 1.0,
                "r_outer": rng.choice((2.0, 6.0)),
                "seed": seed,
            }
        else:
            kwargs = {"n": n, "rho": rng.choice((1.0, 4.0, 10.0)), "seed": seed}
        world: dict[str, Any] = {}
        if scenario == "fragile_swarm" and rng.random() < 0.7:
            world["crash_on_wake"] = rng.choice(_CRASH_CHOICES)
            world["failure_seed"] = rng.randint(0, 1_000)
        if scenario in ("slow_swarm", "slow_annulus") and rng.random() < 0.7:
            world["slow_speed"] = rng.choice(_SLOW_SPEED_CHOICES)
            world["slow_fraction"] = rng.choice((0.1, 0.5, 1.0))
        return FuzzConfig(
            algorithm=algorithm,
            scenario=scenario,
            scenario_kwargs=kwargs,
            world_params=world,
            params=self._algorithm_params(algorithm),
        )

    def _sample_budget_cliff(self) -> FuzzConfig:
        """World budgets pinned near the scale where runs just succeed.

        A budget in the neighborhood of the swarm radius guarantees the
        campaign exercises both sides of the abort: comfortably below it
        (instant justified exception) and above it (full run under a
        finite ceiling).  Either way the exception-justification logic is
        on trial.
        """
        rng = self._rng
        algorithm = self._algorithm()
        cap = 7 if algorithm == "exact" else None
        n = self._size(cap)
        rho = rng.choice((1.0, 4.0, 10.0))
        seed = rng.randint(0, 10_000)
        scale = rng.choice((0.5, 1.1, 4.0, 64.0))
        world: dict[str, Any] = {"budget": max(rho * scale, 0.25)}
        if rng.random() < 0.3:
            world["source_budget"] = max(rho * rng.choice((0.9, 8.0)), 0.25)
        params = self._algorithm_params(algorithm)
        return FuzzConfig(
            algorithm=algorithm,
            scenario="fragile_swarm" if rng.random() < 0.2 else "uniform_disk",
            scenario_kwargs={"n": n, "rho": rho, "seed": seed},
            world_params=world,
            params=params,
        )

    def _sample_hostile(self) -> FuzzConfig:
        """Out-of-contract inputs: ``ell`` below ``ell*``, ``rho`` below
        ``rho*``.

        The admissibility contract (``ell >= ell_star``, ``rho >=
        rho_star``) is what lets the distributed algorithms promise a
        complete wake; a hostile draw hands them a lie — a spread-out
        swarm with ``ell`` pinned to 1 or 2, or an ``aseparator`` radius
        a fraction of the true one.  Incomplete wakes are legitimate then
        (mode ``hostile`` waives that invariant), but energy
        conservation, reachability and clean termination still hold: the
        engine must not care how bad its inputs were.
        """
        rng = self._rng
        algorithm = rng.choice(("awave", "agrid", "aseparator"))
        seed = rng.randint(0, 10_000)
        # A spread-out instance, so the true ell*/rho* sit well above the
        # lie we are about to tell.
        rho = rng.choice((4.0, 8.0, 20.0))
        n = max(4, self._size())
        params: dict[str, Any] = {"ell": rng.choice((1, 2))}
        if algorithm == "aseparator":
            if rng.random() < 0.7:
                params["rho"] = rho * rng.choice((0.01, 0.1, 0.5))
            if rng.random() < 0.5:
                params["solver"] = rng.choice(("quadtree", "greedy", "chain"))
        elif rng.random() < 0.25:
            params["enforce_budget"] = True
        return FuzzConfig(
            algorithm=algorithm,
            scenario="uniform_disk",
            scenario_kwargs={"n": n, "rho": rho, "seed": seed},
            params=params,
            mode="hostile",
        )

    # -- mutation ------------------------------------------------------------

    def _mutate(self) -> FuzzConfig | None:
        rng = self._rng
        assert self._corpus is not None
        parents = self._corpus.representatives()
        parent = FuzzConfig.from_dict(rng.choice(parents))
        kwargs = dict(parent.scenario_kwargs)
        world = dict(parent.world_params)
        params = dict(parent.params)
        moves = []
        if "n" in kwargs:
            moves += ["halve_n", "double_n"]
        if "seed" in kwargs:
            moves.append("reseed")
        if world:
            moves.append("drop_world_knob")
        if params:
            moves.append("drop_param")
        moves += ["swap_algorithm", "toggle_budget"]
        move = rng.choice(moves)
        if move == "halve_n":
            kwargs["n"] = max(1, int(kwargs["n"]) // 2)
        elif move == "double_n":
            kwargs["n"] = min(self._max_n, max(1, int(kwargs["n"]) * 2))
        elif move == "reseed":
            kwargs["seed"] = rng.randint(0, 10_000)
        elif move == "drop_world_knob":
            world.pop(rng.choice(sorted(world)))
        elif move == "drop_param":
            params.pop(rng.choice(sorted(params)))
        elif move == "toggle_budget":
            algorithm = parent.algorithm
            if params.get("enforce_budget"):
                params.pop("enforce_budget")
            elif algorithm in ("awave", "agrid", "legacy_awave"):
                params["enforce_budget"] = True
        elif move == "swap_algorithm":
            algorithm = self._algorithm()
            if algorithm == "exact" and int(kwargs.get("n", 99)) > 7:
                return None
            return FuzzConfig(
                algorithm=algorithm,
                scenario=parent.scenario,
                scenario_kwargs=kwargs,
                world_params=world,
                params=self._algorithm_params(algorithm),
                mode=parent.mode,
            )
        return FuzzConfig(
            algorithm=parent.algorithm,
            scenario=parent.scenario,
            scenario_kwargs=kwargs,
            world_params=world,
            params=params,
            mode=parent.mode,
        )
