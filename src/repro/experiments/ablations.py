"""Ablations for this implementation's design choices.

* **Distribution gap** — how much makespan does *not knowing* positions
  cost?  Same instances solved by (i) the clairvoyant centralized quadtree
  schedule, (ii) the distributed ``ASeparator``; the gap is the price of
  the discovery problem the paper is about (its ``ell^2 log`` term).
* **Solver choice** — ``ASeparator`` with the quadtree (certified ``O(R)``)
  vs greedy (no guarantee, better constants) centralized terminations.
* **Online competitiveness** — the [BW20]-adjacent online extension:
  measured competitive ratios of the event-driven online dispatcher.
* **Baseline head-to-head** — every registered *centralized* baseline
  executed through the engine (schedule→program adapter) against a
  distributed reference, on identical instances and via the same sweep
  harness and cache.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

import numpy as np

from ..centralized import OnlineRequest, competitive_ratio, quadtree_schedule
from ..core.registry import get_algorithm, iter_algorithms
from ..core.runner import RunRequest
from ..geometry import Point
from ..instances import uniform_disk
from .cache import ResultCache
from .harness import run_requests

__all__ = [
    "distribution_gap",
    "solver_choice",
    "online_competitiveness",
    "centralized_baseline_sweep",
]


def distribution_gap(
    configs: Sequence[tuple[int, float, int]] = ((40, 8.0, 1), (120, 14.0, 2)),
    workers: int = 1,
) -> list[dict[str, Any]]:
    """Distributed vs clairvoyant makespan on the same instances."""
    requests = [
        RunRequest(
            algorithm="aseparator",
            family="uniform_disk",
            family_kwargs={"n": n, "rho": rho, "seed": seed},
        )
        for n, rho, seed in configs
    ]
    records = run_requests(requests, workers=workers)
    rows: list[dict[str, Any]] = []
    for (n, rho, seed), record in zip(configs, records):
        inst = uniform_disk(n=n, rho=rho, seed=seed)
        clairvoyant = quadtree_schedule(inst.source, list(inst.positions))
        rows.append(
            {
                "n": n,
                "rho_star": inst.rho_star,
                "ell": record["ell"],
                "clairvoyant": clairvoyant.makespan(),
                "distributed": record["makespan"],
                "gap": record["makespan"] / clairvoyant.makespan(),
                "woke_all": record["woke_all"],
            }
        )
    return rows


def solver_choice(
    configs: Sequence[tuple[int, float, int]] = ((60, 10.0, 3), (150, 16.0, 4)),
    workers: int = 1,
) -> list[dict[str, Any]]:
    """``ASeparator`` terminations with quadtree vs greedy schedules."""
    requests = [
        RunRequest(
            algorithm="aseparator",
            family="uniform_disk",
            family_kwargs={"n": n, "rho": rho, "seed": seed},
            params={"solver": solver},
        )
        for n, rho, seed in configs
        for solver in ("quadtree", "greedy")
    ]
    records = run_requests(requests, workers=workers)
    rows: list[dict[str, Any]] = []
    for (n, _rho, _seed), (quadtree, greedy) in zip(
        configs, zip(records[::2], records[1::2])
    ):
        assert quadtree["woke_all"] and greedy["woke_all"]
        rows.append(
            {
                "n": n,
                "ell": quadtree["ell"],
                "quadtree_makespan": quadtree["makespan"],
                "greedy_makespan": greedy["makespan"],
                "greedy/quadtree": greedy["makespan"] / quadtree["makespan"],
            }
        )
    return rows


def centralized_baseline_sweep(
    n: int = 24,
    rho: float = 6.0,
    seeds: Sequence[int] = (0, 1),
    reference: str = "agrid",
    workers: int = 1,
    cache: ResultCache | None = None,
) -> list[dict[str, Any]]:
    """Engine-executed centralized baselines vs one distributed reference.

    Enumerates every ``kind="centralized"`` registration (skipping those
    whose ``max_n`` the instance exceeds — the exact solver), so newly
    registered baselines join the comparison automatically.  All runs go
    through the shared harness/cache; rows report mean makespan over
    seeds and the ratio to the distributed reference.
    """
    algorithms = [reference] + [
        spec.name
        for spec in iter_algorithms(kind="centralized")
        if spec.max_n is None or n <= spec.max_n
    ]
    requests = [
        RunRequest(
            algorithm=algorithm,
            family="uniform_disk",
            family_kwargs={"n": n, "rho": rho, "seed": seed},
        )
        for algorithm in algorithms
        for seed in seeds
    ]
    records = run_requests(requests, workers=workers, cache=cache)
    per_algorithm = [
        records[i * len(seeds): (i + 1) * len(seeds)]
        for i in range(len(algorithms))
    ]
    reference_mean = float(
        np.mean([r["makespan"] for r in per_algorithm[0]])
    )
    rows: list[dict[str, Any]] = []
    for algorithm, group in zip(algorithms, per_algorithm):
        mean_makespan = float(np.mean([r["makespan"] for r in group]))
        rows.append(
            {
                "algorithm": algorithm,
                "label": get_algorithm(algorithm).label,
                "kind": get_algorithm(algorithm).kind,
                "n": n,
                "runs": len(group),
                "mean_makespan": mean_makespan,
                "vs_reference": mean_makespan / reference_mean
                if reference_mean > 0
                else float("inf"),
                "mean_max_energy": float(
                    np.mean([r["max_energy"] for r in group])
                ),
                "all_woke": all(r["woke_all"] for r in group),
            }
        )
    return rows


def online_competitiveness(
    sizes: Sequence[int] = (4, 8, 12),
    trials: int = 10,
    seed: int = 0,
) -> list[dict[str, Any]]:
    """Empirical competitive ratios of the online dispatcher."""
    rng = random.Random(seed)
    rows: list[dict[str, Any]] = []
    for n in sizes:
        ratios = []
        for _ in range(trials):
            requests = [
                OnlineRequest(
                    Point(rng.uniform(-8, 8), rng.uniform(-8, 8)),
                    rng.uniform(0.0, 15.0),
                )
                for _ in range(n)
            ]
            ratios.append(competitive_ratio(Point(0, 0), requests))
        rows.append(
            {
                "n": n,
                "trials": trials,
                "mean_ratio": float(np.mean(ratios)),
                "max_ratio": float(np.max(ratios)),
            }
        )
    return rows
