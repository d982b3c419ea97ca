"""Experiments reproducing Table 1 of the paper.

Each function returns a list of dict rows (printable with
:func:`repro.experiments.io.print_table`) and is exercised by a
``benchmarks/bench_table1_*`` module.  The rows carry the measured
makespans together with the bound features, so the callers can fit the
Table 1 shapes with :mod:`repro.metrics.fits`.

Scale parameters are explicit everywhere so benchmarks can pick profiles
that run in seconds while the CLI can scale up.  Every engine-backed
sweep is expressed as :class:`~repro.core.runner.RunRequest` jobs and
executed through :func:`~repro.experiments.harness.run_requests`, so the
same functions parallelise (``workers``) and cache (``cache``) for free.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

from ..core.explore import exploration_stops
from ..core.registry import get_algorithm
from ..core.runner import RunRequest
from ..geometry import Point, distance, square_at_center
from ..instances import (
    coverage_fraction,
    energy_ball,
    energy_infeasibility_threshold,
    record_look_positions,
)
from ..metrics import aseparator_features, fit_linear_combination
from ..sim import Look, Move
from .cache import ResultCache
from .harness import run_requests

__all__ = [
    "aseparator_rho_sweep",
    "aseparator_ell_sweep",
    "agrid_xi_sweep",
    "awave_vs_agrid",
    "energy_infeasibility_sweep",
    "fit_aseparator_shape",
]


def aseparator_rho_sweep(
    rhos: Sequence[float],
    n_per_rho: Callable[[float], int] = lambda rho: int(4 * rho),
    seeds: Sequence[int] = (0, 1),
    workers: int = 1,
    cache: ResultCache | None = None,
) -> list[dict[str, Any]]:
    """T1-row1(a): ``ASeparator`` makespan vs ``rho`` at ~constant density.

    Density is held fixed so ``ell_star`` stays roughly constant and the
    ``rho`` term of Thm 1 dominates — expected slope ~1 in log-log.
    """
    requests = [
        RunRequest(
            algorithm="aseparator",
            family="uniform_disk",
            family_kwargs={"n": n_per_rho(rho), "rho": rho, "seed": seed},
        )
        for rho in rhos
        for seed in seeds
    ]
    records = run_requests(requests, workers=workers, cache=cache)
    return [
        {
            "rho": request.family_kwargs["rho"],
            "seed": request.family_kwargs["seed"],
            "n": record["n"],
            "ell": record["ell"],
            "makespan": record["makespan"],
            "makespan/rho": record["makespan"] / request.family_kwargs["rho"],
            "woke_all": record["woke_all"],
        }
        for request, record in zip(requests, records)
    ]


def aseparator_ell_sweep(
    ells: Sequence[int],
    side: int = 7,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> list[dict[str, Any]]:
    """T1-row1(b): ``ASeparator`` makespan vs ``ell`` at fixed ``rho/ell``.

    Lattices of pitch ``ell`` pin ``ell_star = ell`` exactly and scale
    ``rho_star`` proportionally to ``ell``, so Thm 1 predicts makespan
    ``a*ell + b*ell^2`` — a log-log slope strictly between 1 and 2.
    """
    requests = [
        RunRequest(
            algorithm="aseparator",
            family="grid_lattice",
            family_kwargs={"side": side, "spacing": float(ell)},
            params={"ell": ell},
        )
        for ell in ells
    ]
    records = run_requests(requests, workers=workers, cache=cache)
    rows: list[dict[str, Any]] = []
    for record in records:
        ell = record["ell"]
        rho = record["rho"]
        feature = ell * ell * math.log(max(rho / ell, 2.0))
        rows.append(
            {
                "ell": ell,
                "rho": rho,
                "n": record["n"],
                "makespan": record["makespan"],
                "ell2log": feature,
                "makespan/ell2log": record["makespan"] / feature,
                "woke_all": record["woke_all"],
            }
        )
    return rows


def fit_aseparator_shape(rows: Sequence[dict[str, Any]]):
    """Fit the Thm 1 template over mixed sweep rows (needs ``ell`` & ``rho``)."""
    feats = [aseparator_features(r["ell"], r["rho"]) for r in rows]
    return fit_linear_combination(
        feats,
        [r["makespan"] for r in rows],
        feature_names=("rho", "ell^2*log(rho/ell)"),
    )


def agrid_xi_sweep(
    lengths: Sequence[int],
    spacing: float = 1.0,
    ell: int | None = None,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> list[dict[str, Any]]:
    """T1-row3: ``AGrid`` makespan vs ``xi_ell`` on beaded paths.

    ``xi_ell ~ n * spacing``; Thm 4 predicts makespan ``Θ(ell * xi)`` —
    the ``makespan/xi`` column should be roughly flat, and ``max_energy``
    must stay below the ``Θ(ell^2)`` budget.
    """
    requests = [
        RunRequest(
            algorithm="agrid",
            family="beaded_path",
            family_kwargs={"n": n, "spacing": spacing},
            params={"ell": ell},
        )
        for n in lengths
    ]
    records = run_requests(requests, workers=workers, cache=cache)
    return [
        {
            "n": record["n"],
            "xi": record["xi_ell"],
            "ell": record["ell"],
            "makespan": record["makespan"],
            "makespan/xi": record["makespan"] / record["xi_ell"],
            "max_energy": record["max_energy"],
            "energy_budget": get_algorithm("agrid").energy_budget(record["ell"]),
            "woke_all": record["woke_all"],
        }
        for record in records
    ]


def awave_vs_agrid(
    lengths: Sequence[int],
    spacing: float,
    ell: int,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> list[dict[str, Any]]:
    """T1-row4: ``AWave`` vs ``AGrid`` on the same corridors.

    Thm 5 vs Thm 4: for ``xi`` large, ``AWave``'s ``O(xi + ell^2 log
    (xi/ell))`` beats ``AGrid``'s ``O(ell * xi)`` — the rows expose the
    measured ratio and each algorithm's energy usage against its budget.
    """
    requests = [
        RunRequest(
            algorithm=algorithm,
            family="beaded_path",
            family_kwargs={"n": n, "spacing": spacing},
            params={"ell": ell},
        )
        for n in lengths
        for algorithm in ("agrid", "awave")
    ]
    records = run_requests(requests, workers=workers, cache=cache)
    rows: list[dict[str, Any]] = []
    for n, (grid, wave) in zip(lengths, zip(records[::2], records[1::2])):
        rows.append(
            {
                "n": n,
                "xi": grid["xi_ell"],
                "ell": ell,
                "agrid_makespan": grid["makespan"],
                "awave_makespan": wave["makespan"],
                "awave/agrid": wave["makespan"] / grid["makespan"]
                if grid["makespan"] > 0
                else math.inf,
                "agrid_maxE": grid["max_energy"],
                "awave_maxE": wave["max_energy"],
                "agrid_budget": get_algorithm("agrid").energy_budget(ell),
                "awave_budget": get_algorithm("awave").energy_budget(ell),
                "both_woke": grid["woke_all"] and wave["woke_all"],
            }
        )
    return rows


def energy_infeasibility_sweep(
    ell: int,
    budget_factors: Sequence[float] = (0.25, 0.5, 0.75, 1.0, 1.5, 3.0),
    resolution: int = 10,
) -> list[dict[str, Any]]:
    """T1-row2 (Thm 3): discovery coverage of ``B(0, ell)`` vs budget.

    A source with budget ``f * pi*(ell^2-1)/2`` sweeps the ball with the
    Lemma 1 boustrophedon until its energy runs out; the row reports the
    covered fraction of the ball and whether an adversarially-hidden robot
    (at the last/never covered spot) would have been found.  Below
    ``f = 1`` coverage must be incomplete — that is the theorem.
    """
    threshold = energy_infeasibility_threshold(ell)
    ball_square = square_at_center(Point(0.0, 0.0), 2.0 * ell)
    stops = exploration_stops(ball_square)

    rows: list[dict[str, Any]] = []
    for factor in budget_factors:
        budget = factor * threshold

        def budgeted_explorer(proc):
            remaining = budget
            position = proc.position
            yield Look()
            for stop in stops:
                hop = distance(position, stop)
                if hop > remaining + 1e-12:
                    break
                yield Move(stop)
                remaining -= hop
                position = stop
                yield Look()

        decoy = energy_ball(ell)
        coverage, _ = record_look_positions(decoy, budgeted_explorer)
        fraction = coverage_fraction(
            coverage, Point(0.0, 0.0), float(ell), resolution=resolution
        )
        rows.append(
            {
                "budget_factor": factor,
                "budget": budget,
                "threshold": threshold,
                "coverage": fraction,
                "adversary_hides": fraction < 1.0 - 1e-9,
            }
        )
    return rows
