"""Experiments reproducing Figures 1, 2, 4 and 5 of the paper.

Figures 1-3 are schematics of ``ASeparator``'s phases; we reproduce them
as measured *phase timelines* extracted from annotated traces.  Figure 4
depicts the exploration procedure; we reproduce its Lemma 1 scaling.
Figure 5 is the lower-bound construction; we build it, verify its stated
properties, and measure an algorithm against the adversary.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..core.aseparator import aseparator_program
from ..core.explore import explore_rect_team, exploration_time_bound
from ..core.runner import run_aseparator
from ..geometry import Point, Rect, connectivity_threshold
from ..instances import (
    Instance,
    adversarial_grid_instance,
    grid_of_disks,
)
from ..sim import SOURCE_ID, Engine, Trace, World

__all__ = [
    "phase_timeline",
    "phase_durations_by_label",
    "exploration_scaling",
    "lower_bound_experiment",
]


# ---------------------------------------------------------------------------
# FIG1 / FIG2 / FIG3: ASeparator phase structure
# ---------------------------------------------------------------------------

def phase_timeline(
    instance: Instance,
    ell: int | None = None,
    rho: float | None = None,
) -> list[dict[str, Any]]:
    """Per-phase intervals of one annotated ``ASeparator`` run.

    Rows: phase label, process, start, end, duration — the measured
    counterpart of the Figure 1/2 storyboards.
    """
    trace = Trace()
    run = run_aseparator(instance, ell=ell, rho=rho, trace=trace)
    rows = [
        {
            "label": iv.label,
            "process": iv.process_id,
            "start": iv.start,
            "end": iv.end,
            "duration": iv.duration,
        }
        for iv in trace.phases(label_prefix="asep:")
    ]
    rows.append(
        {
            "label": "TOTAL(makespan)",
            "process": -1,
            "start": 0.0,
            "end": run.makespan,
            "duration": run.makespan,
        }
    )
    return rows


def phase_durations_by_label(
    instance: Instance, ell: int | None = None, rho: float | None = None
) -> dict[str, float]:
    """Total time per phase label (Fig 1/2 summary)."""
    totals: dict[str, float] = {}
    for row in phase_timeline(instance, ell, rho):
        totals[row["label"]] = totals.get(row["label"], 0.0) + row["duration"]
    return totals


# ---------------------------------------------------------------------------
# FIG4: exploration procedure scaling (Lemma 1)
# ---------------------------------------------------------------------------

def exploration_scaling(
    shapes: Sequence[tuple[float, float]],
    team_sizes: Sequence[int],
) -> list[dict[str, Any]]:
    """Measured team-exploration time vs the ``w*h/k + w + h`` bound.

    Spawns ``k`` co-located robots exploring each ``w x h`` rectangle and
    reports measured wall-clock (simulated) duration, the Lemma 1 feature
    and their ratio — flat ratios confirm the bound's shape.
    """
    rows: list[dict[str, Any]] = []
    for (w, h) in shapes:
        for k in team_sizes:
            duration = _measure_team_exploration(w, h, k)
            feature = w * h / k + w + h
            rows.append(
                {
                    "w": w,
                    "h": h,
                    "k": k,
                    "time": duration,
                    "wh/k+w+h": feature,
                    "ratio": duration / feature,
                    "bound": exploration_time_bound(w, h, k),
                }
            )
    return rows


def _measure_team_exploration(w: float, h: float, k: int) -> float:
    """Simulate a k-robot exploration of an empty ``w x h`` rectangle."""
    # A world of k awake robots: the source plus k-1 pre-woken helpers.
    world = World(source=Point(0.0, 0.0), positions=[Point(0.0, 0.0)] * (k - 1))
    for rid in range(1, k):
        world.mark_awake(rid, 0.0, waker_id=SOURCE_ID)
    rect = Rect(0.0, 0.0, w, h)

    def program(proc):
        yield from explore_rect_team(
            proc, rect, meet_at=rect.lower_left, barrier_key=("fig4", w, h, k)
        )

    engine = Engine(world)
    engine.spawn(program, robot_ids=list(range(k)))
    result = engine.run()
    return result.termination_time


# ---------------------------------------------------------------------------
# FIG5: lower-bound construction + adversary
# ---------------------------------------------------------------------------

def lower_bound_experiment(
    ells: Sequence[int],
    rho_factor: float = 4.0,
    resolution: int = 3,
) -> list[dict[str, Any]]:
    """Build Thm 2 grids, pin robots adversarially, run ``ASeparator``.

    Rows carry the construction's properties (``|C|`` vs the Lemma 12
    floor, ``ell``-connectivity) and the measured makespans on the decoy
    (centers) vs the adversarial placement, against the telescoped
    ``Ω(ell^2 log m + rho)`` prediction.
    """
    rows: list[dict[str, Any]] = []
    for ell in ells:
        rho = rho_factor * ell
        construction = grid_of_disks(ell=ell, rho=rho, n=10_000)
        decoy = construction.instance()
        ell_star = connectivity_threshold(decoy.source, decoy.positions)

        def program_factory(inst: Instance):
            return aseparator_program(ell=int(ell), rho=float(rho))

        adversarial = adversarial_grid_instance(
            construction, program_factory, resolution=resolution
        )
        decoy_run = run_aseparator(decoy, ell=int(ell), rho=float(rho))
        adv_run = run_aseparator(adversarial, ell=int(ell), rho=float(rho))
        prediction = construction.makespan_lower_bound()
        rows.append(
            {
                "ell": ell,
                "rho": rho,
                "m": construction.m,
                "m_floor(1+rho^2/ell^2)": 1 + (rho / ell) ** 2,
                "ell_star": ell_star,
                "connected": ell_star <= ell + 1e-9,
                "decoy_makespan": decoy_run.makespan,
                "adversarial_makespan": adv_run.makespan,
                "omega_prediction": prediction,
                "adv/omega": adv_run.makespan / prediction,
                "woke_all": decoy_run.woke_all and adv_run.woke_all,
            }
        )
    return rows
