"""Built-in algorithm registrations: distributed + centralized baselines.

Loaded lazily by :mod:`repro.core.registry` on first lookup.  Each entry
is a :func:`~repro.core.registry.register_algorithm`-decorated factory
returning a :class:`~repro.core.registry.RunSetup`; the heavy program
modules are imported inside the factories so registry import stays cheap.

Distributed algorithms (the paper's Section 5/6):

* ``aseparator`` — Theorem 1, inputs ``(ell, rho)``, optional centralized
  termination-solver override (the Lemma 2 ablation knob);
* ``agrid`` — Theorem 4, input ``ell``, enforceable ``Θ(ell^2)`` budget;
* ``awave`` — Theorem 5, input ``ell``, enforceable ``Θ(ell^2 log ell)``
  budget.

Centralized baselines (clairvoyant, in the spirit of Arkin et al.'s
original Freeze-Tag work): each wraps a schedule solver from
:mod:`repro.centralized` in the schedule→program adapter
(:func:`~repro.core.wakeup.schedule_program`), so the *executed* makespan
and energy come out of the same engine as the distributed runs.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from ..centralized import (
    chain_schedule,
    exact_schedule,
    greedy_schedule,
    online_greedy_schedule,
    quadtree_schedule,
)
from ..geometry import Point
from ..instances import Instance
from ..sim import WorldConfig
from .registry import ParamSpec, RunSetup, register_algorithm

__all__ = ["SCHEDULE_SOLVERS", "ASEPARATOR_SOLVERS"]

#: Solver names admissible as ``ASeparator``'s termination override — the
#: subset of schedule solvers satisfying the Lemma 2 role (makespan that
#: scales with the region, or at least a valid wake tree).
ASEPARATOR_SOLVERS = ("quadtree", "greedy", "chain")

_ELL = ParamSpec(
    "ell", int, doc="connectivity input (default: instance ceil(ell*))"
)
_RHO_LABEL = ParamSpec(
    "rho", float,
    doc="radius label recorded on the run (default: instance ceil(rho*)); "
        "pin it together with ell to skip parameter estimation at scale",
)
_ENFORCE = ParamSpec(
    "enforce_budget", bool, default=False,
    doc="hard-fail any robot exceeding the theorem's energy budget",
)
_ENFORCE_NOOP = ParamSpec(
    "enforce_budget", bool, default=False,
    doc="ignored (Thm 1 proves no energy budget); accepted so "
        "pre-registry sweeps crossing the flag keep expanding",
)


def _default_inputs(instance: Instance, params: Mapping[str, Any]) -> tuple[int, float]:
    ell = params.get("ell")
    rho = params.get("rho")
    if ell is None or rho is None:
        # Defaults require the instance parameters (rho*, ell*), and the
        # connectivity threshold behind ell* is the single most expensive
        # preprocessing step at large n — skip it entirely when the caller
        # pinned both inputs (the scale benches always do).
        d_ell, d_rho = instance.default_inputs()
        if ell is None:
            ell = d_ell
        if rho is None:
            rho = d_rho
    return ell, float(rho)


def _agrid_budget(ell: int) -> float:
    from .agrid import agrid_energy_budget

    return agrid_energy_budget(ell)


def _awave_budget(ell: int) -> float:
    from .awave import awave_energy_budget

    return awave_energy_budget(ell)


# ---------------------------------------------------------------------------
# Distributed algorithms
# ---------------------------------------------------------------------------

@register_algorithm(
    name="aseparator",
    label="ASeparator",
    kind="distributed",
    params=(
        _ELL,
        ParamSpec("rho", float, doc="radius input (default: instance ceil(rho*))"),
        ParamSpec(
            "solver", str, choices=ASEPARATOR_SOLVERS,
            doc="centralized termination solver (Lemma 2 ablation)",
        ),
        _ENFORCE_NOOP,
    ),
    needs_rho=True,
    description="Thm 1: makespan O(rho + ell^2 log(rho/ell)), unbounded energy",
)
def _build_aseparator(instance: Instance, params: Mapping[str, Any]) -> RunSetup:
    from .aseparator import aseparator_program

    ell, rho = _default_inputs(instance, params)
    solver_name = params.get("solver")
    if solver_name is None:
        return RunSetup(
            program=aseparator_program(ell=ell, rho=rho),
            label="ASeparator", ell=ell, rho=rho,
        )
    return RunSetup(
        program=aseparator_program(
            ell=ell, rho=rho, solver=SCHEDULE_SOLVERS[solver_name]
        ),
        label=f"ASeparator[{solver_name}]", ell=ell, rho=rho,
    )


@register_algorithm(
    name="agrid",
    label="AGrid",
    kind="distributed",
    params=(_ELL, _RHO_LABEL, _ENFORCE),
    energy_budget=_agrid_budget,
    supports_budget=True,
    world_aware=True,
    description="Thm 4: makespan O(ell * xi), optimal Θ(ell^2) energy",
)
def _build_agrid(
    instance: Instance,
    params: Mapping[str, Any],
    world: "WorldConfig | None" = None,
) -> RunSetup:
    from .agrid import agrid_energy_budget, agrid_program

    ell, rho = _default_inputs(instance, params)
    budget = agrid_energy_budget(ell) if params.get("enforce_budget") else float("inf")
    # World-aware calibration: stretch the windows by the world's speed
    # floor, and elect leaders by presence when wakes can crash.
    speed_floor = 1.0 if world is None else world.min_speed()
    crash_aware = world is not None and world.crash_on_wake > 0.0
    return RunSetup(
        program=agrid_program(
            ell=ell, speed_floor=speed_floor, crash_aware=crash_aware
        ),
        label="AGrid",
        ell=ell, rho=rho, budget=budget,
    )


@register_algorithm(
    name="awave",
    label="AWave",
    kind="distributed",
    params=(_ELL, _RHO_LABEL, _ENFORCE),
    energy_budget=_awave_budget,
    supports_budget=True,
    world_aware=True,
    description="Thm 5: makespan O(xi + ell^2 log(xi/ell)), Θ(ell^2 log ell) energy",
)
def _build_awave(
    instance: Instance,
    params: Mapping[str, Any],
    world: "WorldConfig | None" = None,
) -> RunSetup:
    return _awave_setup(instance, params, world, with_frontier=True)


@register_algorithm(
    name="legacy_awave",
    label="AWave[legacy]",
    kind="distributed",
    params=(_ELL, _RHO_LABEL, _ENFORCE),
    energy_budget=_awave_budget,
    supports_budget=True,
    world_aware=True,
    description="pre-frontier AWave (per-stop walks) — differential-test reference",
)
def _build_legacy_awave(
    instance: Instance,
    params: Mapping[str, Any],
    world: "WorldConfig | None" = None,
) -> RunSetup:
    return _awave_setup(instance, params, world, with_frontier=False)


def _awave_setup(
    instance: Instance,
    params: Mapping[str, Any],
    world: "WorldConfig | None",
    with_frontier: bool,
) -> RunSetup:
    """Shared AWave builder: ``awave`` and ``legacy_awave`` must derive
    every input identically — they differ *only* in the frontier — or the
    differential-testing contract between them silently erodes."""
    from .awave import awave_energy_budget, awave_program

    ell, rho = _default_inputs(instance, params)
    budget = awave_energy_budget(ell) if params.get("enforce_budget") else float("inf")
    speed_floor = 1.0 if world is None else world.min_speed()
    if with_frontier:
        # The sparse wave frontier: a static oracle over the instance's
        # initial positions that lets the wave sweep through exploration
        # stretches whose snapshots provably contain no sleeping robot.
        # Same makespans, wake orders and energies as ``legacy_awave`` —
        # the differential suite pins that.
        from ..geometry import frontier_for
        from ..sim import VISIBILITY_RADIUS

        visibility = (
            VISIBILITY_RADIUS if world is None else world.visibility_radius
        )
        frontier = frontier_for(instance.positions, visibility)
        label = "AWave"
    else:
        frontier = None
        label = "AWave[legacy]"
    return RunSetup(
        program=awave_program(
            ell=ell, speed_floor=speed_floor, frontier=frontier
        ),
        label=label,
        ell=ell, rho=rho, budget=budget,
    )


# ---------------------------------------------------------------------------
# Centralized baselines (via the schedule→program adapter)
# ---------------------------------------------------------------------------

#: Schedule solvers by canonical name (used both by the centralized
#: baseline registrations below and by ``aseparator``'s solver override).
SCHEDULE_SOLVERS: dict[str, Callable[..., Any]] = {
    "greedy": greedy_schedule,
    "quadtree": quadtree_schedule,
    "chain": chain_schedule,
    "exact": exact_schedule,
    "online_greedy": online_greedy_schedule,
}


def _baseline_build(solver_name: str) -> Callable[[Instance, Mapping[str, Any]], RunSetup]:
    def build(instance: Instance, params: Mapping[str, Any]) -> RunSetup:
        from .wakeup import schedule_program

        solver = SCHEDULE_SOLVERS[solver_name]
        positions: Sequence[Point] = list(instance.positions)
        schedule = solver(instance.source, positions)
        ell, rho = _default_inputs(instance, params)
        return RunSetup(
            program=schedule_program(schedule),
            label=f"Centralized[{solver_name}]", ell=ell, rho=rho,
        )

    return build


_BASELINES: tuple[tuple[str, int | None, str], ...] = (
    ("greedy", None, "earliest-completion-first list scheduling [ABF+06 spirit]"),
    ("quadtree", None, "certified O(R) recursive quadtree (Lemma 2 workhorse)"),
    ("chain", None, "no-branching nearest-neighbor tour (straw man)"),
    ("exact", 9, "branch-and-bound optimum (NP-hard: tiny n only)"),
    ("online_greedy", None, "event-driven online dispatcher at zero release times"),
)

for _name, _max_n, _description in _BASELINES:
    register_algorithm(
        name=_name,
        label=f"Centralized[{_name}]",
        kind="centralized",
        params=(_ELL, _RHO_LABEL),
        max_n=_max_n,
        description=f"clairvoyant baseline: {_description}",
    )(_baseline_build(_name))
