"""Top-level entry points: run an algorithm on an instance.

These helpers wrap the full pipeline — build a world, spawn the source
process with the algorithm's program, run the engine to quiescence — and
return an :class:`AlgorithmRun` bundling the simulation result with the
inputs, so metrics and benchmarks have one uniform record type.

Which algorithms exist, what parameters they take and how their programs
are built all live in the registry (:mod:`repro.core.registry`); this
module only provides the uniform execution record
(:class:`AlgorithmRun`), the declarative job (:class:`RunRequest`, which
dispatches through the registry) and the raw :func:`run_program` plumbing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..instances import Instance, get_scenario, make_instance
from ..sim import NullTrace, SOURCE_ID, Engine, SimulationResult, Trace, WorldConfig
from ..sim.actions import Program
from .registry import get_algorithm

__all__ = [
    "AlgorithmRun",
    "RunRequest",
    "run_program",
    "run_algorithm",
    "run_aseparator",
    "run_agrid",
    "run_awave",
]


#: The family layout's dedicated parameter keys, in key order, with the
#: value :meth:`RunRequest.as_dict` writes when a request leaves one unset
#: — the layout every family-request cache key was minted under.
_FAMILY_SLOTS = {"ell": None, "rho": None, "enforce_budget": False, "solver": None}


@dataclass(frozen=True)
class AlgorithmRun:
    """One algorithm execution with its inputs and outcome."""

    algorithm: str
    instance: Instance
    ell: int
    rho: float
    result: SimulationResult

    @property
    def makespan(self) -> float:
        return self.result.makespan

    @property
    def woke_all(self) -> bool:
        return self.result.woke_all

    @property
    def max_energy(self) -> float:
        return self.result.max_energy

    def summary(self) -> str:
        return (
            f"{self.algorithm} on {self.instance.name}: "
            f"ell={self.ell} rho={self.rho:g} -> {self.result.summary()}"
        )


@dataclass(frozen=True)
class RunRequest:
    """Declarative, picklable description of one algorithm run.

    A request carries only plain data — algorithm and workload *names*
    plus keyword arguments — so it can cross process boundaries (the sweep
    harness ships requests to worker processes) and be hashed
    into a stable cache key (:mod:`repro.experiments.cache`).  Executing
    the same request twice is deterministic: instance generation is
    seeded, world-model assignment is seeded, and the engine is
    event-ordered.

    The workload is named one of two ways:

    * ``scenario=`` — a registered
      :class:`~repro.instances.ScenarioSpec`: ``family_kwargs`` holds the
      generator arguments (validated against the scenario's declared
      schema) and ``world_params`` optionally overrides fields of the
      scenario's :class:`~repro.sim.WorldConfig`;
    * ``family=`` — the pre-scenario compat shim: the classic generator
      under the default (paper) world, with :meth:`as_dict` and cache
      keys byte-identical to pre-redesign requests.

    Algorithm parameters go in ``params``, validated at construction time
    against the registered :class:`~repro.core.registry.AlgorithmSpec`
    schema.  For family requests, ``ell``/``rho``/``enforce_budget``/
    ``solver`` keep their pre-registry slots in :meth:`as_dict`.
    """

    algorithm: str
    family: str = ""
    family_kwargs: Mapping[str, Any] = field(default_factory=dict)
    collect: str = "summary"         # "summary" | "phases"
    params: Mapping[str, Any] = field(default_factory=dict)
    scenario: str | None = None
    world_params: Mapping[str, Any] = field(default_factory=dict)
    #: Trace sink for the run — pure observability, never part of the
    #: request's identity (excluded from :meth:`as_dict`, so cache keys
    #: are unchanged for any value):
    #:
    #: * ``"auto"``  — counters-only :class:`~repro.sim.NullTrace` for
    #:   ``collect="summary"`` (the sweep default: summaries only read
    #:   the snapshot counter), full event trace for ``"phases"``;
    #: * ``"null"``  — always the counters-only sink;
    #: * ``"events"``— always a full event trace (no look retention);
    #: * ``"full"``  — event trace including every ``look`` event.
    trace: str = "auto"

    def __post_init__(self) -> None:
        if self.collect not in ("summary", "phases"):
            raise ValueError(f"unknown collect mode {self.collect!r}")
        if self.trace not in ("auto", "null", "events", "full"):
            raise ValueError(
                f"unknown trace mode {self.trace!r}; choose from "
                "('auto', 'null', 'events', 'full')"
            )
        if self.collect == "phases" and self.trace == "null":
            raise ValueError(
                "collect='phases' needs trace events; drop trace='null' "
                "(the 'auto' default already keeps events for phase runs)"
            )
        if self.scenario is not None:
            if self.family:
                raise ValueError(
                    "a request names its workload once: pass scenario= or "
                    "family=, not both"
                )
            # Resolve the scenario (raises on unknown name), validate the
            # generator kwargs against its declared schema and the world
            # overrides against WorldConfig's fields.
            spec = get_scenario(self.scenario)
            spec.validate_params(self.family_kwargs)
            spec.world_config(self.world_params)
        else:
            if not self.family:
                raise ValueError("a request needs a scenario= or family= workload")
            if self.world_params:
                raise ValueError(
                    "world_params requires scenario=; the family= compat "
                    "path always runs the default world"
                )
        # Resolve the spec (raises on unknown algorithm) and validate the
        # merged parameters against its schema, so a bad request fails at
        # construction — before it reaches a worker pool or the cache.
        self.resolved_params()

    def resolved_params(self) -> dict[str, Any]:
        """``params`` validated against the spec schema.

        Sorted-key dict of everything the caller pinned (``None`` values
        mean *unset* and are dropped; defaults are applied at build time).
        """
        return get_algorithm(self.algorithm).validate_params(self.params)

    @property
    def workload(self) -> str:
        """The workload name: the scenario when set, else the family."""
        return self.scenario if self.scenario is not None else self.family

    def instance(self) -> Instance:
        if self.scenario is not None:
            return get_scenario(self.scenario).make(**dict(self.family_kwargs))
        return make_instance(self.family, **dict(self.family_kwargs))

    def world_config(self) -> WorldConfig | None:
        """The run's world model: the scenario's config with this
        request's overrides, or ``None`` (default world) for family runs."""
        if self.scenario is None:
            return None
        return get_scenario(self.scenario).world_config(self.world_params)

    def as_dict(self) -> dict[str, Any]:
        """Plain-data view (stable key order) for hashing and labels.

        Family requests keep the exact pre-redesign layout: the four
        pre-registry parameters hold their dedicated keys — byte-stable
        with pre-registry cache entries; any other algorithm parameter
        lands under ``"params"`` (absent when empty, so the key of an
        unchanged request never moves).  Scenario requests use a fresh
        layout (no dedicated slots: everything pinned sits under
        ``"params"``) — a new cache namespace with nothing to stay
        compatible with.
        """
        merged = self.resolved_params()
        if self.scenario is not None:
            payload: dict[str, Any] = {
                "algorithm": self.algorithm,
                "scenario": self.scenario,
                "scenario_kwargs": dict(sorted(dict(self.family_kwargs).items())),
                "world_params": dict(sorted(dict(self.world_params).items())),
                "collect": self.collect,
            }
            if merged:
                payload["params"] = merged
            return payload
        slots = {name: merged.pop(name, unset) for name, unset in _FAMILY_SLOTS.items()}
        payload = {
            "algorithm": self.algorithm,
            "family": self.family,
            "family_kwargs": dict(sorted(dict(self.family_kwargs).items())),
            **slots,
            "collect": self.collect,
        }
        if merged:
            payload["params"] = merged
        return payload

    def label(self) -> str:
        kwargs = ",".join(f"{k}={v}" for k, v in sorted(dict(self.family_kwargs).items()))
        world = ",".join(
            f"{k}={v}" for k, v in sorted(dict(self.world_params).items())
        )
        extra = "".join(
            f" {name}={value}" for name, value in self.resolved_params().items()
        )
        tail = f" world[{world}]" if world else ""
        return f"{self.algorithm} {self.workload}({kwargs}){tail}{extra}"

    def make_trace(self) -> Trace:
        """The trace sink selected by the ``trace`` knob."""
        if self.trace == "null" or (self.trace == "auto" and self.collect != "phases"):
            return NullTrace()
        if self.trace == "full":
            return Trace(keep_looks=True)
        return Trace()

    def execute(self, trace: Trace | None = None) -> AlgorithmRun:
        """Run the request in this process and return the full result.

        An explicit ``trace`` argument overrides the request's ``trace``
        knob; by default the knob picks the sink (counters-only for
        summary sweeps — the result's trace is reachable via
        ``run.result.trace``).
        """
        spec = get_algorithm(self.algorithm)
        return spec.run(
            self.instance(),
            self.resolved_params(),
            world=self.world_config(),
            trace=trace if trace is not None else self.make_trace(),
        )


def run_program(
    instance: Instance,
    program: Program,
    algorithm: str,
    ell: int,
    rho: float,
    budget: float = math.inf,
    trace: Trace | None = None,
    world: WorldConfig | None = None,
) -> AlgorithmRun:
    """Run ``program`` as the source process on a fresh world.

    ``world`` selects the world model (speeds, visibility, budgets,
    failure injection; the paper's world when omitted); ``budget`` is the
    algorithm's enforced per-robot cap and composes with the model's own
    budgets (both apply).
    """
    sim_world = instance.world((world or WorldConfig()).with_budget_cap(budget))
    engine = Engine(sim_world, trace=trace)
    engine.spawn(program, robot_ids=[SOURCE_ID])
    result = engine.run()
    return AlgorithmRun(
        algorithm=algorithm,
        instance=instance,
        ell=ell,
        rho=rho,
        result=result,
    )


def run_algorithm(
    algorithm: str,
    instance: Instance,
    params: Mapping[str, Any] | None = None,
    trace: Trace | None = None,
) -> AlgorithmRun:
    """Run any registered algorithm (distributed or centralized baseline)."""
    return get_algorithm(algorithm).run(instance, params, trace=trace)


def run_aseparator(
    instance: Instance,
    ell: int | None = None,
    rho: float | None = None,
    trace: Trace | None = None,
) -> AlgorithmRun:
    """Run ``ASeparator`` (Theorem 1) with inputs ``(ell, rho)``.

    Defaults follow the paper's convention: the tightest admissible
    integral upper bounds on the instance's true parameters.
    """
    return run_algorithm(
        "aseparator", instance, {"ell": ell, "rho": rho}, trace=trace
    )


def run_agrid(
    instance: Instance,
    ell: int | None = None,
    trace: Trace | None = None,
    enforce_budget: bool = False,
) -> AlgorithmRun:
    """Run ``AGrid`` (Theorem 4); only ``ell`` is needed (Section 5).

    With ``enforce_budget`` the engine hard-fails any robot exceeding the
    theorem's ``O(ell^2)`` energy budget (with this implementation's
    constant, :func:`repro.core.agrid.agrid_energy_budget`).
    """
    return run_algorithm(
        "agrid", instance, {"ell": ell, "enforce_budget": enforce_budget},
        trace=trace,
    )


def run_awave(
    instance: Instance,
    ell: int | None = None,
    trace: Trace | None = None,
    enforce_budget: bool = False,
) -> AlgorithmRun:
    """Run ``AWave`` (Theorem 5); only ``ell`` is needed."""
    return run_algorithm(
        "awave", instance, {"ell": ell, "enforce_budget": enforce_budget},
        trace=trace,
    )
