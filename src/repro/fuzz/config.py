"""One fuzz job: a frozen scenario × world × algorithm configuration.

:class:`FuzzConfig` is the campaign's unit of work — the analogue of
:class:`~repro.core.runner.RunRequest` one level up.  It is picklable and
JSON-round-trippable (seed files are its ``as_dict`` plus the violation it
reproduces), validates eagerly against both registries at construction,
and rides the PR-6 sweep :class:`~repro.experiments.executors.Executor`
backends through the duck-typed ``execute_record()`` hook in
:func:`repro.experiments.harness.execute_request`: a settled fuzz job is a
JSON record of the invariant-check outcome, *including* any violations or
engine exceptions — domain failures are campaign data, never job errors.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from ..core.registry import get_algorithm
from ..core.runner import RunRequest

__all__ = ["FuzzConfig", "MODES"]

#: ``contract`` configs stay inside every algorithm's admissibility
#: contract (``ell >= ell_star`` where pinned, registered scenario
#: schemas) and are held to the full invariant set — wake completeness
#: included.  ``hostile`` configs deliberately step outside the contract
#: (e.g. an inadmissible ``ell``); the engine must still conserve energy,
#: respect reachability and terminate cleanly, but incomplete wakes are
#: legitimate there.
MODES = ("contract", "hostile")


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class FuzzConfig:
    """A single configuration under test.

    ``scenario_kwargs`` feed the scenario's generator, ``world_params``
    override its world model, ``params`` are algorithm parameters — all
    validated eagerly against the registered schemas (building the
    underlying :class:`RunRequest` at construction time is the check).
    """

    algorithm: str
    scenario: str
    scenario_kwargs: Mapping[str, Any] = field(default_factory=dict)
    world_params: Mapping[str, Any] = field(default_factory=dict)
    params: Mapping[str, Any] = field(default_factory=dict)
    mode: str = "contract"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(
            self, "scenario_kwargs", dict(self.scenario_kwargs)
        )
        object.__setattr__(self, "world_params", dict(self.world_params))
        object.__setattr__(self, "params", dict(self.params))
        self.request()  # eager validation against both registries

    # -- request construction ------------------------------------------------

    def request(self, trace: str = "events") -> RunRequest:
        """The runnable form of this config.

        ``trace="events"`` by default: the invariant layer needs the move
        and sweep events for energy conservation and the event-kind mix
        for the coverage signature.
        """
        return RunRequest(
            algorithm=self.algorithm,
            scenario=self.scenario,
            family_kwargs=dict(self.scenario_kwargs),
            world_params=dict(self.world_params),
            params=dict(self.params),
            trace=trace,
        )

    def sibling(self, algorithm: str, trace: str = "null") -> RunRequest:
        """The same workload under another algorithm (oracle runs).

        Parameters not in the target's schema are dropped — ``exact``
        takes no ``enforce_budget``, centralized solvers no ``solver``.
        """
        spec = get_algorithm(algorithm)
        allowed = {p.name for p in spec.params}
        params = {k: v for k, v in self.params.items() if k in allowed}
        return RunRequest(
            algorithm=algorithm,
            scenario=self.scenario,
            family_kwargs=dict(self.scenario_kwargs),
            world_params=dict(self.world_params),
            params=params,
            trace=trace,
        )

    # -- identity ------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "scenario": self.scenario,
            "scenario_kwargs": dict(sorted(self.scenario_kwargs.items())),
            "world_params": dict(sorted(self.world_params.items())),
            "params": dict(sorted(self.params.items())),
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FuzzConfig":
        return cls(
            algorithm=payload["algorithm"],
            scenario=payload["scenario"],
            scenario_kwargs=payload.get("scenario_kwargs", {}),
            world_params=payload.get("world_params", {}),
            params=payload.get("params", {}),
            mode=payload.get("mode", "contract"),
        )

    def config_id(self) -> str:
        """Stable content hash — seed filenames and dedup keys."""
        body = _canonical(self.as_dict())
        return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]

    def label(self) -> str:
        """Human-readable id; also the :class:`SweepJobError` label."""
        kwargs = ",".join(
            f"{k}={v}" for k, v in sorted(self.scenario_kwargs.items())
        )
        world = ",".join(f"{k}={v}" for k, v in sorted(self.world_params.items()))
        extra = "".join(f" {k}={v}" for k, v in sorted(self.params.items()))
        tail = f" world[{world}]" if world else ""
        hostile = " [hostile]" if self.mode == "hostile" else ""
        return (
            f"fuzz:{self.algorithm} {self.scenario}({kwargs}){tail}{extra}{hostile}"
        )

    # -- convenience ---------------------------------------------------------

    @property
    def n_hint(self) -> int | None:
        """Declared swarm size when the schema exposes one."""
        for key in ("n", "side"):
            if key in self.scenario_kwargs:
                value = int(self.scenario_kwargs[key])
                return value * value if key == "side" else value
        return None

    def replace(self, **changes: Any) -> "FuzzConfig":
        return replace(self, **changes)

    # -- executor hook -------------------------------------------------------

    def execute_record(self) -> dict[str, Any]:
        """Settle this config: run the invariant layer, return JSON data.

        This is the hook :func:`~repro.experiments.harness.execute_request`
        dispatches on, so fuzz jobs run on any registered executor backend
        (``serial``/``pool``/``async-local``) without touching them.
        """
        from .invariants import check_config

        return check_config(self).as_dict()
