"""Scenario registry: one pluggable workload API — families × world models.

The algorithm registry (:mod:`repro.core.registry`) made the *solver* side
of a run pluggable; this module is its workload-side twin.  A *scenario*
is a registered :class:`ScenarioSpec`:

* a canonical ``name`` (the key used by
  :class:`~repro.core.runner.RunRequest`, sweep specs, the CLI and the
  cache),
* an instance *generator* with a typed parameter schema
  (:class:`~repro.params.ParamSpec`) — declared metadata, not
  ``inspect.signature`` sniffing,
* a :class:`~repro.sim.WorldConfig` world model (speed profile, energy
  budgets, visibility radius, failure injection) that every run of the
  scenario executes under, overridable per-request through validated
  ``world_params``.

Every classic instance family is registered as a scenario with the default
(paper) world, so ``scenario="uniform_disk"`` and the legacy
``family="uniform_disk"`` path build identical instances; derived
scenarios attach non-default worlds ("20% slow robots", "crash-on-wake")
to the same generators.  Built-ins register in
:mod:`repro.instances.catalog` (imported lazily on first lookup); external
code adds new ones with the :func:`register_scenario` decorator::

    @register_scenario(
        name="foggy_disk", label="Disk in fog", family="uniform_disk",
        params=(ParamSpec("n", int), ParamSpec("rho", float),
                ParamSpec("seed", int, default=0)),
        world=WorldConfig(visibility_radius=0.5),
    )
    def _build_foggy(n, rho, seed=0):
        return uniform_disk(n=n, rho=rho, seed=seed)

After registration the scenario is immediately sweepable, cacheable and
listed by ``freezetag scenarios`` — no engine, harness or CLI changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..params import ParamSpec, lookup_param, validate_param_mapping
from ..sim import WorldConfig
from .spec import Instance

__all__ = [
    "ScenarioSpec",
    "register_scenario",
    "unregister_scenario",
    "get_scenario",
    "scenario_names",
    "iter_scenarios",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """A registered workload: generator schema plus world model."""

    name: str
    label: str
    build: Callable[..., Instance]    # generator, called with validated kwargs
    params: tuple[ParamSpec, ...] = ()
    world: WorldConfig = WorldConfig()
    #: Name of the base generator family (CLI flag mapping, aggregation).
    family: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        names = [p.name for p in self.params]
        if len(names) != len(set(names)):
            raise ValueError(f"scenario {self.name!r} has duplicate parameter names")
        if not self.family:
            object.__setattr__(self, "family", self.name)

    # -- schema ------------------------------------------------------------
    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    @property
    def accepts_seed(self) -> bool:
        """Whether the generator is seeded (declared, not sniffed): sweeps
        run seeded scenarios once per seed, deterministic ones once."""
        return "seed" in self.param_names

    def param(self, name: str) -> ParamSpec:
        return lookup_param(self.params, name, f"scenario {self.name!r}")

    def validate_params(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Validate generator kwargs against the schema (sorted-key dict);
        unknown names and type/choice mismatches raise ``ValueError``."""
        return validate_param_mapping(
            self.params, params, f"scenario {self.name!r}"
        )

    # -- building ----------------------------------------------------------
    def make(self, **kwargs: Any) -> Instance:
        """Build the scenario's instance from validated generator kwargs."""
        return self.build(**self.validate_params(kwargs))

    def world_config(self, overrides: Mapping[str, Any] | None = None) -> WorldConfig:
        """The scenario's world model with ``overrides`` applied."""
        if not overrides:
            return self.world
        return self.world.replace(**dict(overrides))

    # -- listing -----------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """Machine-readable registry entry — the same facts the
        ``freezetag scenarios`` listing prints, for ``--json`` and the
        service's ``GET /scenarios``."""
        return {
            "name": self.name,
            "label": self.label,
            "family": self.family,
            "accepts_seed": self.accepts_seed,
            "description": self.description,
            "world": self.world.as_dict(),
            "params": [p.as_dict() for p in self.params],
        }

    def describe(self) -> str:
        """One line for the ``freezetag scenarios`` listing."""
        schema = ", ".join(p.describe() for p in self.params) or "-"
        return (
            f"{self.name:<20} {self.label:<26} "
            f"{self.world.describe():<34} {schema}"
        )


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, ScenarioSpec] = {}
_builtins_loaded = False
_builtins_loading = False


def _ensure_builtins() -> None:
    """Load the built-in registrations exactly once, lazily.

    Mirrors the algorithm registry's discipline: the loaded flag is only
    set on *success*, and a failed catalog import rolls back its partial
    registrations so a later lookup retries cleanly.
    """
    global _builtins_loaded, _builtins_loading
    if _builtins_loaded or _builtins_loading:
        return
    _builtins_loading = True
    before = set(_REGISTRY)
    try:
        from . import catalog  # noqa: F401  (imported for its registrations)
    except BaseException:
        for name in set(_REGISTRY) - before:
            del _REGISTRY[name]
        raise
    finally:
        _builtins_loading = False
    _builtins_loaded = True


def register_scenario(
    *,
    name: str,
    label: str,
    params: tuple[ParamSpec, ...] = (),
    world: WorldConfig | None = None,
    family: str = "",
    description: str = "",
) -> Callable:
    """Decorator registering a ``build(**kwargs) -> Instance`` generator as
    scenario ``name``.  Returns the generator unchanged.

    Duplicate names are rejected — a scenario's name is its identity in
    sweep specs and cache keys, so silently replacing one would repoint
    existing artifacts at different workloads.
    """

    def decorator(build: Callable[..., Instance]):
        spec = ScenarioSpec(
            name=name,
            label=label,
            build=build,
            params=params,
            world=world if world is not None else WorldConfig(),
            family=family,
            description=description,
        )
        if spec.name in _REGISTRY:
            raise ValueError(f"scenario {spec.name!r} is already registered")
        _REGISTRY[spec.name] = spec
        return build

    return decorator


def unregister_scenario(name: str) -> None:
    """Remove a registration (test/plugin teardown hook)."""
    _REGISTRY.pop(name, None)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a spec by canonical name (``ValueError`` when unknown)."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None


def scenario_names() -> tuple[str, ...]:
    """Registered names in registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY)


def iter_scenarios() -> tuple[ScenarioSpec, ...]:
    """Registered specs in registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY.values())
