"""Instance specification: a source plus sleeping-robot positions.

An :class:`Instance` is the immutable problem input ``(P, s)`` of the
paper.  It computes its own parameters (``rho_star``, ``ell_star``,
``xi_ell``), validates admissibility, and manufactures fresh
:class:`~repro.sim.World` objects for simulation runs (worlds are mutable;
instances are not).

Generator families live in :mod:`repro.instances.families` and
:mod:`repro.instances.lower_bounds`; this module only defines the
container and its invariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from ..geometry import (
    InstanceParameters,
    Point,
    connectivity_threshold,
    ell_eccentricity,
    instance_parameters,
    radius,
)
from ..sim import World, WorldConfig

__all__ = ["Instance"]


@dataclass(frozen=True)
class Instance:
    """An immutable dFTP instance ``(P, s)``."""

    positions: tuple[Point, ...]
    source: Point = Point(0.0, 0.0)
    name: str = "instance"

    @staticmethod
    def build(
        positions: Iterable[Sequence[float]],
        source: Sequence[float] = (0.0, 0.0),
        name: str = "instance",
    ) -> "Instance":
        """Normalize arbitrary coordinate pairs into an instance."""
        pts = tuple(Point(float(x), float(y)) for x, y in positions)
        return Instance(positions=pts, source=Point(*map(float, source)), name=name)

    # -- basic facts ----------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.positions)

    @cached_property
    def rho_star(self) -> float:
        return radius(self.source, self.positions)

    @cached_property
    def ell_star(self) -> float:
        return connectivity_threshold(self.source, self.positions)

    def xi(self, ell: float) -> float:
        """``ell``-eccentricity of the source (``inf`` when disconnected)."""
        return ell_eccentricity(self.source, self.positions, ell)

    def parameters(self, ell: float | None = None) -> InstanceParameters:
        return instance_parameters(self.source, self.positions, ell)

    # -- algorithm inputs --------------------------------------------------
    def default_inputs(self, slack: float = 1.0) -> tuple[int, int]:
        """Integral ``(ell, rho)`` the paper would hand the algorithms.

        ``ell = ceil(ell_star * slack)`` and ``rho = ceil(rho_star * slack)``
        clipped to admissibility (``ell <= rho``).
        """
        ell = max(1, math.ceil(self.ell_star * slack))
        rho = max(ell, math.ceil(self.rho_star * slack))
        return ell, rho

    # -- simulation --------------------------------------------------------
    def world(self, config: WorldConfig | None = None) -> World:
        """A fresh mutable world for one simulation run.

        ``config`` is the full world model (speeds, visibility, budgets,
        failure injection); omitted, it is the paper's world.
        """
        return World(source=self.source, positions=list(self.positions), config=config)

    # -- misc --------------------------------------------------------------
    def translated(self, dx: float, dy: float) -> "Instance":
        delta = Point(dx, dy)
        return Instance(
            positions=tuple(p + delta for p in self.positions),
            source=self.source + delta,
            name=f"{self.name}+({dx},{dy})",
        )

    def __repr__(self) -> str:
        return (
            f"Instance({self.name!r}, n={self.n}, "
            f"rho*={self.rho_star:.2f}, ell*={self.ell_star:.2f})"
        )
