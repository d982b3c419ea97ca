"""Uniform run summaries for tables and CSV export.

Instance parameters (``rho_star``, ``ell_star``, ``xi_ell``) are memoized
per workload: a sweep produces many records of the same (family, kwargs)
point — one per algorithm and parameter combination — but each record's
run re-creates its :class:`~repro.instances.Instance` from scratch, so
the per-object ``cached_property`` never helps across records and the
disk-graph connectivity threshold (the most expensive preprocessing at
scale) used to be rebuilt *per record*.  The memo below is keyed by the
generated geometry itself (source + positions tuple — a deterministic
generator makes this exactly one entry per (family, kwargs) point), so
summary collection does one disk-graph build per sweep family and stays
scale-free at large ``n``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any

from ..core.runner import AlgorithmRun
from ..geometry import Point
from ..instances import Instance
from .curves import wake_curve

__all__ = ["RunSummary", "summarize", "instance_summary_parameters"]

#: Workload-geometry -> {"rho_star", "ell_star", "xi": {ell: xi_ell}}.
#: Bounded: a sweep touches a handful of workloads, but a long-lived
#: process (notebook, service) must not accumulate position tuples forever.
_PARAM_MEMO: dict[tuple[Point, tuple[Point, ...]], dict[str, Any]] = {}
_PARAM_MEMO_MAX = 16


def instance_summary_parameters(
    inst: Instance, ell: float
) -> tuple[float, float, float]:
    """``(rho_star, ell_star, xi_ell)`` with the per-workload memo.

    Keyed by the instance's exact geometry (collision-proof: the tuple
    *is* the workload), so repeated records of one sweep point — fresh
    ``Instance`` objects with identical positions — pay for the disk
    graph once.
    """
    key = (inst.source, inst.positions)
    entry = _PARAM_MEMO.get(key)
    if entry is None:
        if len(_PARAM_MEMO) >= _PARAM_MEMO_MAX:
            _PARAM_MEMO.pop(next(iter(_PARAM_MEMO)))
        entry = _PARAM_MEMO[key] = {
            "rho_star": inst.rho_star,
            "ell_star": inst.ell_star,
            "xi": {},
        }
    xi = entry["xi"].get(ell)
    if xi is None:
        xi = entry["xi"][ell] = inst.xi(ell)
    return entry["rho_star"], entry["ell_star"], xi


@dataclass(frozen=True)
class RunSummary:
    """Flat record of one run — ready for CSV rows and printed tables."""

    algorithm: str
    instance: str
    n: int
    ell: int
    rho: float
    rho_star: float
    ell_star: float
    xi_ell: float
    makespan: float
    half_wake_time: float     # time to wake 50% of the swarm
    termination_time: float
    max_energy: float
    total_energy: float
    snapshots: int
    woke_all: bool

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)

    @property
    def makespan_per_rho(self) -> float:
        return self.makespan / self.rho_star if self.rho_star > 0 else math.inf


def summarize(run: AlgorithmRun) -> RunSummary:
    """Flatten an :class:`AlgorithmRun` into a :class:`RunSummary` record."""
    inst = run.instance
    curve = wake_curve(run.result)
    rho_star, ell_star, xi_ell = instance_summary_parameters(inst, run.ell)
    return RunSummary(
        algorithm=run.algorithm,
        instance=inst.name,
        n=inst.n,
        ell=run.ell,
        rho=run.rho,
        rho_star=rho_star,
        ell_star=ell_star,
        xi_ell=xi_ell,
        makespan=run.result.makespan,
        half_wake_time=curve.quantile(0.5),
        termination_time=run.result.termination_time,
        max_energy=run.result.max_energy,
        total_energy=run.result.total_energy,
        snapshots=run.result.snapshots,
        woke_all=run.result.woke_all,
    )
