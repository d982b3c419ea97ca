"""Sparse wave frontier index: the static visibility oracle behind the
batched ``AWave`` execution model.

``AWave``'s event volume is dominated by exploration lattices swept through
*empty* space: at bench sizes >99% of the planned snapshot stops cannot see
any robot, because wave cells (width ``8*ell^2*log2(ell)``, at least 256)
dwarf the swarm's extent.  Sleeping robots never move — they sit at their
initial positions until woken — so "can this stop's snapshot contain a
sleeping robot?" is answerable *statically*, before the simulation runs,
from the instance alone.

:class:`FrontierIndex` packs the initial positions into per-cell contiguous
arrays (:func:`~repro.geometry.frozen.pack_cells`, the packer of
:class:`~repro.geometry.frozen.FrozenGridHash`) and answers two queries:

* **hot stops** — whether a planned snapshot stop lies within the closed
  visibility reach of *any* initial position (:meth:`any_within`).  A
  cold stop's snapshot provably contains no *sleeping* robot (robots
  sleep at their initial positions until woken); the frontier-aware
  exploration replaces such Move+Look pairs with one batched
  :class:`~repro.sim.Sweep`.  The classification is conservative
  (``reach`` strictly exceeds the engine's look limit) and *static* — it
  never depends on execution state, so legacy and batched runs classify
  identically.  What a cold stop may legitimately miss is an *awake
  transient* — a robot traveling far from every initial position — whose
  sighting only ever cancels a same-report sleeping entry; the
  differential suite (exact wake-time and energy equality on randomized
  instances, including the exact-boundary ``l1_diamond`` family) is the
  empirical guard that this omission never reaches an observable.
* **rect rejection** — whether a rectangle padded by the reach contains any
  initial position at all (:meth:`rect_overlaps`); an entirely-cold
  exploration skips per-stop classification outright.

Equivalence with the brute-force distance loop is pinned by Hypothesis
property tests in ``tests/geometry/test_frontier.py``, including stops
in the ``reach ± EPS`` boundary band.
"""

from __future__ import annotations

import math
from typing import Sequence

from .frozen import pack_cells
from .points import EPS, Point

__all__ = ["FRONTIER_PAD", "FrontierIndex", "frontier_for"]

#: Safety margin added to the visibility radius when classifying stops.
#: The engine's look predicate is ``hypot(d) <= radius + EPS``; the
#: frontier must never call a visible position cold, so its reach strictly
#: dominates the look limit with room for squared-distance rounding.
#: (A hot misclassification only costs a redundant snapshot — safe.)
FRONTIER_PAD = 1e-6


def _fault_reach_deficit() -> float:
    """Fault-injection hook for the fuzzer's self-test (tests/CI only).

    When a ``frontier-reach`` plant is armed (``FREEZETAG_FAULTS=
    frontier-reach:margin=0.5``, see :mod:`repro.experiments.faults`),
    :func:`frontier_for` *shrinks* the reach by that margin —
    deliberately breaking the "never call a visible position cold"
    contract so that sleepers near the edge of the visibility disk are
    misclassified and the batched ``awave`` walk sweeps past them.
    ``legacy_awave`` takes no frontier and is unaffected, so the planted
    bug is exactly the class the differential oracle exists to catch.
    Never plant this outside a fuzzer self-test.
    """
    # Late import: geometry must not import the experiments package (and
    # its transitive engine imports) at module load.
    from ..experiments.faults import frontier_reach_deficit

    return frontier_reach_deficit()


class FrontierIndex:
    """Packed-array spatial oracle over a swarm's initial positions.

    ``reach`` is the closed query radius (visibility radius plus
    :data:`FRONTIER_PAD`); ``points`` keeps the positions as given.
    Positions are immutable: the index is built once per instance and
    shared by every program of the run.
    """

    def __init__(self, positions: Sequence[Point], reach: float) -> None:
        if reach <= 0:
            raise ValueError("reach must be positive")
        self.reach = float(reach)
        self.points = list(positions)
        self._n = len(self.points)
        _, self._vx, self._vy, self._cells = pack_cells(self.points, self.reach)
        self._xs = self._vx.tolist()
        self._ys = self._vy.tolist()
        if self._n:
            # Ulp-padded bounds: ``max_x + reach`` can round half an ulp
            # below a stop exactly at distance ``reach`` — the bbox is a
            # pre-filter and must never reject a true hit.
            xs, ys = self._xs, self._ys
            span = max(max(map(abs, xs)), max(map(abs, ys)), 1.0)
            slack = self.reach * 1e-12 + span * 1e-15
            self._bbox = (
                min(xs) - self.reach - slack,
                min(ys) - self.reach - slack,
                max(xs) + self.reach + slack,
                max(ys) + self.reach + slack,
            )
        else:
            self._bbox = None

    def __len__(self) -> int:
        return self._n

    def any_within(self, p: Point) -> bool:
        """Closed-disk test: is any initial position within ``reach``?

        The membership predicate is exactly ``math.hypot(dx, dy) <=
        reach``: squared distances inside a relative band of the boundary
        are re-checked with ``hypot``, the :class:`FrozenGridHash`
        convention, so squaring rounding never flips a decision.
        """
        if self._n == 0:
            return False
        x, y = float(p[0]), float(p[1])
        bbox = self._bbox
        if not (bbox[0] <= x <= bbox[2] and bbox[1] <= y <= bbox[3]):
            return False
        reach = self.reach
        reach_sq = reach * reach
        lo = reach_sq * (1.0 - 1e-12)
        hi = reach_sq * (1.0 + 1e-12)
        xs, ys = self._xs, self._ys
        # Ulp-padded per-axis cell range (the FrozenGridHash convention):
        # ``x - reach`` can round across a cell boundary and silently drop
        # the cell holding an exactly-at-reach point.
        sx = reach + reach * 1e-12 + abs(x) * 1e-15
        sy = reach + reach * 1e-12 + abs(y) * 1e-15
        ix_lo = math.floor((x - sx) / reach)
        ix_hi = math.floor((x + sx) / reach)
        iy_lo = math.floor((y - sy) / reach)
        iy_hi = math.floor((y + sy) / reach)
        cells_get = self._cells.get
        for ix in range(ix_lo, ix_hi + 1):
            base = ix << 32
            for iy in range(iy_lo, iy_hi + 1):
                bounds = cells_get(base + iy)
                if bounds is None:
                    continue
                for i in range(*bounds):
                    dx = xs[i] - x
                    dy = ys[i] - y
                    d_sq = dx * dx + dy * dy
                    if d_sq < lo:
                        return True
                    if d_sq <= hi and math.hypot(dx, dy) <= reach:
                        return True
        return False

    def rect_overlaps(self, xmin: float, ymin: float, xmax: float, ymax: float) -> bool:
        """Whether any initial position lies in the rect padded by ``reach``.

        A ``False`` answer proves every stop of a lattice confined to the
        rect is cold (stop disks are contained in the padded rect), letting
        the exploration skip per-stop classification entirely.
        """
        if self._n == 0:
            return False
        bbox = self._bbox
        if (
            bbox[2] < xmin - FRONTIER_PAD
            or bbox[0] > xmax + FRONTIER_PAD
            or bbox[3] < ymin - FRONTIER_PAD
            or bbox[1] > ymax + FRONTIER_PAD
        ):
            return False
        r = self.reach
        vx, vy = self._vx, self._vy
        return bool(
            ((vx >= xmin - r) & (vx <= xmax + r) & (vy >= ymin - r) & (vy <= ymax + r)).any()
        )


def frontier_for(
    positions: Sequence[Point], visibility_radius: float
) -> FrontierIndex:
    """The standard construction: reach = visibility radius + safety pad.

    The pad strictly dominates the engine's look tolerance (``EPS``) plus
    squared-distance rounding, so a cold classification is a proof that
    the engine snapshot at that stop contains no sleeping robot.

    A ``frontier-reach`` fault plant (test-only) undercuts the reach on
    purpose; see :func:`_fault_reach_deficit`.
    """
    reach = visibility_radius + FRONTIER_PAD + EPS - _fault_reach_deficit()
    return FrontierIndex(positions, reach=max(reach, 1e-9))
