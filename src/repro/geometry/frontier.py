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
arrays (one ``lexsort``, :class:`~repro.geometry.frozen.FrozenGridHash`
style) and answers three families of queries:

* **hot stops** — which planned snapshot stops lie within the closed
  visibility reach of *any* initial position (:meth:`hot_stops` /
  :meth:`any_within`).  A cold stop's snapshot provably contains no
  *sleeping* robot (robots sleep at their initial positions until
  woken); the frontier-aware exploration replaces such Move+Look pairs
  with one batched :class:`~repro.sim.Sweep`.  The classification is
  conservative (``reach`` strictly exceeds the engine's look limit) and
  *static* — it never depends on execution state, so legacy and batched
  runs classify identically.  What a cold stop may legitimately miss is
  an *awake transient* — a robot traveling far from every initial
  position — whose sighting only ever cancels a same-report sleeping
  entry; the differential suite (exact wake-time and energy equality on
  randomized instances, including the exact-boundary ``l1_diamond``
  family) is the empirical guard that this omission never reaches an
  observable.
* **rect rejection** — whether a rectangle padded by the reach contains any
  initial position at all (:meth:`rect_overlaps`); an entirely-cold
  exploration skips per-stop classification outright.
* **wave cohorts** — vectorized bucketing of the swarm by wave cell
  (:meth:`cells` / :meth:`bucket` / :meth:`cohort`), float-op-identical
  to :meth:`repro.core.agrid.CellGrid.cell_of`, with decimation support
  for crash-on-wake worlds (crashed robots never join their cell's
  cohort).  ``cells`` feeds the wave's startup accounting; ``bucket`` /
  ``cohort`` are the property-tested oracle surface for cohort
  diagnostics (the in-run cohort election itself stays snapshot-driven —
  see ``_WavePlan.gather_team`` — so the executed wave never trusts the
  index over the engine's own observations).

Equivalence with the scalar oracles (brute-force distance loops and the
per-point ``CellGrid`` assignment) is pinned by Hypothesis property tests
in ``tests/geometry/test_frontier.py``, including ``radius ± EPS``
boundaries and ``speed_floor < 1`` window arithmetic on the ``AWave``
side.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Sequence

import numpy as _np

from .points import EPS, Point

__all__ = ["FRONTIER_PAD", "FrontierIndex", "frontier_for"]

#: Safety margin added to the visibility radius when classifying stops.
#: The engine's look predicate is ``hypot(d) <= radius + EPS``; the
#: frontier must never call a visible position cold, so its reach strictly
#: dominates the look limit with room for squared-distance rounding.
#: (A hot misclassification only costs a redundant snapshot — safe.)
FRONTIER_PAD = 1e-6

#: Below this many candidates, a scalar loop beats numpy call overhead.
_SCALAR_CUTOFF = 32


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
    :data:`FRONTIER_PAD`); ``keys`` are the robot ids in position order
    (defaults to ``0..n-1``).  Positions are immutable: the index is built
    once per instance and shared by every program of the run.
    """

    def __init__(
        self,
        positions: Sequence[Point],
        reach: float,
        keys: Sequence[Hashable] | None = None,
    ) -> None:
        if reach <= 0:
            raise ValueError("reach must be positive")
        self.reach = float(reach)
        pts = [(float(p[0]), float(p[1])) for p in positions]
        self._keys: list[Hashable] = (
            list(range(len(pts))) if keys is None else list(keys)
        )
        if len(self._keys) != len(pts):
            raise ValueError("keys must match positions one-to-one")
        self._n = len(pts)
        cs = self.cell_size = self.reach
        if pts:
            # Ulp-padded bounds: ``max_x + reach`` can round half an ulp
            # below a stop exactly at distance ``reach`` — the bbox is a
            # pre-filter and must never reject a true hit.
            span = max(
                max(abs(x) for x, _ in pts), max(abs(y) for _, y in pts), 1.0
            )
            slack = self.reach * 1e-12 + span * 1e-15
            self._bbox = (
                min(x for x, _ in pts) - self.reach - slack,
                min(y for _, y in pts) - self.reach - slack,
                max(x for x, _ in pts) + self.reach + slack,
                max(y for _, y in pts) + self.reach + slack,
            )
        else:
            self._bbox = None
        # Pack points into per-cell contiguous slices (FrozenGridHash
        # style): one sort by cell, then (start, stop) offsets per cell.
        order = sorted(
            range(self._n),
            key=lambda i: (
                math.floor(pts[i][0] / cs), math.floor(pts[i][1] / cs), i
            ),
        )
        self._xs = [pts[i][0] for i in order]
        self._ys = [pts[i][1] for i in order]
        self._packed_keys = [self._keys[i] for i in order]
        self._slices: dict[tuple[int, int], tuple[int, int]] = {}
        if self._n:
            def cell_at(idx: int) -> tuple[int, int]:
                x, y = pts[order[idx]]
                return (math.floor(x / cs), math.floor(y / cs))

            start = 0
            current = cell_at(0)
            for idx in range(1, self._n):
                cell = cell_at(idx)
                if cell != current:
                    self._slices[current] = (start, idx)
                    start = idx
                    current = cell
            self._slices[current] = (start, self._n)
        self._vx = _np.asarray(self._xs, dtype=_np.float64)
        self._vy = _np.asarray(self._ys, dtype=_np.float64)

    def __len__(self) -> int:
        return self._n

    # -- hot-stop classification -------------------------------------------
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
        cs = self.cell_size
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
        ix_lo = math.floor((x - sx) / cs)
        ix_hi = math.floor((x + sx) / cs)
        iy_lo = math.floor((y - sy) / cs)
        iy_hi = math.floor((y + sy) / cs)
        slices = self._slices
        for ix in range(ix_lo, ix_hi + 1):
            for iy in range(iy_lo, iy_hi + 1):
                bounds = slices.get((ix, iy))
                if bounds is None:
                    continue
                start, stop = bounds
                if stop - start >= _SCALAR_CUTOFF:
                    dx = self._vx[start:stop] - x
                    dy = self._vy[start:stop] - y
                    d_sq = dx * dx + dy * dy
                    if bool((d_sq < lo).any()):
                        return True
                    for j in _np.nonzero(d_sq <= hi)[0]:
                        if math.hypot(dx[j], dy[j]) <= reach:
                            return True
                    continue
                for i in range(start, stop):
                    dx = xs[i] - x
                    dy = ys[i] - y
                    d_sq = dx * dx + dy * dy
                    if d_sq < lo:
                        return True
                    if d_sq <= hi and math.hypot(dx, dy) <= reach:
                        return True
        return False

    def hot_stops(self, stops: Sequence[Point]) -> list[bool]:
        """Per-stop hot mask for a planned snapshot lattice.

        ``True`` means the stop's closed reach-disk contains at least one
        initial position (the snapshot there *may* reveal a sleeping
        robot and must really be taken); ``False`` stops are provably
        empty and safe to sweep through.
        """
        if self._n == 0 or not stops:
            return [False] * len(stops)
        return [self.any_within(s) for s in stops]

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
        xs, ys = self._xs, self._ys
        if self._n >= _SCALAR_CUTOFF:
            return bool(
                (
                    (self._vx >= xmin - r) & (self._vx <= xmax + r)
                    & (self._vy >= ymin - r) & (self._vy <= ymax + r)
                ).any()
            )
        return any(
            xmin - r <= xs[i] <= xmax + r and ymin - r <= ys[i] <= ymax + r
            for i in range(self._n)
        )

    # -- wave cohorts -------------------------------------------------------
    def cells(self, width: float, origin: Point) -> list[tuple[int, int]]:
        """Wave-cell assignment of every position, in key order.

        Float-op-identical to :meth:`repro.core.agrid.CellGrid.cell_of`
        evaluated per point (``floor((x - ox + width/2) / width)``), but
        vectorized over the packed arrays.
        """
        if width <= 0:
            raise ValueError("cell width must be positive")
        half = width / 2.0
        ox, oy = float(origin[0]), float(origin[1])
        # Report in original key order: invert the packing permutation.
        by_key: dict[Hashable, tuple[int, int]] = {}
        ix = _np.floor((self._vx - ox + half) / width).astype(_np.int64)
        iy = _np.floor((self._vy - oy + half) / width).astype(_np.int64)
        for pos, key in enumerate(self._packed_keys):
            by_key[key] = (int(ix[pos]), int(iy[pos]))
        return [by_key[k] for k in self._keys]

    def bucket(
        self, width: float, origin: Point
    ) -> dict[tuple[int, int], tuple[Hashable, ...]]:
        """Cohort membership: wave cell -> sorted keys of its residents."""
        buckets: dict[tuple[int, int], list[Hashable]] = {}
        for key, cell in zip(self._keys, self.cells(width, origin)):
            buckets.setdefault(cell, []).append(key)
        return {
            cell: tuple(sorted(members)) for cell, members in buckets.items()
        }

    def cohort(
        self,
        cell: tuple[int, int],
        width: float,
        origin: Point,
        exclude: Iterable[Hashable] = (),
    ) -> tuple[Hashable, ...]:
        """Members of ``cell``'s cohort after decimation.

        ``exclude`` removes robots that can never gather — crash-on-wake
        casualties park where they were woken and drop out of the wave.
        """
        dropped = set(exclude)
        return tuple(
            k for k in self.bucket(width, origin).get(cell, ()) if k not in dropped
        )


def frontier_for(
    positions: Sequence[Point],
    visibility_radius: float,
    keys: Sequence[Hashable] | None = None,
) -> FrontierIndex:
    """The standard construction: reach = visibility radius + safety pad.

    The pad strictly dominates the engine's look tolerance (``EPS``) plus
    squared-distance rounding, so a cold classification is a proof that
    the engine snapshot at that stop contains no sleeping robot.

    A ``frontier-reach`` fault plant (test-only) undercuts the reach on
    purpose; see :func:`_fault_reach_deficit`.
    """
    reach = visibility_radius + FRONTIER_PAD + EPS - _fault_reach_deficit()
    return FrontierIndex(positions, reach=max(reach, 1e-9), keys=keys)
