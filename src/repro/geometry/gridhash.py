"""Uniform-grid spatial hash for fixed-radius neighbor queries.

Every hot geometric query in the reproduction is a fixed-radius search:

* the simulator's ``look`` snapshot (radius 1 around the observer);
* delta-disk-graph adjacency (radius ``delta``; ``DiskGraph`` packs these
  exact answers into arrays);
* covering checks for ``ell``-samplings (radius ``ell``/``2*ell``).

A uniform grid whose cell size equals the query radius answers such a query
by scanning the 3x3 block of cells around the probe, which is expected
``O(1)`` per query for the bounded-density point sets the paper considers
(an ``ell``-sampling packs at most ``16 R^2 / (pi ell^2)`` points into a
width-``R`` square — Lemma 4).

The structure is static-friendly: sleeping robots never move, so the index
is built once per instance and reused for every snapshot.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Hashable, Iterable, Iterator, List, Tuple

from .points import EPS, Point

__all__ = ["GridHash"]

_Cell = Tuple[int, int]


class GridHash:
    """Point index supporting insert/remove and closed-ball queries.

    Items are identified by an arbitrary hashable key (robot id, sample
    index, ...) mapped to a fixed position.  Querying uses a *closed* ball
    with the global ``EPS`` tolerance, matching the paper's "up to distance
    1" visibility convention.
    """

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        self._cells: Dict[_Cell, List[Hashable]] = defaultdict(list)
        self._positions: Dict[Hashable, Point] = {}

    # -- mutation -----------------------------------------------------------
    def insert(self, key: Hashable, position: Point) -> None:
        """Insert ``key`` at ``position`` (error when the key already exists)."""
        if key in self._positions:
            raise KeyError(f"key {key!r} already present")
        self._positions[key] = position
        self._cells[self._cell_of(position)].append(key)

    def remove(self, key: Hashable) -> Point:
        """Remove ``key`` and return its last position."""
        position = self._positions.pop(key)
        cell = self._cell_of(position)
        bucket = self._cells[cell]
        bucket.remove(key)
        if not bucket:  # keep the cell dict populated-only
            del self._cells[cell]
        return position

    def discard(self, key: Hashable) -> None:
        """Remove ``key`` if present, silently otherwise."""
        if key in self._positions:
            self.remove(key)

    # -- lookup ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._positions

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._positions)

    def position_of(self, key: Hashable) -> Point:
        return self._positions[key]

    def items(self) -> Iterable[tuple[Hashable, Point]]:
        return self._positions.items()

    def query_ball(
        self, center: Point, radius: float, tol: float = EPS
    ) -> list[tuple[Hashable, Point]]:
        """All ``(key, position)`` with ``distance(position, center) <= radius + tol``.

        The membership predicate is *exactly* the closed Euclidean ball of
        radius ``radius + tol`` as measured by :func:`~repro.geometry.points.
        distance` (``math.hypot``) — callers can use that as a brute-force
        oracle.  Hot path for every snapshot, so the loop is inlined and
        compares squared distances; points within a relative margin of the
        boundary are re-checked with ``math.hypot``, since squaring can
        round (or underflow to zero for subnormal offsets) and silently
        flip a boundary decision.
        """
        if radius < 0 or not self._positions:
            return []
        limit = radius + tol
        size = self.cell_size
        x0 = center[0]
        y0 = center[1]
        # Per-axis cell range of the ball: cell ``ix`` spans
        # ``[ix*size, (ix+1)*size)``, so only cells whose span intersects
        # ``[x0 - limit, x0 + limit]`` can hold a member.  (The previous
        # ``ceil(limit/size)`` reach over-scanned a whole extra ring — a
        # 5x5 block instead of 3x3 for the standard radius == cell_size
        # snapshot query.)  The range is padded by ulp-scale guards:
        # membership is *computed* ``hypot <= limit``, and rounding admits
        # points a few ulps outside the real interval (e.g. a subnormal
        # coordinate against ``x0 = radius``), which may sit one cell
        # before the exact range.
        sx = limit + limit * 1e-12 + abs(x0) * 1e-15
        sy = limit + limit * 1e-12 + abs(y0) * 1e-15
        ix_min = int(math.floor((x0 - sx) / size))
        ix_max = int(math.floor((x0 + sx) / size))
        iy_min = int(math.floor((y0 - sy) / size))
        iy_max = int(math.floor((y0 + sy) / size))
        cells = self._cells
        positions = self._positions
        limit_sq = limit * limit
        # Fast accept below / reject above this band; exact check inside.
        lo = limit_sq * (1.0 - 1e-12)
        hi = limit_sq * (1.0 + 1e-12)
        found: list[tuple[Hashable, Point]] = []
        for ix in range(ix_min, ix_max + 1):
            for iy in range(iy_min, iy_max + 1):
                bucket = cells.get((ix, iy))
                if not bucket:
                    continue
                for key in bucket:
                    pos = positions[key]
                    dx = pos[0] - x0
                    dy = pos[1] - y0
                    d_sq = dx * dx + dy * dy
                    if d_sq < lo or (d_sq <= hi and math.hypot(dx, dy) <= limit):
                        found.append((key, pos))
        return found

    def query_keys(self, center: Point, radius: float, tol: float = EPS) -> list[Hashable]:
        """Keys only, for callers that do not need positions."""
        return [key for key, _ in self.query_ball(center, radius, tol)]

    # -- internals ----------------------------------------------------------
    def _cell_of(self, p: Point) -> _Cell:
        size = self.cell_size
        return math.floor(p[0] / size), math.floor(p[1] / size)

    @classmethod
    def from_points(
        cls, points: Iterable[Point], cell_size: float
    ) -> "GridHash":
        """Index the points keyed by their integer enumeration order."""
        index = cls(cell_size)
        for i, p in enumerate(points):
            index.insert(i, p)
        return index
