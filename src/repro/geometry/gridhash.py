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

from .points import EPS, Point, distance

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
        # Bounding box of the populated cells, maintained incrementally so
        # ``nearest`` never rescans the whole index: grown on insert, marked
        # stale when a removal empties a boundary cell (recomputed lazily).
        self._bounds: list[int] | None = None  # [min_ix, min_iy, max_ix, max_iy]
        self._bounds_dirty = False

    # -- mutation -----------------------------------------------------------
    def _bounds_grow(self, cell: _Cell) -> None:
        """Extend the populated-cell bounding box to cover ``cell``."""
        bounds = self._bounds
        if bounds is None:
            self._bounds = [cell[0], cell[1], cell[0], cell[1]]
        else:
            if cell[0] < bounds[0]:
                bounds[0] = cell[0]
            if cell[1] < bounds[1]:
                bounds[1] = cell[1]
            if cell[0] > bounds[2]:
                bounds[2] = cell[0]
            if cell[1] > bounds[3]:
                bounds[3] = cell[1]

    def _bucket_shrink(self, cell: _Cell, key: Hashable) -> None:
        """Drop ``key`` from its bucket; a vacated cell keeps the cell dict
        populated-only, and a vacated *boundary* cell marks the bounding
        box stale (an interior one leaves it a valid over-approximation)."""
        bucket = self._cells[cell]
        bucket.remove(key)
        if not bucket:
            del self._cells[cell]
            bounds = self._bounds
            if bounds is not None and (
                cell[0] == bounds[0]
                or cell[1] == bounds[1]
                or cell[0] == bounds[2]
                or cell[1] == bounds[3]
            ):
                self._bounds_dirty = True

    def insert(self, key: Hashable, position: Point) -> None:
        """Insert ``key`` at ``position`` (error when the key already exists)."""
        if key in self._positions:
            raise KeyError(f"key {key!r} already present")
        self._positions[key] = position
        cell = self._cell_of(position)
        self._cells[cell].append(key)
        self._bounds_grow(cell)

    def remove(self, key: Hashable) -> Point:
        """Remove ``key`` and return its last position."""
        position = self._positions.pop(key)
        self._bucket_shrink(self._cell_of(position), key)
        return position

    def discard(self, key: Hashable) -> None:
        """Remove ``key`` if present, silently otherwise."""
        if key in self._positions:
            self.remove(key)

    def move_key(self, key: Hashable, position: Point) -> None:
        """Update ``key``'s position (must be present).

        Same-cell moves — the common case for a process drifting less than
        a cell per segment — only rewrite the position entry; the bucket
        and bounding box are untouched.
        """
        old = self._positions[key]
        self._positions[key] = position
        size = self.cell_size
        oix = int(math.floor(old[0] / size))
        oiy = int(math.floor(old[1] / size))
        nix = int(math.floor(position[0] / size))
        niy = int(math.floor(position[1] / size))
        if oix == nix and oiy == niy:  # same cell: position entry only
            return
        self._bucket_shrink((oix, oiy), key)
        new_cell = (nix, niy)
        self._cells[new_cell].append(key)
        self._bounds_grow(new_cell)

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

    def nearest(self, center: Point) -> tuple[Hashable, Point] | None:
        """Nearest item to ``center`` (``None`` when empty).

        Expanding ring search: scan successively wider cell annuli and stop
        once the best candidate is provably closer than any unscanned cell.
        """
        if not self._positions:
            return None
        cx, cy = self._cell_of(center)
        best_key: Hashable | None = None
        best_dist = math.inf
        ring = 0
        # Upper bound on rings: the whole structure is finite, so scan at
        # most until the populated bounding box has been covered.
        max_ring = self._max_ring(cx, cy)
        while ring <= max_ring:
            for ix, iy in self._ring_cells(cx, cy, ring):
                for key in self._cells.get((ix, iy), ()):
                    d = distance(self._positions[key], center)
                    if d < best_dist:
                        best_dist = d
                        best_key = key
            # Any cell in ring r+1 is at distance >= r * cell_size from the
            # probe cell; once that exceeds the best distance we can stop.
            if best_key is not None and best_dist <= ring * self.cell_size:
                break
            ring += 1
        assert best_key is not None
        return best_key, self._positions[best_key]

    # -- internals ----------------------------------------------------------
    def _cell_of(self, p: Point) -> _Cell:
        return (
            int(math.floor(p[0] / self.cell_size)),
            int(math.floor(p[1] / self.cell_size)),
        )

    def _max_ring(self, cx: int, cy: int) -> int:
        bounds = self._populated_bounds()
        if bounds is None:
            return 0
        min_ix, min_iy, max_ix, max_iy = bounds
        spread = max(
            abs(min_ix - cx), abs(max_ix - cx), abs(min_iy - cy), abs(max_iy - cy)
        )
        return spread + 1

    def _populated_bounds(self) -> tuple[int, int, int, int] | None:
        """Bounding box of populated cells; O(1) unless marked stale."""
        if self._bounds_dirty:
            self._bounds = None
            for ix, iy in self._cells:  # only populated cells remain
                bounds = self._bounds
                if bounds is None:
                    self._bounds = [ix, iy, ix, iy]
                else:
                    if ix < bounds[0]:
                        bounds[0] = ix
                    if iy < bounds[1]:
                        bounds[1] = iy
                    if ix > bounds[2]:
                        bounds[2] = ix
                    if iy > bounds[3]:
                        bounds[3] = iy
            self._bounds_dirty = False
        if self._bounds is None:
            return None
        return tuple(self._bounds)  # type: ignore[return-value]

    @staticmethod
    def _ring_cells(cx: int, cy: int, ring: int) -> Iterable[_Cell]:
        if ring == 0:
            yield (cx, cy)
            return
        for ix in range(cx - ring, cx + ring + 1):
            yield (ix, cy - ring)
            yield (ix, cy + ring)
        for iy in range(cy - ring + 1, cy + ring):
            yield (cx - ring, iy)
            yield (cx + ring, iy)

    @classmethod
    def from_points(
        cls, points: Iterable[Point], cell_size: float
    ) -> "GridHash":
        """Index the points keyed by their integer enumeration order."""
        index = cls(cell_size)
        for i, p in enumerate(points):
            index.insert(i, p)
        return index
