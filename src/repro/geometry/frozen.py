"""Frozen spatial index for the static sleeping-robot set.

The sleeping index is the hottest geometric structure in the simulator:
every ``Look`` snapshot queries it.  Sleeping robots never *move* — they
only disappear one by one as they wake — so the index is packed once at
:class:`~repro.sim.world.World` construction:

* points are grouped by grid cell (:func:`pack_cells`, one vectorized
  lexsort), so each populated cell is one contiguous ``(start, stop)``
  slice of the packed point list;
* a wake is an O(1) flip of a ``bytearray`` *alive* mask — no repacking;
* ``query_ball`` walks the covering cell block and scans each cell's
  slice with one scalar loop (snapshot cells hold a handful of points,
  where a tight loop beats numpy call overhead).

Boundary semantics are *identical* to ``GridHash.query_ball`` (and hence
to the brute-force ``math.hypot`` oracle): membership is the closed
Euclidean ball of radius ``radius + tol``, squared distances within a
relative band of the boundary are re-checked with ``math.hypot`` so that
squaring rounding (or subnormal underflow) never flips a decision.  The
equivalence is pinned by randomized property tests in
``tests/geometry/test_frozen.py``.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, lshift
from typing import Hashable, Iterator, Sequence

import numpy as _np

from .points import EPS, Point

__all__ = ["FrozenGridHash", "pack_cells"]

#: Packed cell key: ``(ix << 32) + iy`` (exact for Python ints).
_Cell = int


def pack_cells(
    points: Sequence[Point], cell_size: float
) -> tuple[_np.ndarray, _np.ndarray, _np.ndarray, dict[_Cell, tuple[int, int]]]:
    """Group ``points`` by grid cell ``(floor(x / cell_size), floor(y /
    cell_size))`` into contiguous slices.

    Returns the packing order (a stable sort by cell, so ties keep input
    order — the within-cell enumeration convention of ``GridHash``), the
    packed ``float64`` x and y arrays, and each populated cell's
    ``(start, stop)`` slice of them keyed by ``(ix << 32) + iy``: no tuple
    allocation per probe, and int hashing is cheaper than tuple hashing.
    """
    if not points:
        empty = _np.empty(0, dtype=_np.float64)
        return _np.empty(0, dtype=_np.intp), empty, empty, {}
    # zip(*points) + np.array beats np.asarray(points): the latter walks
    # the sequence protocol of every NamedTuple element.
    xs_in, ys_in = zip(*points)
    xs_all = _np.array(xs_in, dtype=_np.float64)
    ys_all = _np.array(ys_in, dtype=_np.float64)
    cell_ix = _np.floor(xs_all / cell_size).astype(_np.int64)
    cell_iy = _np.floor(ys_all / cell_size).astype(_np.int64)
    order = _np.lexsort((cell_iy, cell_ix))
    ix_sorted = cell_ix[order]
    iy_sorted = cell_iy[order]
    first = _np.ones(len(points), dtype=bool)
    first[1:] = (ix_sorted[1:] != ix_sorted[:-1]) | (iy_sorted[1:] != iy_sorted[:-1])
    starts = _np.flatnonzero(first)
    edges = starts.tolist()
    edges.append(len(points))
    keys = map(add, map(lshift, ix_sorted[starts].tolist(), repeat(32)),
               iy_sorted[starts].tolist())
    cells = dict(zip(keys, zip(edges, edges[1:])))
    return order, xs_all[order], ys_all[order], cells


class FrozenGridHash:
    """Immutable-position point index with O(1) deactivation.

    Supports exactly the operations the world's sleeping index needs:
    closed-ball queries (``query_ball`` / ``query_keys``), removal of a
    woken robot (``remove`` / ``discard``) and cardinality.  Keys are
    arbitrary hashables fixed at construction; positions never change.
    """

    def __init__(
        self,
        positions: Sequence[Point],
        cell_size: float,
        keys: Sequence[Hashable] | None = None,
    ) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        points = list(positions)
        n = len(points)
        if keys is None:
            key_list: list[Hashable] = list(range(n))
        else:
            key_list = list(keys)
            if len(key_list) != n:
                raise ValueError("keys and positions must have equal length")
        # The packed x/y arrays are FrontierIndex's; their two n-element
        # copies are under 1% of this build, the price of one packer.
        order, _, _, self._cells = pack_cells(points, self.cell_size)
        order_list = order.tolist()
        self._points: list[Point] = list(map(points.__getitem__, order_list))
        self._keys: list[Hashable] = list(map(key_list.__getitem__, order_list))
        #: key -> packed slot of every active key.
        self._index_of: dict[Hashable, int] = dict(zip(self._keys, range(n)))
        if len(self._index_of) != n:
            raise ValueError("duplicate keys")
        self._alive = bytearray(b"\x01") * n
        self._count = n

    # -- mutation (deactivation only) --------------------------------------
    def remove(self, key: Hashable) -> Point:
        """Deactivate ``key`` and return its position (KeyError if absent)."""
        slot = self._index_of.pop(key)
        self._alive[slot] = 0
        self._count -= 1
        return self._points[slot]

    def discard(self, key: Hashable) -> None:
        """Deactivate ``key`` if present, silently otherwise."""
        if key in self._index_of:
            self.remove(key)

    # -- lookup --------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index_of

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._index_of)

    def position_of(self, key: Hashable) -> Point:
        return self._points[self._index_of[key]]

    def items(self) -> list[tuple[Hashable, Point]]:
        return [(key, self._points[slot]) for key, slot in self._index_of.items()]

    def query_ball(
        self, center: Point, radius: float, tol: float = EPS
    ) -> list[tuple[Hashable, Point]]:
        """All active ``(key, position)`` within the closed ball.

        Same membership predicate as ``GridHash.query_ball``: distance
        (``math.hypot``) at most ``radius + tol``, with the squared-
        distance boundary band re-checked exactly.
        """
        if radius < 0 or self._count == 0:
            return []
        limit = radius + tol
        size = self.cell_size
        x0 = float(center[0])
        y0 = float(center[1])
        # Ulp-padded per-axis cell range — see GridHash.query_ball for why
        # the pad is needed (computed-hypot membership admits points a few
        # ulps outside the exact interval).
        sx = limit + limit * 1e-12 + abs(x0) * 1e-15
        sy = limit + limit * 1e-12 + abs(y0) * 1e-15
        ix_min = int(math.floor((x0 - sx) / size))
        ix_max = int(math.floor((x0 + sx) / size))
        iy_min = int(math.floor((y0 - sy) / size))
        iy_max = int(math.floor((y0 + sy) / size))
        cells_get = self._cells.get
        limit_sq = limit * limit
        lo = limit_sq * (1.0 - 1e-12)
        hi = limit_sq * (1.0 + 1e-12)
        alive = self._alive
        points = self._points
        keys = self._keys
        found: list[tuple[Hashable, Point]] = []
        append = found.append
        for ix in range(ix_min, ix_max + 1):
            base = ix << 32
            for iy in range(iy_min, iy_max + 1):
                span = cells_get(base + iy)
                if span is None:
                    continue
                slot, stop = span
                while slot < stop:
                    if alive[slot]:
                        pos = points[slot]
                        dx = pos[0] - x0
                        dy = pos[1] - y0
                        d_sq = dx * dx + dy * dy
                        if d_sq < lo or (
                            d_sq <= hi and math.hypot(dx, dy) <= limit
                        ):
                            append((keys[slot], pos))
                    slot += 1
        return found

    def query_keys(
        self, center: Point, radius: float, tol: float = EPS
    ) -> list[Hashable]:
        """Keys only, for callers that do not need positions."""
        return [key for key, _ in self.query_ball(center, radius, tol)]
