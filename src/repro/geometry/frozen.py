"""Vectorized frozen spatial index for the static sleeping-robot set.

The sleeping index is the hottest geometric structure in the simulator:
every ``Look`` snapshot queries it, and at scale (10^5 sleepers) the
per-point Python loop of :class:`~repro.geometry.gridhash.GridHash`
dominates the run.  Sleeping robots never *move* — they only disappear
one by one as they wake — so the index can be packed once at
:class:`~repro.sim.world.World` construction:

* positions are laid out in two contiguous ``float64`` arrays, grouped
  by grid cell (cell -> one ``(start, stop)`` slice);
* a wake is an O(1) flip of a boolean *active* mask — no repacking;
* ``query_ball`` gathers the candidate slices of the covering cell block
  and answers with a vectorized squared-distance mask; tiny candidate
  sets short-circuit into a scalar loop, which beats array overhead at
  typical snapshot densities.

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
from typing import Hashable, Iterator, Sequence

import numpy as _np

from .points import EPS, Point

__all__ = ["FrozenGridHash", "pack_cells"]

#: Below this many points in a cell, a scalar loop beats numpy call
#: overhead for that cell's slice.
_SCALAR_CUTOFF = 48

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
    breaks = _np.nonzero(
        (ix_sorted[1:] != ix_sorted[:-1]) | (iy_sorted[1:] != iy_sorted[:-1])
    )[0]
    edges = [0, *(b + 1 for b in breaks.tolist()), len(points)]
    run_ix = ix_sorted[edges[:-1]].tolist()
    run_iy = iy_sorted[edges[:-1]].tolist()
    cells = {
        (run_ix[i] << 32) + run_iy[i]: (edges[i], edges[i + 1])
        for i in range(len(run_ix))
    }
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
            if len(set(key_list)) != n:
                raise ValueError("duplicate keys")
        order, self._xs, self._ys, self._cells = pack_cells(points, self.cell_size)
        order_list = order.tolist()
        self._points: list[Point] = [points[i] for i in order_list]
        self._keys: list[Hashable] = [key_list[i] for i in order_list]
        # Active mask, twice: a numpy array for the vectorized branch and a
        # bytearray mirror for the scalar branch (per-element numpy reads
        # are an order of magnitude slower than a bytearray index).
        self._active = _np.ones(n, dtype=bool)
        self._alive = bytearray(b"\x01") * n
        # key -> packed slot, built lazily on the first keyed operation: a
        # run that never wakes anyone (pure query workloads) skips it.
        self._index_lazy: dict[Hashable, int] | None = None
        self._count = n

    @property
    def _index_of(self) -> dict[Hashable, int]:
        index = self._index_lazy
        if index is None:
            index = self._index_lazy = {
                key: slot for slot, key in enumerate(self._keys)
            }
        return index

    # -- mutation (deactivation only) --------------------------------------
    def remove(self, key: Hashable) -> Point:
        """Deactivate ``key`` and return its position (KeyError if absent)."""
        slot = self._index_of.pop(key)
        self._active[slot] = False
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
                start, stop = span
                if stop - start < _SCALAR_CUTOFF:
                    # Scalar: at snapshot densities (a handful of points
                    # per cell) a tight loop beats numpy call overhead.
                    slot = start
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
                else:
                    # Vectorized squared-distance mask over the cell slice;
                    # candidates in the rounding band re-checked exactly.
                    dx = self._xs[start:stop] - x0
                    dy = self._ys[start:stop] - y0
                    d_sq = dx * dx + dy * dy
                    mask = self._active[start:stop] & (d_sq <= hi)
                    for local in _np.nonzero(mask)[0]:
                        slot = start + int(local)
                        if d_sq[local] < lo or math.hypot(
                            float(dx[local]), float(dy[local])
                        ) <= limit:
                            append((keys[slot], points[slot]))
        return found

    def query_keys(
        self, center: Point, radius: float, tol: float = EPS
    ) -> list[Hashable]:
        """Keys only, for callers that do not need positions."""
        return [key for key, _ in self.query_ball(center, radius, tol)]
