"""Delta-disk graphs over planar point sets.

The *delta-disk graph* of a point set connects two points whenever their
Euclidean distance is at most ``delta``; edges are weighted by that
distance.  The paper's three instance parameters are all read off disk
graphs (Section 1.2):

* ``ell_star`` — least ``delta`` making the graph on ``P ∪ {s}`` connected;
* ``xi_ell``  — eccentricity of the source in the ``ell``-disk graph
  (the minimum weighted depth of a rooted spanning tree equals the
  shortest-path eccentricity, since the shortest-path tree minimizes every
  root distance simultaneously);
* ``DFSampling`` runs a DFS over the ``2*ell``-disk graph.

Both are near-linear on bounded-density point sets.  :class:`DiskGraph`
packs its adjacency once into int32 CSR arrays whose neighbour lists
reproduce ``GridHash.query_ball``'s membership *and order*: the
``EPS``-slack Dijkstra behind ``xi_ell`` depends on relaxation order, so
the same order keeps it byte-identical.  :func:`bottleneck_connectivity`
is an exact Kruskal over those arrays at doubling radii.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .points import EPS, Point, distance

__all__ = ["DiskGraph", "connected_components", "bottleneck_connectivity"]

#: Candidate pairs materialized at once: bounds the transient memory of
#: the vectorized builders whatever the point count.
_CHUNK = 1 << 13

#: A Kruskal round may test at most this many candidates per point; past
#: it (clustered inputs) the rounds stop being linear and a Prim over the
#: contracted components finishes the job.
_CANDIDATES_PER_POINT = 96


class DiskGraph:
    """Disk graph over an indexed point set, on a CSR adjacency."""

    def __init__(self, points: Sequence[Point], delta: float) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.points = list(points)
        self.delta = float(delta)
        self._indptr, self._indices = _adjacency(*_coords(self.points), self.delta)

    def __len__(self) -> int:
        return len(self.points)

    def neighbors(self, i: int) -> list[int]:
        """Indices adjacent to vertex ``i`` (excluding ``i`` itself), in
        ``GridHash.query_ball`` order."""
        return self._indices[self._indptr[i] : self._indptr[i + 1]].tolist()

    def edges(self) -> Iterable[tuple[int, int, float]]:
        """All edges ``(i, j, weight)`` with ``i < j``."""
        for i in range(len(self.points)):
            for j in self.neighbors(i):
                if i < j:
                    yield i, j, distance(self.points[i], self.points[j])

    def is_connected(self) -> bool:
        if len(self.points) <= 1:
            return True
        return len(self.component_of(0)) == len(self.points)

    def component_of(self, start: int) -> set[int]:
        """Vertex set of the connected component containing ``start``."""
        return {v for layer in self._layers(start) for v in layer.tolist()}

    def shortest_path_lengths(self, source: int) -> list[float]:
        """Dijkstra distances from ``source`` (``inf`` for unreachable)."""
        xs = [p[0] for p in self.points]
        ys = [p[1] for p in self.points]
        indptr = self._indptr.tolist()
        indices = self._indices
        hypot = math.hypot
        dist = [math.inf] * len(xs)
        dist[source] = 0.0
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u] + EPS:
                continue
            ux = xs[u]
            uy = ys[u]
            for v in indices[indptr[u] : indptr[u + 1]].tolist():
                nd = d + hypot(ux - xs[v], uy - ys[v])  # points.distance, inlined
                if nd < dist[v] - EPS:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist

    def hop_distances(self, source: int) -> list[int]:
        """BFS hop counts from ``source`` (``-1`` for unreachable)."""
        hops = np.full(len(self.points), -1)
        for depth, layer in enumerate(self._layers(source)):
            hops[layer] = depth
        return hops.tolist()

    def _layers(self, source: int) -> Iterator[np.ndarray]:
        """BFS layers from ``source``, as arrays of vertex indices."""
        seen = np.zeros(len(self.points), dtype=bool)
        seen[source] = True
        layer = np.array([source])
        while layer.size:
            yield layer
            starts = self._indptr[layer]
            reached = self._indices[_ranges(starts, self._indptr[layer + 1] - starts)]
            layer = np.unique(reached[~seen[reached]])
            seen[layer] = True


def _coords(points: Sequence[Point]) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = zip(*points) if points else ((), ())
    return np.array(xs, dtype=float), np.array(ys, dtype=float)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + l)`` over the ``(s, l)`` pairs."""
    shift = np.cumsum(lengths) - lengths - starts
    return np.arange(int(lengths.sum())) - np.repeat(shift, lengths)


def _adjacency(
    xs: np.ndarray, ys: np.ndarray, delta: float, budget: float = math.inf
) -> tuple[np.ndarray, np.ndarray] | None:
    """CSR ``(indptr, indices)`` of the ``delta``-disk graph, or ``None``
    when building it would test more than ``budget`` candidates.

    Vertex ``i``'s list is ``[j for j, _ in index.query_ball(points[i],
    delta) if j != i]`` for a ``GridHash(cell_size=delta)`` holding the
    points keyed by index, membership and order alike.  Candidates are
    tested about ``_CHUNK`` at a time.
    """
    order, first, length = _scan_runs(xs, ys, delta)
    per_center = length.sum(axis=1)
    ends = np.cumsum(per_center)
    if ends.size and ends[-1] > budget:
        return None
    n = len(xs)
    indptr = np.zeros(n + 1, dtype=np.int64)
    parts = [np.empty(0, dtype=np.int32)]
    a = 0
    while a < n:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - per_center[a] + _CHUNK, "right")))
        j = order[_ranges(first[a:b].ravel(), length[a:b].ravel())]
        i = np.repeat(np.arange(a, b), per_center[a:b])
        keep = _in_ball(xs[j] - xs[i], ys[j] - ys[i], delta + EPS) & (j != i)
        parts.append(j[keep].astype(np.int32))
        indptr[a + 1 : b + 1] = np.bincount(i[keep] - a, minlength=b - a)
        a = b
    np.cumsum(indptr, out=indptr)
    return indptr, np.concatenate(parts)


def _scan_runs(
    xs: np.ndarray, ys: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every center's ``query_ball`` scan as runs of one cell-sorted order.

    Returns ``order`` and two ``(n, w)`` arrays ``first`` and ``length``:
    center ``i`` scans ``order[first[i, k] : first[i, k] + length[i, k]]``
    for ``k < w``.  Cells (``floor(x / delta)``) and the ulp-padded
    per-axis cell range use ``query_ball``'s float operations, and sorting
    by cell column, cell row, then index follows its scan order.
    """
    limit = delta + EPS
    # Cells as integer-valued floats, ranked per axis: the ranks pack
    # (column, row) into one int64 key whatever the coordinates.
    cols, col = np.unique(np.floor(xs / delta), return_inverse=True)
    rows, row = np.unique(np.floor(ys / delta), return_inverse=True)
    stride = len(rows) + 1
    order = np.lexsort((row, col))  # stable: index order within a cell
    key = (col * stride + row)[order]
    # Each center's range: populated columns [c_lo, c_hi), rows [r_lo, r_hi).
    sx = limit + limit * 1e-12 + np.abs(xs) * 1e-15
    sy = limit + limit * 1e-12 + np.abs(ys) * 1e-15
    c_lo = np.searchsorted(cols, np.floor((xs - sx) / delta), "left")
    c_hi = np.searchsorted(cols, np.floor((xs + sx) / delta), "right")
    r_lo = np.searchsorted(rows, np.floor((ys - sy) / delta), "left")[:, None]
    r_hi = np.searchsorted(rows, np.floor((ys + sy) / delta), "right")[:, None]
    column = c_lo[:, None] + np.arange(int((c_hi - c_lo).max(initial=0)))
    first = np.searchsorted(key, column * stride + r_lo)
    length = np.searchsorted(key, column * stride + r_hi) - first
    length[column >= c_hi[:, None]] = 0
    return order, first, length


def _in_ball(dx: np.ndarray, dy: np.ndarray, limit: float) -> np.ndarray:
    """``query_ball``'s membership test of the offsets ``(dx, dy)``: the
    squared distance against ``limit``, rechecked with ``math.hypot``
    inside the relative rounding band."""
    limit_sq = limit * limit
    d_sq = dx * dx + dy * dy
    inside = d_sq < limit_sq * (1.0 - 1e-12)
    for t in np.flatnonzero(~inside & (d_sq <= limit_sq * (1.0 + 1e-12))).tolist():
        inside[t] = math.hypot(float(dx[t]), float(dy[t])) <= limit
    return inside


def connected_components(points: Sequence[Point], delta: float) -> list[set[int]]:
    """Connected components of the ``delta``-disk graph."""
    graph = DiskGraph(points, delta)
    remaining = set(range(len(points)))
    components: list[set[int]] = []
    while remaining:
        start = next(iter(remaining))
        comp = graph.component_of(start)
        components.append(comp)
        remaining -= comp
    return components


def bottleneck_connectivity(points: Sequence[Point]) -> float:
    """Least ``delta`` making the ``delta``-disk graph connected.

    Equals the largest edge of a Euclidean minimum spanning tree (the
    bottleneck shortest-path property of MSTs), edges weighed by
    ``np.hypot``.  Computed exactly by a grid Kruskal.  A round takes the
    ``r``-disk graph, which holds every pair within ``r + EPS`` by
    ``math.hypot``, hence every pair ``np.hypot`` puts within ``r`` less a
    rounding margin.  It unions those pairs in weight order, extending a
    full Kruskal by every edge up to that radius, and ``r`` doubles until
    one component remains.  When a round would test more than a linear
    number of candidates (clustered inputs), a Prim over the contracted
    components joins what is left.

    Returns ``0.0`` for fewer than two distinct points.
    """
    if len(points) <= 1:
        return 0.0
    xs, ys = _coords(points)
    # Coincident points join at weight 0: keep one of each.
    by_xy = np.lexsort((ys, xs))
    xs, ys = xs[by_xy], ys[by_xy]
    distinct = np.r_[True, (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])]
    xs, ys = xs[distinct], ys[distinct]
    m = len(xs)
    if m == 1:
        return 0.0
    label = np.arange(m)
    budget = _CANDIDATES_PER_POINT * m
    # First round: about one point per cell on uniform inputs, halved
    # while the round is not linear.
    radius = max(float(max(np.ptp(xs), np.ptp(ys))) / math.sqrt(m), EPS)
    graph = _adjacency(xs, ys, radius, budget)
    while graph is None and radius > EPS:
        radius = max(radius / 2, EPS)
        graph = _adjacency(xs, ys, radius, budget)
    parent = label.tolist()
    components = m
    bottleneck = 0.0
    while graph is not None:
        indptr, tails = graph
        heads = np.repeat(np.arange(m), np.diff(indptr))
        cross = (heads < tails) & (label[heads] != label[tails])
        heads, tails = heads[cross], tails[cross]
        weights = np.hypot(xs[tails] - xs[heads], ys[tails] - ys[heads])
        near = np.flatnonzero(weights <= radius * (1.0 - 1e-12))
        # Weights only grow, across rounds too (no pair joining two
        # components lies within the previous round's radius), so the last
        # union is the bottleneck so far.
        by_weight = near[np.argsort(weights[near], kind="stable")]
        for k in range(0, by_weight.size, _CHUNK):  # bounded Python-object churn
            take = by_weight[k : k + _CHUNK]
            for u, v, weight in zip(
                heads[take].tolist(), tails[take].tolist(), weights[take].tolist()
            ):
                while parent[u] != u:
                    parent[u] = u = parent[parent[u]]
                while parent[v] != v:
                    parent[v] = v = parent[parent[v]]
                if u != v:
                    parent[u] = v
                    bottleneck = weight
                    components -= 1
                    if components == 1:
                        return bottleneck
        label = np.array(parent)
        while (label[label] != label).any():  # pointer jumping to the roots
            label = label[label]
        parent = label.tolist()
        radius *= 2
        graph = _adjacency(xs, ys, radius, budget)
    return max(bottleneck, _contracted_prim(xs, ys, label))


def _contracted_prim(xs: np.ndarray, ys: np.ndarray, label: np.ndarray) -> float:
    """Largest edge of the MST joining the components ``label`` names.

    Prim over components: each step adds every point of the component
    nearest the tree, relaxing the rest against them a block at a time.
    """
    members = np.flatnonzero(label == label[0])
    rest = np.flatnonzero(label != label[0])
    best = np.full(len(rest), np.inf)
    bottleneck = 0.0
    while rest.size:
        rest_x = xs[rest]
        rest_y = ys[rest]
        rows = max(1, _CHUNK // rest.size)
        for k in range(0, members.size, rows):
            block = members[k : k + rows, None]
            near = np.hypot(rest_x - xs[block], rest_y - ys[block]).min(axis=0)
            np.minimum(best, near, out=best)
        k = int(np.argmin(best))
        bottleneck = max(bottleneck, float(best[k]))
        joins = label[rest] == label[rest[k]]
        members = rest[joins]
        rest = rest[~joins]
        best = best[~joins]
    return bottleneck
