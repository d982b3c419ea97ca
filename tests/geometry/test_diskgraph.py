"""Disk graphs, connectivity threshold, shortest paths.

The grid Kruskal behind ``bottleneck_connectivity`` is pinned with ``==``
to a dense Prim oracle, and the CSR adjacency behind ``DiskGraph`` to
``GridHash.query_ball`` (membership *and* order, which the ``EPS``-slack
Dijkstra of ``xi_ell`` depends on).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.geometry.diskgraph as diskgraph_module
from repro.geometry import (
    DiskGraph,
    GridHash,
    Point,
    bottleneck_connectivity,
    connected_components,
    distance,
)
from repro.instances.families import (
    beaded_path,
    clusters,
    coincident_pairs,
    grid_lattice,
    l1_diamond,
    two_clusters_bridge,
    uniform_disk,
)

coords = st.floats(-30, 30, allow_nan=False, allow_infinity=False)
point_lists = st.lists(st.tuples(coords, coords), min_size=2, max_size=40)


def _chain(n, step=1.0):
    return [Point(i * step, 0.0) for i in range(n)]


def _with_source(instance):
    return [instance.source, *instance.positions]


def dense_prim(points):
    """Reference ``ell_star``: dense ``O(n^2)`` Prim, weights by ``np.hypot``."""
    n = len(points)
    if n <= 1:
        return 0.0
    xs = np.asarray([p[0] for p in points], dtype=float)
    ys = np.asarray([p[1] for p in points], dtype=float)
    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)
    best[0] = 0.0
    bottleneck = 0.0
    for _ in range(n):
        masked = np.where(in_tree, np.inf, best)
        u = int(np.argmin(masked))
        bottleneck = max(bottleneck, float(masked[u]))
        in_tree[u] = True
        np.minimum(best, np.hypot(xs - xs[u], ys - ys[u]), out=best)
    return bottleneck


# Point sets drawn in unit-ish coordinates, then scaled by 1e-6 .. 1e6.
unit = st.floats(-1, 1, allow_nan=False)
scattered = st.lists(st.tuples(unit, unit), min_size=2, max_size=60)


@st.composite
def with_coincident(draw):
    """Scattered points, some repeated exactly."""
    pts = draw(scattered)
    copies = draw(st.lists(st.sampled_from(pts), min_size=1, max_size=20))
    return pts + copies


# Quarter-grid lattices: many exactly tied weights.
quarter_lattice = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=2, max_size=80
).map(lambda cells: [(i / 4, j / 4) for i, j in cells])


@st.composite
def two_blobs(draw):
    """Two dense blobs far apart: past the Kruskal rounds' candidate budget,
    so the contracted-Prim phase joins them."""
    gap = draw(st.floats(50, 1000))
    blob = st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
    near = draw(st.lists(blob, min_size=35, max_size=80))
    far = draw(st.lists(blob, min_size=35, max_size=80))
    return near + [(gap + x, y) for x, y in far]


point_sets = st.one_of(scattered, with_coincident(), quarter_lattice, two_blobs())
scales = st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6])


def _scaled(raw, scale):
    return [Point(x * scale, y * scale) for x, y in raw]


class TestAdjacency:
    def test_neighbors_symmetric(self):
        g = DiskGraph(_chain(5), delta=1.0)
        for i in range(5):
            for j in g.neighbors(i):
                assert i in g.neighbors(j)

    def test_neighbors_exclude_self(self):
        g = DiskGraph(_chain(3), delta=1.0)
        assert all(i not in g.neighbors(i) for i in range(3))

    def test_chain_adjacency(self):
        g = DiskGraph(_chain(4), delta=1.0)
        assert sorted(g.neighbors(1)) == [0, 2]

    def test_edges_weighted(self):
        g = DiskGraph([Point(0, 0), Point(0.5, 0)], delta=1.0)
        edges = list(g.edges())
        assert edges == [(0, 1, pytest.approx(0.5))]

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            DiskGraph([Point(0, 0)], delta=0.0)


class TestAdjacencyMatchesQueryBall:
    """``neighbors(i)`` is ``query_ball``'s answer, order included."""

    @staticmethod
    def assert_matches(pts, delta):
        graph = DiskGraph(pts, delta)
        index = GridHash.from_points(pts, delta)
        for i, p in enumerate(pts):
            expected = [j for j, _ in index.query_ball(p, delta) if j != i]
            assert graph.neighbors(i) == expected, i

    @pytest.mark.parametrize(
        "instance, delta",
        [
            # Points on cell boundaries: query_ball scans four columns or
            # rows there, where a plain 3x3 block scans three.
            (grid_lattice(30, 1 / 3), 1 / 3),
            (beaded_path(200, 0.1), 0.1),
            (l1_diamond(300, 6.0, pitch=0.1), 0.1),
        ],
        ids=["grid_lattice", "beaded_path", "l1_diamond"],
    )
    def test_lattice_families(self, instance, delta):
        self.assert_matches(_with_source(instance), delta)

    def test_neighbours_two_cells_apart(self):
        # 1.0000000000000002 apart: inside the 1 + EPS closed ball, yet
        # cells 0 and 2 of the unit grid.
        pts = [Point(0.9999999999999999, 0.0), Point(2.0, 0.0)]
        assert DiskGraph(pts, 1.0).neighbors(0) == [1]
        self.assert_matches(pts, 1.0)

    def test_coincident_points(self):
        self.assert_matches(_with_source(coincident_pairs(200, 4.0, seed=1)), 0.5)

    @settings(max_examples=100, deadline=None)
    @given(scattered, scales, st.floats(1e-3, 3.0))
    def test_random_points(self, raw, scale, relative_delta):
        self.assert_matches(_scaled(raw, scale), relative_delta * scale)

    @settings(max_examples=50, deadline=None)
    @given(quarter_lattice, st.sampled_from([0.25, 0.5, 1 / 3, 1.0]))
    def test_lattice_points(self, raw, delta):
        self.assert_matches([Point(x, y) for x, y in raw], delta)


class TestConnectivity:
    def test_chain_connected_iff_delta_ge_step(self):
        pts = _chain(6, step=2.0)
        assert not DiskGraph(pts, delta=1.9).is_connected()
        assert DiskGraph(pts, delta=2.0).is_connected()

    def test_connected_components_split(self):
        pts = _chain(3) + [Point(100, 0), Point(100.5, 0)]
        comps = connected_components(pts, delta=1.0)
        sizes = sorted(len(c) for c in comps)
        assert sizes == [2, 3]

    @given(point_lists)
    def test_bottleneck_is_tight(self, raw):
        pts = [Point(x, y) for x, y in raw]
        threshold = bottleneck_connectivity(pts)
        assert DiskGraph(pts, max(threshold, 1e-9) * (1 + 1e-9)).is_connected()

    @given(point_lists)
    def test_bottleneck_minus_epsilon_disconnects(self, raw):
        pts = [Point(x, y) for x, y in raw]
        threshold = bottleneck_connectivity(pts)
        # The property only holds when the relative decrement dominates the
        # global EPS query slack: for a tiny threshold (e.g. ~6e-5, found
        # by hypothesis), threshold*1e-6 < EPS and the closed-ball
        # tolerance legitimately keeps the graph connected.
        if threshold * 1e-6 > 3e-9:
            assert not DiskGraph(pts, threshold * (1 - 1e-6)).is_connected()

    def test_bottleneck_trivial(self):
        assert bottleneck_connectivity([]) == 0.0
        assert bottleneck_connectivity([Point(3, 3)]) == 0.0
        assert bottleneck_connectivity([Point(3, 3)] * 4) == 0.0

    def test_bottleneck_chain_equals_step(self):
        assert bottleneck_connectivity(_chain(5, step=1.5)) == pytest.approx(1.5)


class TestBottleneckMatchesDensePrim:
    """The grid Kruskal is exact: ``==`` to the dense Prim oracle."""

    @settings(max_examples=200, deadline=None)
    @given(point_sets, scales)
    def test_property(self, raw, scale):
        pts = _scaled(raw, scale)
        assert bottleneck_connectivity(pts) == dense_prim(pts)

    @pytest.mark.parametrize(
        "instance",
        [
            clusters(600, 3, 30.0, seed=4),
            clusters(600, 12, 30.0, seed=1),
            two_clusters_bridge(300, 20.0, 0.5, seed=1),
            grid_lattice(20, 1 / 3),
            beaded_path(150, 0.1),
            coincident_pairs(300, 5.0, seed=2),
        ],
        ids=lambda instance: instance.name,
    )
    def test_families(self, instance):
        pts = _with_source(instance)
        assert bottleneck_connectivity(pts) == dense_prim(pts)

    def test_far_blobs_take_the_contracted_prim(self, monkeypatch):
        calls = []
        real = diskgraph_module._contracted_prim

        def spy(xs, ys, label):
            calls.append(len(set(label.tolist())))
            return real(xs, ys, label)

        monkeypatch.setattr(diskgraph_module, "_contracted_prim", spy)
        blob = [(0.01 * (k % 7), 0.01 * (k // 7)) for k in range(70)]
        pts = _scaled(blob + [(500.0 + x, y) for x, y in blob], 1.0)
        assert bottleneck_connectivity(pts) == dense_prim(pts)
        assert calls and calls[0] >= 2


class TestShortestPaths:
    def test_dijkstra_chain(self):
        g = DiskGraph(_chain(5), delta=1.0)
        dist = g.shortest_path_lengths(0)
        assert dist == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0])

    def test_dijkstra_unreachable(self):
        g = DiskGraph([Point(0, 0), Point(10, 0)], delta=1.0)
        dist = g.shortest_path_lengths(0)
        assert math.isinf(dist[1])

    def test_dijkstra_takes_shortcut(self):
        # Diagonal shortcut shorter than the two-step path.
        pts = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0.6, 0.6)]
        g = DiskGraph(pts, delta=1.0)
        dist = g.shortest_path_lengths(0)
        assert dist[2] <= distance(pts[0], pts[3]) + distance(pts[3], pts[2]) + 1e-9

    def test_hop_distances(self):
        g = DiskGraph(_chain(4), delta=1.0)
        assert g.hop_distances(0) == [0, 1, 2, 3]
        g2 = DiskGraph([Point(0, 0), Point(5, 0)], delta=1.0)
        assert g2.hop_distances(0)[1] == -1


def test_instance_parameters_pinned():
    """``(rho_star, ell_star, xi(1.0))`` of the ``record_agrid`` instance,
    byte for byte as the dense Prim and the GridHash-backed Dijkstra
    computed them."""
    inst = uniform_disk(5000, 12.0, seed=0)
    assert (inst.rho_star, inst.ell_star, inst.xi(1.0)) == (
        11.997395222929633,
        0.6389724817891445,
        12.136707511830593,
    )
