"""Workload generators: sizes, reproducibility, advertised structure."""

import pytest

from repro.instances import (
    annulus,
    beaded_path,
    clusters,
    connected_walk,
    grid_lattice,
    spiral,
    two_clusters_bridge,
    uniform_disk,
    uniform_square,
)

ALL_GENERATORS = [
    lambda: uniform_disk(n=30, rho=10.0, seed=1),
    lambda: uniform_square(n=30, half_width=8.0, seed=1),
    lambda: clusters(n=40, n_clusters=4, rho=12.0, seed=1),
    lambda: annulus(n=30, r_inner=4.0, r_outer=9.0, seed=1),
    lambda: beaded_path(n=20, spacing=1.5, seed=1),
    lambda: spiral(n=30, spacing=1.0),
    lambda: grid_lattice(side=5, spacing=2.0),
    lambda: connected_walk(n=25, step=1.0, seed=1),
    lambda: two_clusters_bridge(n=30, gap=15.0, spacing=2.0, seed=1),
]


class TestGeneric:
    @pytest.mark.parametrize("gen", ALL_GENERATORS)
    def test_reproducible(self, gen):
        assert gen().positions == gen().positions

    @pytest.mark.parametrize("gen", ALL_GENERATORS)
    def test_named(self, gen):
        assert gen().name and "(" in gen().name


class TestStructure:
    def test_uniform_disk_within_radius(self):
        inst = uniform_disk(n=200, rho=7.0, seed=3)
        assert inst.rho_star <= 7.0 + 1e-9
        assert inst.n == 200

    def test_uniform_square_bounds(self):
        inst = uniform_square(n=100, half_width=5.0, seed=2)
        assert all(abs(p.x) <= 5.0 and abs(p.y) <= 5.0 for p in inst.positions)

    def test_annulus_empty_center(self):
        inst = annulus(n=100, r_inner=4.0, r_outer=8.0, seed=2)
        assert all(4.0 - 1e-9 <= p.norm() <= 8.0 + 1e-9 for p in inst.positions)

    def test_beaded_path_exact_parameters(self):
        inst = beaded_path(n=10, spacing=2.0)
        assert inst.ell_star == pytest.approx(2.0)
        assert inst.rho_star == pytest.approx(20.0)
        assert inst.xi(2.0) == pytest.approx(20.0)

    def test_connected_walk_threshold(self):
        inst = connected_walk(n=50, step=1.5, seed=4)
        assert inst.ell_star <= 1.5 + 1e-9

    def test_grid_lattice_count_and_spacing(self):
        inst = grid_lattice(side=4, spacing=1.0)
        assert inst.n == 15  # 16 sites minus the source corner
        assert inst.ell_star == pytest.approx(1.0)

    def test_spiral_radius_grows(self):
        inst = spiral(n=80, spacing=1.0)
        radii = [p.norm() for p in inst.positions]
        assert radii[-1] > radii[0]
        # Connected at its pitch.
        assert inst.ell_star <= 1.2

    def test_two_clusters_bridge_bottleneck(self):
        inst = two_clusters_bridge(n=40, gap=20.0, spacing=2.0, seed=1)
        # The bridge pitch bounds the connectivity threshold.
        assert inst.ell_star <= 2.0 * 2.5
        assert inst.rho_star >= 18.0

    def test_clusters_pin_one_at_source(self):
        inst = clusters(n=40, n_clusters=4, rho=12.0, seed=5)
        nearest = min(p.norm() for p in inst.positions)
        assert nearest <= 4.0
