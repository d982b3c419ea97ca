"""Proposition 1 and Lemma 6 as property-based tests.

Prop 1: ``0 < ell* <= rho* <= xi_ell <= n * ell*`` for every instance and
``ell >= ell*``.  Lemma 6: every robot is reachable in at most
``1 + 2*xi_ell/ell`` hops of the ``ell``-disk graph.
"""

import math

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.geometry import (
    Point,
    connectivity_threshold,
    ell_eccentricity,
    hop_eccentricity,
    instance_parameters,
    is_admissible,
    radius,
)

coords = st.floats(-20, 20, allow_nan=False, allow_infinity=False)
swarms = st.lists(st.tuples(coords, coords), min_size=1, max_size=25)


def _points(raw):
    return [Point(x, y) for x, y in raw]


class TestProposition1:
    @given(swarms)
    def test_parameter_chain(self, raw):
        pts = _points(raw)
        source = Point(0.0, 0.0)
        ell_star = connectivity_threshold(source, pts)
        assume(ell_star > 1e-9)
        rho_star = radius(source, pts)
        xi = ell_eccentricity(source, pts, ell_star * (1 + 1e-9))
        n = len(pts)
        assert ell_star <= rho_star + 1e-9
        assert rho_star <= xi + 1e-9
        assert xi <= n * ell_star * (1 + 1e-6)

    @given(swarms, st.floats(1.0, 3.0))
    def test_xi_decreases_with_larger_ell(self, raw, factor):
        pts = _points(raw)
        source = Point(0.0, 0.0)
        ell_star = connectivity_threshold(source, pts)
        assume(ell_star > 1e-9)
        xi_tight = ell_eccentricity(source, pts, ell_star * (1 + 1e-9))
        xi_loose = ell_eccentricity(source, pts, ell_star * factor * (1 + 1e-9))
        assert xi_loose <= xi_tight + 1e-6

    def test_disconnected_gives_infinite_xi(self):
        pts = [Point(10.0, 0.0)]
        assert math.isinf(ell_eccentricity(Point(0, 0), pts, ell=1.0))

    def test_empty_swarm(self):
        assert ell_eccentricity(Point(0, 0), [], ell=1.0) == 0.0
        assert radius(Point(0, 0), []) == 0.0


class TestLemma6:
    @given(swarms)
    def test_hop_bound(self, raw):
        pts = _points(raw)
        source = Point(0.0, 0.0)
        ell_star = connectivity_threshold(source, pts)
        assume(ell_star > 1e-9)
        ell = ell_star * (1 + 1e-9)
        xi = ell_eccentricity(source, pts, ell)
        hops = hop_eccentricity(source, pts, ell)
        assert hops >= 0
        assert hops <= 1 + 2 * xi / ell + 1e-6

    @given(swarms)
    def test_xi_upper_bound_lemma6(self, raw):
        # xi_ell <= 12 * rho*^2 / ell  (Lemma 6).
        pts = _points(raw)
        source = Point(0.0, 0.0)
        ell_star = connectivity_threshold(source, pts)
        assume(ell_star > 1e-6)
        ell = ell_star * (1 + 1e-9)
        xi = ell_eccentricity(source, pts, ell)
        rho_star = radius(source, pts)
        assert xi <= 12.0 * rho_star * rho_star / ell + 1e-6


class TestAdmissibility:
    def test_is_admissible(self):
        assert is_admissible(1, 5, 10)
        assert not is_admissible(2, 1, 10)       # ell > rho
        assert not is_admissible(1, 20, 10)      # rho > n*ell
        assert not is_admissible(0, 0, 5)

    @given(swarms)
    def test_default_inputs_are_admissible(self, raw):
        pts = _points(raw)
        params = instance_parameters(Point(0.0, 0.0), pts)
        assume(params.ell_star > 1e-9)
        ell, rho, n = params.admissible_input()
        assert is_admissible(ell, rho, n)
        assert ell >= params.ell_star - 1e-9
        assert rho >= params.rho_star - 1e-9

    @given(swarms)
    def test_parameters_record(self, raw):
        pts = _points(raw)
        params = instance_parameters(Point(0.0, 0.0), pts)
        assert params.n == len(pts)
        if params.connected:
            assert params.xi_ell < math.inf
