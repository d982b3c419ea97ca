"""Instance container: parameters, inputs, world creation."""

import math

import pytest

from repro.geometry import Point
from repro.instances import Instance, uniform_disk
from repro.sim import WorldConfig


class TestConstruction:
    def test_build_normalizes(self):
        inst = Instance.build([(1, 2), (3.5, -1)], source=(0, 0), name="x")
        assert inst.positions == (Point(1.0, 2.0), Point(3.5, -1.0))
        assert inst.source == Point(0.0, 0.0)
        assert inst.n == 2

    def test_immutable(self):
        inst = Instance.build([(1, 1)])
        with pytest.raises(AttributeError):
            inst.positions = ()

    def test_repr_carries_name(self):
        inst = Instance.build([(1, 1)], name="mytest")
        assert "mytest" in repr(inst)


class TestParameters:
    def test_known_values_on_a_chain(self):
        inst = Instance.build([(1, 0), (2, 0), (3, 0)])
        assert inst.rho_star == pytest.approx(3.0)
        assert inst.ell_star == pytest.approx(1.0)
        assert inst.xi(1.0) == pytest.approx(3.0)

    def test_xi_infinite_when_disconnected(self):
        inst = Instance.build([(10, 0)])
        assert math.isinf(inst.xi(1.0))

    def test_default_inputs_admissible(self):
        inst = uniform_disk(n=30, rho=8.0, seed=0)
        ell, rho = inst.default_inputs()
        assert ell >= inst.ell_star
        assert rho >= inst.rho_star
        assert ell <= rho

    def test_default_inputs_slack(self):
        inst = uniform_disk(n=30, rho=8.0, seed=0)
        ell1, rho1 = inst.default_inputs()
        ell2, rho2 = inst.default_inputs(slack=2.0)
        assert ell2 >= ell1 and rho2 >= rho1


class TestWorld:
    def test_world_fresh_every_call(self):
        inst = Instance.build([(1, 0)])
        w1, w2 = inst.world(), inst.world()
        w1.mark_awake(1, 1.0, waker_id=0)
        assert w2.sleeping_count() == 1

    def test_world_budget_propagates(self):
        inst = Instance.build([(1, 0)])
        world = inst.world(config=WorldConfig(budget=5.0))
        assert world.robots[1].budget == 5.0
        assert world.source.budget == 5.0

    def test_translated(self):
        inst = Instance.build([(1, 0)], source=(0, 0))
        moved = inst.translated(10, -2)
        assert moved.source == Point(10, -2)
        assert moved.positions[0] == Point(11, -2)
        # Parameters are translation-invariant.
        assert moved.rho_star == pytest.approx(inst.rho_star)
