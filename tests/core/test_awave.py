"""AWave integration: single-cell and multi-cell waves, energy budget."""

import pytest

from repro.core.awave import (
    awave_cell_width,
    awave_energy_budget,
    awave_round_start,
    awave_window,
    effective_ell,
)
from repro.core.runner import run_awave
from repro.instances import beaded_path, uniform_disk


class TestArithmetic:
    def test_effective_ell_clamp(self):
        assert effective_ell(1) == 4
        assert effective_ell(4) == 4
        assert effective_ell(7) == 7

    def test_cell_width_formula(self):
        # R = 8 * ell^2 * log2(ell) with the clamp.
        assert awave_cell_width(4) == pytest.approx(8 * 16 * 2)
        assert awave_cell_width(1) == pytest.approx(8 * 16 * 2)
        assert awave_cell_width(8) == pytest.approx(8 * 64 * 3)

    def test_window_shape_ell2_log_ell(self):
        # Θ(ell^2 log ell): growth between ell and 2*ell is between
        # quadratic-ish factors, far below the Θ(ell^4)-ish of R^2.
        ratio = awave_window(8) / awave_window(4)
        assert 2.0 < ratio < 8.0

    def test_round_starts_monotone(self):
        starts = [awave_round_start(4, r) for r in range(1, 5)]
        assert starts == sorted(starts)

    def test_energy_budget_positive_and_scaling(self):
        assert awave_energy_budget(4) > 0
        assert awave_energy_budget(8) > awave_energy_budget(4)


class TestSingleCell:
    @pytest.mark.slow
    def test_single_cell_instance(self):
        """All robots in the source cell: round 0 wakes everyone, the wave
        dies at round 1 (team gathers, may or may not proceed)."""
        inst = uniform_disk(n=40, rho=10.0, seed=7)
        run = run_awave(inst, ell=4)
        assert run.woke_all
        # Round 0 is a plain scoped ASeparator: all wakes happen well
        # before the first wave round's windows.
        assert run.makespan < awave_round_start(4, 1)

    def test_tiny_instance(self):
        from repro.geometry import Point
        from repro.instances import Instance

        inst = Instance(positions=(Point(1.0, 1.0), Point(2.0, 1.0)), name="tiny")
        run = run_awave(inst, ell=4)
        assert run.woke_all


class TestMultiCell:
    @pytest.mark.slow
    def test_wave_crosses_cells(self):
        """A corridor spanning >1 cell: the wave must propagate."""
        # Cell width for ell=4 is 256; span ~1.5 cells.
        inst = beaded_path(n=110, spacing=3.5)
        assert inst.rho_star > awave_cell_width(4) / 2.0
        run = run_awave(inst, ell=4)
        assert run.woke_all
        # Robots beyond the source cell wake during wave rounds >= 1.
        far_wakes = [
            t
            for rid, t in run.result.wake_times.items()
            if rid != 0 and inst.positions[rid - 1].x > awave_cell_width(4) / 2
        ]
        assert far_wakes
        assert min(far_wakes) > awave_round_start(4, 1)

    @pytest.mark.slow
    def test_energy_within_theorem5_budget(self):
        inst = beaded_path(n=110, spacing=3.5)
        run = run_awave(inst, ell=4)
        assert run.max_energy <= awave_energy_budget(4)
