"""Experiment harness: every table/figure function produces sane rows."""

from pathlib import Path

from repro.experiments import (
    agrid_xi_sweep,
    aseparator_ell_sweep,
    aseparator_rho_sweep,
    energy_infeasibility_sweep,
    exploration_scaling,
    fit_aseparator_shape,
    format_table,
    lower_bound_experiment,
    phase_durations_by_label,
    phase_timeline,
    write_csv,
)
from repro.instances import uniform_disk


class TestTable1Rows:
    def test_rho_sweep_rows(self):
        rows = aseparator_rho_sweep(rhos=(6.0, 10.0), seeds=(0,))
        assert len(rows) == 2
        assert all(r["woke_all"] for r in rows)
        assert rows[1]["makespan"] > rows[0]["makespan"] * 0.5
        fit = fit_aseparator_shape(rows)
        assert fit.r2 > -1.0  # fit runs; quality asserted in benches

    def test_ell_sweep_rows(self):
        rows = aseparator_ell_sweep(ells=(1, 2), side=5)
        assert len(rows) == 2
        assert all(r["woke_all"] for r in rows)
        # The ell^2 log feature and the makespan grow with ell.
        assert rows[1]["ell2log"] > rows[0]["ell2log"]
        assert rows[1]["makespan"] > rows[0]["makespan"]

    def test_agrid_sweep_flat_ratio(self):
        rows = agrid_xi_sweep(lengths=(10, 20))
        assert all(r["woke_all"] for r in rows)
        assert all(r["max_energy"] <= r["energy_budget"] for r in rows)
        ratios = [r["makespan/xi"] for r in rows]
        assert max(ratios) <= 3.0 * min(ratios)

    def test_energy_infeasibility_shape(self):
        rows = energy_infeasibility_sweep(
            ell=3, budget_factors=(0.2, 1.0, 4.0), resolution=6
        )
        coverages = [r["coverage"] for r in rows]
        assert coverages == sorted(coverages)
        assert coverages[0] < 0.6
        # Below the Thm 3 threshold the adversary always hides.
        assert rows[0]["adversary_hides"] and rows[1]["adversary_hides"]


class TestFigures:
    def test_phase_timeline_rows(self):
        rows = phase_timeline(uniform_disk(n=40, rho=10.0, seed=1))
        labels = {r["label"] for r in rows}
        assert "asep:init" in labels
        assert any(r["label"] == "TOTAL(makespan)" for r in rows)
        assert all(r["duration"] >= -1e-9 for r in rows)

    def test_phase_durations_sum(self):
        durations = phase_durations_by_label(uniform_disk(n=40, rho=10.0, seed=1))
        total = durations.pop("TOTAL(makespan)")
        assert total > 0

    def test_exploration_scaling_rows(self):
        rows = exploration_scaling(shapes=((6, 6),), team_sizes=(1, 3))
        assert rows[0]["time"] > rows[1]["time"]  # teamwork helps
        assert all(r["time"] <= r["bound"] for r in rows)

    def test_lower_bound_experiment_row(self):
        rows = lower_bound_experiment(ells=(2,), rho_factor=3.0, resolution=2)
        row = rows[0]
        assert row["connected"]
        assert row["m"] >= row["m_floor(1+rho^2/ell^2)"] - 1
        assert row["woke_all"]
        assert row["adversarial_makespan"] > 0


class TestIO:
    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}], "T")
        assert "T" in text and "a" in text and "0.125" in text

    def test_format_empty(self):
        assert "(no rows)" in format_table([])

    def test_write_csv(self, tmp_path):
        path = write_csv(tmp_path / "out" / "rows.csv", [{"x": 1}, {"x": 2}])
        content = Path(path).read_text().strip().splitlines()
        assert content == ["x", "1", "2"]

    def test_write_csv_empty(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", [])
        assert Path(path).read_text() == ""
