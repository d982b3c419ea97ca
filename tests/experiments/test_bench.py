"""The tracked-baseline machinery: workloads, measurement, tolerance gate."""

import json

import pytest

from repro.experiments.bench import (
    BenchWorkload,
    Measurement,
    SuiteReport,
    baseline_path,
    bench_workloads,
    compare,
    measure,
    run_suite,
)


def tiny_workload(name="tiny", suite="engine", tier="quick", events=7):
    return BenchWorkload(
        name=name, suite=suite, tier=tier, repeat=2,
        runner=lambda: events, meta={"kind": "test"},
    )


class TestRegistry:
    def test_shipped_workloads_well_formed(self):
        names = [w.name for w in bench_workloads()]
        assert len(names) == len(set(names))
        suites = {w.suite for w in bench_workloads()}
        assert suites == {"engine", "scale"}
        # The acceptance workloads exist under stable names.
        assert "move_look_cycle" in names
        assert "agrid_uniform_100k" in names
        assert "awave_uniform_5k" in names
        assert "awave_uniform_20k" in names
        # The CI-gated AWave scale point rides the quick tier.
        by_name = {w.name: w for w in bench_workloads()}
        assert by_name["awave_uniform_5k"].tier == "quick"

    def test_bad_suite_or_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            BenchWorkload("x", "nope", "quick", lambda: 0)
        with pytest.raises(ValueError, match="unknown tier"):
            BenchWorkload("x", "engine", "sometimes", lambda: 0)
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope")
        with pytest.raises(ValueError, match="unknown tier"):
            run_suite("engine", tier="later")


class TestMeasurement:
    def test_measure_returns_best_of_repeat(self):
        m = measure(tiny_workload())
        assert m.name == "tiny"
        assert m.events == 7
        assert m.wall_s >= 0.0
        assert m.events_per_s > 0.0
        assert m.peak_rss_mb > 0.0

    def test_run_suite_tier_filter(self):
        pool = [
            tiny_workload("a", tier="quick"),
            tiny_workload("b", tier="full"),
        ]
        quick = run_suite("engine", tier="quick", workloads=pool)
        assert [m.name for m in quick.measurements] == ["a"]
        full = run_suite("engine", tier="full", workloads=pool)
        assert [m.name for m in full.measurements] == ["a", "b"]

    def test_report_roundtrip(self, tmp_path):
        report = run_suite(
            "engine", workloads=[tiny_workload("a"), tiny_workload("b")]
        )
        path = report.write(tmp_path)
        assert path == baseline_path("engine", tmp_path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1
        assert sorted(payload["workloads"]) == ["a", "b"]
        assert payload["workloads"]["a"]["meta"] == {"kind": "test"}

    def test_quick_rewrite_preserves_full_tier_entries(self, tmp_path):
        """Refreshing with the quick tier must not drop committed
        full-tier baselines (the 100k run) — merge-on-write."""
        pool = [tiny_workload("quick_w", tier="quick"),
                tiny_workload("full_w", tier="full")]
        run_suite("engine", tier="full", workloads=pool).write(tmp_path)
        full_payload = json.loads(baseline_path("engine", tmp_path).read_text())
        assert sorted(full_payload["workloads"]) == ["full_w", "quick_w"]

        run_suite("engine", tier="quick", workloads=pool).write(tmp_path)
        merged = json.loads(baseline_path("engine", tmp_path).read_text())
        assert sorted(merged["workloads"]) == ["full_w", "quick_w"]
        assert merged["tier"] == "full"  # still a full-tier baseline
        assert (
            merged["workloads"]["full_w"]
            == full_payload["workloads"]["full_w"]
        )


def report_with(name_to_wall):
    return SuiteReport(
        suite="engine",
        tier="quick",
        measurements=[
            Measurement(
                name=name, wall_s=wall, events=100,
                events_per_s=100.0 / wall, peak_rss_mb=10.0, meta={},
            )
            for name, wall in name_to_wall.items()
        ],
    )


def baseline_with(name_to_wall):
    return report_with(name_to_wall).as_dict()


class TestCompareGate:
    def test_within_tolerance_passes(self):
        deltas, ok = compare(
            baseline_with({"a": 1.0}), report_with({"a": 1.2}), tolerance=0.25
        )
        assert ok
        assert [d.kind for d in deltas] == ["ok"]

    def test_regression_fails(self):
        deltas, ok = compare(
            baseline_with({"a": 1.0}), report_with({"a": 1.3}), tolerance=0.25
        )
        assert not ok
        assert [d.kind for d in deltas] == ["regression"]
        assert "REGRESSION" in deltas[0].line()

    def test_improvement_passes_but_flags(self):
        deltas, ok = compare(
            baseline_with({"a": 1.0}), report_with({"a": 0.5}), tolerance=0.25
        )
        assert ok
        assert [d.kind for d in deltas] == ["improvement"]

    def test_new_and_missing_pass(self):
        deltas, ok = compare(
            baseline_with({"gone": 1.0}), report_with({"fresh": 1.0})
        )
        assert ok
        kinds = sorted(d.kind for d in deltas)
        assert kinds == ["missing", "new"]

    def test_exact_boundary_is_ok(self):
        # rel == tolerance must pass (gate is strict-greater).
        deltas, ok = compare(
            baseline_with({"a": 1.0}), report_with({"a": 1.25}), tolerance=0.25
        )
        assert ok


class TestEngineWorkloadsSmoke:
    def test_move_look_cycle_small(self):
        from repro.experiments.bench import run_move_look_cycle
        from repro.sim import NullTrace

        events = run_move_look_cycle(cycles=50, n=200, trace=NullTrace())
        assert events > 50

    def test_scale_request_small(self):
        from repro.experiments.bench import run_scale_request

        events = run_scale_request(
            "agrid", n=40, rho=8.0, params={"ell": 2, "rho": 8.0}
        )
        assert events > 0


class TestCli:
    def test_bench_write_and_check(self, tmp_path, monkeypatch, capsys):
        from repro import cli
        from repro.experiments import bench as bench_mod

        pool = (tiny_workload("a"),)
        monkeypatch.setattr(bench_mod, "bench_workloads", lambda: pool)
        rc = cli.main(["bench", "--suite", "engine", "--out", str(tmp_path)])
        assert rc == 0
        assert baseline_path("engine", tmp_path).exists()
        rc = cli.main(
            ["bench", "--suite", "engine", "--out", str(tmp_path), "--check"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "tolerance" in out

    def test_bench_check_missing_baseline_fails(self, tmp_path, monkeypatch):
        from repro import cli
        from repro.experiments import bench as bench_mod

        monkeypatch.setattr(
            bench_mod, "bench_workloads", lambda: (tiny_workload("a"),)
        )
        rc = cli.main(
            ["bench", "--suite", "engine", "--out", str(tmp_path), "--check"]
        )
        assert rc == 1
