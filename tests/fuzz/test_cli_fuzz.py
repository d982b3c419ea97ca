"""`freezetag fuzz` CLI: parsing, exit codes, JSON contracts."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.fuzz import FuzzConfig
from repro.experiments.faults import FAULTS_ENV

SEEDS_DIR = Path(__file__).resolve().parent / "seeds"


class TestParser:
    def test_fuzz_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["fuzz", "run"])
        assert args.seed == 0 and args.max_runs is None
        assert args.time_budget is None and args.workers == 1
        assert args.max_n == 48 and not args.json

    def test_replay_takes_paths(self):
        args = build_parser().parse_args(["fuzz", "replay", "a", "b", "--json"])
        assert args.paths == ["a", "b"] and args.json


class TestRun:
    def test_clean_campaign_exits_zero_with_json(self, capsys):
        code = main(
            ["fuzz", "run", "--max-runs", "12", "--seed", "3", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["kind"] == "fuzz-campaign"
        assert payload["ok"] is True and payload["runs"] == 12

    def test_human_report_names_the_backend(self, capsys):
        code = main(
            ["fuzz", "run", "--max-runs", "8", "--seed", "3", "--quiet"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[serial]" in out and "clean" in out

    def test_hostile_campaign_is_clean(self, capsys):
        """Out-of-contract draws strand robots without tripping any
        invariant — the wake-completeness waiver in action end to end."""
        code = main(
            ["fuzz", "run", "--max-runs", "16", "--seed", "3",
             "--hostile", "--quiet", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True and payload["runs"] == 16

    def test_hostile_flag_defaults_off(self):
        args = build_parser().parse_args(["fuzz", "run"])
        assert args.hostile is False

    @pytest.mark.slow
    def test_planted_fault_exits_one(self, capsys, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "frontier-reach:margin=0.5")
        code = main(
            ["fuzz", "run", "--max-runs", "24", "--seed", "0",
             "--no-shrink", "--quiet", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["failures"]


class TestReplay:
    def test_committed_seeds_exit_zero(self, capsys):
        code = main(["fuzz", "replay", str(SEEDS_DIR), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["kind"] == "fuzz-replay"
        assert payload["checked"] >= 1 and payload["ok"] is True

    def test_fault_makes_replay_exit_one(self, capsys, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "frontier-reach:margin=0.5")
        code = main(["fuzz", "replay", str(SEEDS_DIR)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out


class TestMinimize:
    def _failing_config_file(self, tmp_path):
        config = FuzzConfig(
            "awave", "uniform_disk", {"n": 8, "rho": 4.0, "seed": 3}
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.as_dict()))
        return path

    def test_minimizes_a_bare_config_dict(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "frontier-reach:margin=0.5")
        seeds_out = tmp_path / "out"
        code = main(
            ["fuzz", "minimize", str(self._failing_config_file(tmp_path)),
             "--save-seeds", str(seeds_out), "--json"]
        )
        out = capsys.readouterr().out
        head, _, _tail = out.partition("\n  seed written:")
        payload = json.loads(head)
        assert code == 0
        assert payload["config"]["scenario_kwargs"]["n"] <= 12
        assert list(seeds_out.glob("*.json"))

    def test_passing_config_exits_one(self, tmp_path, capsys):
        code = main(["fuzz", "minimize", str(self._failing_config_file(tmp_path))])
        assert code == 1
        assert "violates nothing" in capsys.readouterr().out
