"""Committed regression seeds: deterministic replay and byte stability."""

import json
from pathlib import Path

import pytest

from repro.fuzz import (
    FuzzConfig,
    iter_seed_files,
    load_seed,
    replay_seeds,
    write_seed,
)

SEEDS_DIR = Path(__file__).resolve().parent / "seeds"


class TestCommittedSeeds:
    def test_directory_is_populated(self):
        assert len(iter_seed_files(SEEDS_DIR)) >= 1

    def test_every_committed_seed_replays_clean(self):
        """The fast-tier regression gate: a committed seed is a bug that
        was fixed — the current engine must pass every one of them."""
        report = replay_seeds([SEEDS_DIR])
        assert report.checked == len(iter_seed_files(SEEDS_DIR))
        assert report.ok, report.failures

    def test_committed_seeds_are_byte_stable(self, tmp_path):
        """Rewriting an unchanged seed is a no-op diff: the file name is
        the config id and the payload serialization is canonical."""
        for path in iter_seed_files(SEEDS_DIR):
            config, payload = load_seed(path)
            rewritten = write_seed(
                tmp_path,
                config,
                payload["violations_when_minted"],
                note=payload["note"],
            )
            assert rewritten.name == path.name
            assert rewritten.read_bytes() == path.read_bytes()

    def test_committed_seeds_are_tiny(self):
        for path in iter_seed_files(SEEDS_DIR):
            config, _ = load_seed(path)
            assert config.n_hint is not None and config.n_hint <= 12


class TestSeedIO:
    def test_write_load_round_trip(self, tmp_path):
        config = FuzzConfig(
            "awave", "uniform_disk", {"n": 2, "rho": 1.0, "seed": 0}
        )
        violations = [{"invariant": "wake-completeness", "message": "x"}]
        path = write_seed(tmp_path, config, violations, note="unit test")
        assert path.name == f"{config.config_id()}.json"
        loaded, payload = load_seed(path)
        assert loaded == config
        assert payload["violations_when_minted"] == violations
        assert payload["note"] == "unit test"

    def test_unsupported_schema_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 99, "config": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_seed(bad)

    def test_iter_seed_files_sorted_and_missing_dir_empty(self, tmp_path):
        assert iter_seed_files(tmp_path / "nope") == []
        names = [p.name for p in iter_seed_files(SEEDS_DIR)]
        assert names == sorted(names)

    def test_replay_flags_a_failing_seed(self, tmp_path, monkeypatch):
        from repro.experiments.faults import FAULTS_ENV

        config = FuzzConfig(
            "awave", "uniform_disk", {"n": 8, "rho": 4.0, "seed": 3}
        )
        path = write_seed(tmp_path, config, [], note="planted")
        monkeypatch.setenv(FAULTS_ENV, "frontier-reach:margin=0.5")
        report = replay_seeds([path])
        assert not report.ok
        assert report.failures[0]["seed_file"] == str(path)
