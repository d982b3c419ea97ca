"""Campaigns: determinism across reruns and backends, corpus persistence."""

import pytest

from repro.fuzz import CorpusDatabase, run_campaign
from repro.experiments.faults import FAULTS_ENV


def normalized(report):
    payload = report.as_dict()
    payload.pop("elapsed")
    payload.pop("executor")
    return payload


class TestDeterminism:
    def test_same_seed_same_campaign(self):
        a = run_campaign(seed=9, max_runs=10)
        b = run_campaign(seed=9, max_runs=10)
        assert normalized(a) == normalized(b)
        assert a.runs == 10

    @pytest.mark.slow
    def test_backends_agree_byte_for_byte(self):
        """The PR-6 barrier discipline: constant batch size, settles folded
        in submission order — pool and serial produce the same campaign."""
        serial = run_campaign(seed=9, max_runs=24, executor="serial")
        pool = run_campaign(seed=9, max_runs=24, executor="pool", workers=4)
        assert normalized(serial) == normalized(pool)


class TestCleanEngine:
    def test_no_violations_on_the_shipped_engine(self):
        report = run_campaign(seed=3, max_runs=12)
        assert report.ok
        assert report.signatures >= 1
        assert report.novel >= 1
        assert report.violations_by_invariant == {}


class TestCorpusPersistence:
    def test_corpus_saved_and_resumed(self, tmp_path):
        path = tmp_path / "corpus.json"
        first = run_campaign(seed=5, max_runs=8, corpus_path=path)
        assert path.is_file()
        assert len(CorpusDatabase.load(path)) == first.signatures
        # A resumed campaign starts from the persisted signatures: the
        # corpus only grows, and repeats are not re-counted as novel.
        second = run_campaign(seed=6, max_runs=8, corpus_path=path)
        assert second.signatures >= first.signatures
        assert second.novel <= second.runs


class TestFaultCampaign:
    @pytest.mark.slow
    def test_planted_fault_is_found_and_minimized(self, tmp_path, monkeypatch):
        """The end-to-end acceptance loop: a planted engine bug is found
        by a small fixed-seed campaign and minimized to a tiny seed."""
        monkeypatch.setenv(FAULTS_ENV, "frontier-reach:margin=0.5")
        report = run_campaign(
            seed=0, max_runs=40, seeds_dir=tmp_path / "seeds"
        )
        assert not report.ok
        assert report.minimized
        for entry in report.minimized:
            kwargs = entry["config"]["scenario_kwargs"]
            n = kwargs.get("n", kwargs.get("side", 0) ** 2)
            assert n <= 12
        assert report.seed_files

    def test_stop_conditions_required(self):
        with pytest.raises(ValueError, match="max_runs"):
            run_campaign(seed=0)
