"""Smoke tests of the benchmark itself: every workload at smoke size.

Run with ``python3 -m pytest perfbench -q`` from the root of a checkout.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


def test_declared_metrics_match_the_code():
    run = _load_run_module()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }
    workloads = set(run.WORKLOADS)
    for name, (_, targets) in run.PER_LAYER.items():
        for metric, workload in targets:
            assert metric in run.END_TO_END, name
            assert workload in workloads, name


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, section):
    done = _run("--workload", "all", "--size", "smoke", "--seconds", "0", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    # failed_ratio = failed / attempted must be 0 (and, traced, every
    # record byte-identical to its untraced twin).
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    for workload in BENCHMARK["workloads"]:
        for metric in BENCHMARK[section]:
            entry = result["metrics"][f"{workload['name']}/{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
        assert f"{workload['name']}: " in done.stdout
    assert "failed_ratio=0 " in done.stdout


def test_digest_repeats_for_the_same_seed():
    digests = []
    for _ in range(2):
        done = _run("--workload", "sweep_cold", "--size", "smoke", "--seconds", "0")
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.split("records_sha256=")[1].split()[0])
    assert digests[0] == digests[1]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "record_agrid", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
