"""Self-test of the benchmark: a short run emits every declared metric with its
unit, and a deliberately wrong expectation trips the output checks.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=run.ROOT, script=run.HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, timeout=600, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_emits_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out.stdout
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "loopback, not a real link" in out.stdout


def test_fails_without_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "train_sim", "--seed", "1", "--seconds", "0", "--trace", "0",
                cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


@pytest.fixture
def workloads():
    run.import_gradcomm()
    import workloads

    return workloads


def run_with_wrong_expectation(monkeypatch, workloads, tmp_path, name, function):
    real = getattr(workloads, function)
    monkeypatch.setattr(workloads, function, lambda *args: real(*args) + 1)
    tally = workloads.run(name, 7, 0, False, run.SRC, tmp_path)["tally"]
    assert tally.failed >= 1
    assert tally.failed / tally.attempted > 0
    return tally.failures


def test_off_by_one_k_star_trips_check(monkeypatch, workloads, tmp_path):
    failures = run_with_wrong_expectation(monkeypatch, workloads, tmp_path,
                                          "pipeline", "brute_force_k_star")
    assert any(f.startswith("select:") for f in failures)
    assert any("brute-force argmin" in f for f in failures)


def test_extra_uplink_bit_trips_check(monkeypatch, workloads, tmp_path):
    failures = run_with_wrong_expectation(monkeypatch, workloads, tmp_path,
                                          "train_sim", "expected_message_bits")
    assert sum("uplink_bits" in f for f in failures) == 2 * len(workloads.KINDS)
