"""Smoke test of the benchmark itself (not part of tier-1):

    python -m pytest benchmarks/e2e -q

Runs every workload at 1/50 scale for one second, untraced and traced,
through the same command line the driver uses.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

import spec

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.02"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_spec():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]] == list(spec.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == list(spec.PER_LAYER)
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"]
                                       for m in BENCHMARK["end_to_end"]]
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name
        assert entry["unit"] == spec.END_TO_END_UNITS[name]


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(workload):
    result = _run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"]
                                       for m in BENCHMARK["per_layer"]]
    if workload != "serve_mix":
        low, high = spec.LAYERS_SUM_RANGE
        assert low <= result["metrics"]["bench.layers_sum_frac"]["value"] <= high
    trace = json.loads((HERE / "out" / f"trace.{workload}.json").read_text())
    assert trace["columns"] == ["name", "start_us", "end_us", "parent",
                                "query_id"]
    assert trace["spans"]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command fails and
    prints no result."""
    (tmp_path / "benchmarks" / "e2e").mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (tmp_path / "benchmarks" / "e2e" / source.name).write_text(
            source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "tc_sim_1k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()
