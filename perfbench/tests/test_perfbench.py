"""The benchmark's own tests: output schema, output checks, exact counts.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each test runs ``perfbench/run.py`` from the repository root, with
short runs, and reads its last stdout line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, *extra, seed=3, seconds=1, trace=0, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def env_record(proc) -> dict:
    lines = proc.stdout.splitlines()
    return next(json.loads(line) for line in lines
                if line.startswith('{"env"'))["env"]


def check_schema(result, metric_specs) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert set(result["metrics"]) == {m["name"] for m in metric_specs}
    for spec in metric_specs:
        got = result["metrics"][spec["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == spec["unit"], spec["name"]
        assert isinstance(got["value"], float), spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke(workload):
    proc, result = bench(workload)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    check_schema(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    # end-to-end metrics are never 0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = env_record(proc)
    assert env["cpus"] and env["python"] and env["numpy"]
    assert env["carrier"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke(workload):
    proc, result = bench(workload, trace=1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    check_schema(result, SPEC["per_layer"])
    assert result["correct"]
    assert result["metrics"]["obs.trace_overhead"]["value"] > 0


def test_carrier_is_recorded():
    """pingpong crosses shm and halo crosses TCP, and the record says so."""
    for workload, carrier in (("pingpong", "shm"), ("halo", "tcp")):
        proc, _ = bench(workload, seconds=0.5)
        assert env_record(proc)["carrier"] == {"0": {"1": carrier}, "1": {"0": carrier}}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_corrupted_byte_fails_the_run(workload, trace):
    proc, result = bench(workload, "--corrupt", trace=trace)
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0
    assert "FAILED: " in proc.stdout
    if trace:
        assert result["metrics"]["failed_frac"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_calls_per_msg_repeat_exactly(workload):
    """The most common path through the stack repeats from run to run."""
    runs = [bench(workload, trace=1, seed=seed)[1] for seed in (5, 6)]
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if k.endswith(".calls_per_msg")} for r in runs]
    assert len(counts[0]) == 6
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench(WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
