"""Self-checks of the benchmark itself.

Run from the repository root (takes a few minutes: every workload is run
twice, traced):

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("bench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, seed=0, trace=0):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=cwd,
    )


def _result(workload, seed=0, trace=0):
    done = _run(ROOT, workload, seed, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _metric_spec(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_untraced_line_reports_every_end_to_end_metric():
    result = _result("family-minorant", seed=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _metric_spec("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counts_repeat_exactly(workload):
    first = _result(workload, seed=3, trace=1)
    second = _result(workload, seed=3, trace=1)
    units = _metric_spec("per_layer")
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units
    counts = [k for k, unit in units.items() if unit == "count"]
    assert {k: first["metrics"][k]["value"] for k in counts} == {
        k: second["metrics"][k]["value"] for k in counts
    }
    assert (first["attempted"], first["failed"], first["correct"]) == (
        second["attempted"], second["failed"], second["correct"]
    )


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    done = _run(tmp_path, WORKLOADS[0])
    assert done.returncode != 0
    assert done.stdout.strip() == ""
