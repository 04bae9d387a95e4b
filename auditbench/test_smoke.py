"""Smoke tests of the audit benchmark itself: ``python3 -m pytest auditbench``.

They run each workload on tiny inputs and check that the harness emits
every metric ``BENCHMARK.json`` names, with its unit, and that every report
passes its correctness check. They set no timing bound.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, str(cwd / "auditbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "auditbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "probe_50k", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children_only():
    spans = [
        {"id": 0, "name": "cli.main", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "discovery.beam", "parent": 0, "start": 1.0, "end": 7.0},
        {"id": 2, "name": "capacity.exact_correspondence", "parent": 1,
         "start": 2.0, "end": 5.0},
    ]
    assert tracer.self_times(spans) == {0: 4.0, 1: 3.0, 2: 3.0}
