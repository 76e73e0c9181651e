"""Smoke test of the benchmark: tiny runs that pin its output schema.

It checks names, units and correctness only, never timings. Run it with
``python3 -m pytest -q perfbench/test_smoke.py`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXTRAS = {
    "pair-round": set(),
    "commit-open": {"commit_ms.p50", "open_ms.p50", "open_timing_skew"},
    "sense": {"fp_agreement"},
}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_schema(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))

    report = json.loads(next(line for line in lines if line.startswith("report "))[7:])
    env = report["environment"]
    assert {"python", "numpy", "scipy", "nproc", "thread_env", "git_sha", "seed"} <= set(env)
    if trace:
        assert report["absent"] == []
        assert (ROOT / report["spans_file"]).is_file()
    else:
        wall = {"op_ms.p50", "op_ms.p90", "op_ref.p90", "ops_per_s", "fail_frac", "output_digest"}
        assert wall | EXTRAS[workload] <= set(report)


def test_fails_without_sources(tmp_path):
    """A directory holding only the benchmark has nothing to measure."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
