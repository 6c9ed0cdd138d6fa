"""Fast self-check of the benchmark: at the tiny size, every workload prints
every metric that BENCHMARK.json names, with its unit, and fails no
operation; without the program's sources the benchmark refuses to run.

    python3 -m pytest perfbench/test_selfcheck.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed, trace, kind", [
    (1, 0, "end_to_end"),
    (2, 0, "end_to_end"),
    (1, 1, "per_layer"),
])
def test_emits_every_metric_without_failures(workload, seed, trace, kind):
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["attempted"] >= 1
    assert (result["failed"], result["correct"]) == (0, True), proc.stdout
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "error_rate 0.0 ratio" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 1, 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
