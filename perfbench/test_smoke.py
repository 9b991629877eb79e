"""Smoke test of the benchmark at tiny trial counts.

Every workload runs traced and untraced and must print every metric that
BENCHMARK.json names, with its unit, in a correct result. Run with

    python3 -m pytest perfbench
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

# fig1-desk-w2 needs at least two trials per worker to use its pool; verify
# needs enough trials for its slope fits to pass on the smoke seed.
TINY_TRIALS = {"fig1-desk": 2, "fig2-desk": 2, "fig1-desk-w2": 4, "verify": 100}
SEED = 7


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--trials", str(TINY_TRIALS[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out.stdout
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == named
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"]
    if not trace:
        for name in ("rejected_frac", "failed_frac", "rate_drift_max"):
            if name != "rejected_frac" or workload != "verify":
                assert f"check {name} = " in out.stdout


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _run(tmp_path, "fig1-desk", 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
