"""Self-test of the benchmark: every workload in smoke mode, both trace modes.

    python -m pytest bench/test_bench.py -q

Checks the last output line against the schema and against BENCHMARK.json:
exactly the end-to-end metrics with --trace 0, every per-layer metric with
--trace 1, and no failed op.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_schema(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    for m in expected:  # the human-readable lines name every metric too
        assert m["name"] in proc.stdout


def test_fails_without_sources(tmp_path):
    """In a directory with only the benchmark, it exits non-zero, no result."""
    subprocess.run(["cp", "-r", os.path.join(ROOT, "bench"), str(tmp_path / "bench")], check=True)
    subprocess.run(["cp", os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path)], check=True)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-cold", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
