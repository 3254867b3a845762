"""Smoke test of the benchmark on tiny inputs (n=2000, M=20, 4 draws, lattice 10).

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_emitted_with_unit_and_no_errors(trace, kind):
    rc, lines, err = run_bench("--smoke", "--seconds", "1", "--trace", trace)
    assert rc == 0, err
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    error_rates = [line for line in lines if line.strip().startswith("error_rate")]
    assert len(error_rates) == len(WORKLOADS)
    assert all(line.split()[1] == "0" for line in error_rates), error_rates
    for wl in WORKLOADS:
        for m in SPEC[kind]:
            got = result["metrics"][f"{wl}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
            if kind == "end_to_end":
                assert got["value"] > 0
    assert len(result["metrics"]) == len(WORKLOADS) * len(SPEC[kind])


def test_single_workload_reports_exactly_the_declared_metrics():
    rc, lines, err = run_bench("--smoke", "--workload", "bounds_lattice", "--seed", "3",
                               "--seconds", "1", "--trace", "0")
    assert rc == 0, err
    result = json.loads(lines[-1])
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    env = json.loads(lines[0].removeprefix("env "))
    assert {"nproc", "python", "numpy", "git_commit", "argv"} <= set(env)


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    rc, lines, _ = run_bench("--workload", "estimate_boot", "--seconds", "1", cwd=tmp_path)
    assert rc != 0
    assert not lines or not lines[-1].startswith("{")
