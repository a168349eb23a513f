"""Smoke test and self-checks of the benchmark.

Every workload runs at minimal size (one batch of its shipped size, so the
reference table applies) in both modes; each metric BENCHMARK.json names must
print with its unit, and the exact per-trial counts of the traced run must
repeat across seeds.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in CONTRACT["workloads"]]
EXACT = ("spectral.eig_n3", "xcorr.gram_mib")


def invoke(script, cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@functools.lru_cache(maxsize=None)
def bench(workload, seed, trace):
    proc = invoke(BENCH / "run.py", ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_contract_names_the_defined_workloads():
    assert sorted(NAMES) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_prints_with_its_unit(workload, trace):
    report, result = bench(workload, 0, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in CONTRACT["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {tuple(line.split()[::2]) for line in report if len(line.split()) == 3}
    for name, unit in expected.items():
        assert (name, unit) in printed
    assert any(line.startswith("environment: ") for line in report)
    compared = [line.split()[1] for line in report if line.startswith("reference: ")]
    assert compared and int(compared[0]) >= 1, "no pass was compared with reference.json"


@pytest.mark.parametrize("workload", NAMES)
def test_exact_counts_repeat_across_traced_runs(workload):
    first, second = (bench(workload, seed, 1)[1]["metrics"] for seed in (0, 1))
    counted = [name for name in first if name.endswith(".calls") or name in EXACT]
    assert len(counted) == 5
    for name in counted:
        assert first[name]["value"] == second[name]["value"], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke(tmp_path / BENCH.name / "run.py", tmp_path, NAMES[0], 0, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
