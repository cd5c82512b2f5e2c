"""Smoke test of the benchmark on tiny p lists.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json is
printed with its unit, that the traced run's self times plus the
unattributed remainder add up to its wall time, that a wrong reference is
counted as a failure, and that an incomplete checkout is refused.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, *extra, root=ROOT, check=True):
    smoke_p = ",".join(map(str, WORKLOADS[workload].smoke_p))
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--p", smoke_p, *extra]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=170)
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], name
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics(workload):
    stdout, result = bench(workload, 0)
    assert_metrics(result, BENCHMARK["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert "failed_frac" in stdout and "provenance" in stdout
    assert all(result["metrics"][m]["value"] > 0
               for m in ("wall_s", "setup_s", "peak_rss_mb", "pairs_per_s"))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_self_times_add_up(workload):
    stdout, result = bench(workload, 1)
    assert_metrics(result, BENCHMARK["per_layer"])
    assert result["correct"]
    # inclusive times not declared (zero on some workload) are still printed
    assert all(f"{key} " in stdout for key in tracing.INCLUSIVE)
    values = {k: m["value"] for k, m in result["metrics"].items()}
    total = sum(values[k] for k in tracing.SELF_BUCKETS)
    remainder = values["trace.unattributed_s"]
    assert 0 <= remainder < 0.01 * values["trace.wall_s"]
    assert total + remainder == pytest.approx(values["trace.wall_s"],
                                              rel=1e-9)
    assert values["solvers.factorizations"] >= values["solvers.eigsh_calls"]
    assert values["solvers.solves"] > 0


def test_wrong_reference_counts_as_failure(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    for entry in reference["workloads"]["torus_count"].values():
        entry["values"] = [v + 10 * entry["tol"] for v in entry["values"]]
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(reference))
    _, result = bench("torus_count", 0, "--reference", str(wrong))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_refuses_checkout_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("torus_count", 0, root=tmp_path, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
