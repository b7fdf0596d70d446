"""Self-test of the benchmark: every workload at a tiny size, traced and not.

    python3 -m pytest perfbench -q

Checks the result line against BENCHMARK.json, that the end-to-end figures
are printed with units, that the output checks ran, and that the benchmark
refuses to report without the package sources.
"""

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PRINTED = ("setup_s", "wall_s", "runs_per_s", "bounds_per_s", "bound_p50_ms",
           "peak_rss_mb", "fail_frac")


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@functools.lru_cache(maxsize=None)
def tiny(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_matches_benchmark_json(workload, trace):
    _, result = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_figures_printed_and_checks_run(workload):
    lines, _ = tiny(workload, 0)
    names = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
    assert set(PRINTED) <= names
    checks = next(line for line in lines if line.strip().startswith("output checks"))
    assert int(checks.split()[2]) > 0


def test_every_layer_metric_measured_somewhere():
    values = {m["name"]: 0.0 for m in SPEC["per_layer"]}
    for workload in WORKLOADS:
        for name, got in tiny(workload, 1)[1]["metrics"].items():
            values[name] = max(values[name], abs(got["value"]))
    # reads 0 once the known defect is fixed
    values.pop("overshoot.known_defect_frac")
    assert [name for name, v in values.items() if v == 0.0] == []


def test_known_defect_checked_apart_from_the_rest():
    lines, result = tiny("bounds", 0)
    known = next(line for line in lines if line.strip().startswith("known-defect checks"))
    assert int(known.split()[2]) > 0
    assert result["correct"] is True


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert "metrics" not in done.stdout
