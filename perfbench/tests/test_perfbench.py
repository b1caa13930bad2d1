"""Self-tests of the benchmark: tiny runs of every workload, the negative
control, and the failure in a tree without the program.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def result_line(completed):
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names += [metric["name"] for metric in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(metric["unit"]) for metric in metrics)
    assert all(metric["better"] in ("higher", "lower") for metric in metrics)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    assert 1 <= len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    completed = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                      "--trace", str(trace), "--tiny")
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = result_line(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in section
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_golden_fails_the_run(workload):
    completed = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                      "--trace", "0", "--tiny", "--corrupt-golden")
    assert completed.returncode != 0
    result = result_line(completed)
    assert result["correct"] is False and result["failed"] >= 1


def test_tree_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path, timeout=180)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
