"""Tests of the benchmark itself, at tiny scenario sizes.

Run from the repository root (they are not part of the package test suite):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = {"count", "1/step", "bytes"}


def tiny_run(name: str, trace: bool, work: Path, seed: int = 3) -> dict:
    work.mkdir()
    return run.Run(WORKLOADS[name], seed, work, tiny=True).execute(0.0, trace)


def units(result: dict) -> dict:
    return {k: v["unit"] for k, v in result["metrics"].items()}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(name, tmp_path):
    result = tiny_run(name, False, tmp_path / "w")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    first = tiny_run(name, True, tmp_path / "a")
    second = tiny_run(name, True, tmp_path / "b")
    assert first["correct"] and second["correct"]
    assert units(first) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] in COUNT_UNITS}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["trace.analyses"] == WORKLOADS[name].trace_analyses


def test_scaler_rescales_to_the_reference_unit():
    from hostspeed import PROBE_UNIT_REF_S, Scaler, probe_unit

    wall, scaled = Scaler().measure(lambda: [probe_unit() for _ in range(100)])
    assert wall > 0
    assert scaled == pytest.approx(100 * PROBE_UNIT_REF_S, rel=0.3)


def test_tracer_restores_the_package(tmp_path):
    import invtrack.closed_loop
    import invtrack.trajectories

    before = (invtrack.closed_loop.observer_field, invtrack.trajectories.PermanentTrajectory.pose)
    tiny_run("loop-permanent", True, tmp_path / "w")
    after = (invtrack.closed_loop.observer_field, invtrack.trajectories.PermanentTrajectory.pose)
    assert before == after


def test_command_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-sweep",
         "--seed", "5", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("env ")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loop-permanent",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
