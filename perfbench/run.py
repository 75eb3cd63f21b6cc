"""invtrack benchmark: seeded CLI analyses, end-to-end timings, traced layers.

Usage, from the repository root:

    python3 perfbench/run.py --workload loop-permanent --seed 1 --seconds 20 --trace 0

One process, one client, one analysis at a time (a closed loop), with BLAS
pinned to one thread.  Each analysis is ``invtrack.cli.main`` called
in-process on a generated scenario file, timed from config parse to report
written, and the time rescaled to a reference host speed by probes taken
right before and after it (hostspeed.py).  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced pass.  The lines before it record the
environment and the details (sample counts, tail percentile, unscaled wall
times, reference check).  See README.md here.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported, here and in every child interpreter.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from hostspeed import PROBE_UNIT_REF_S, Scaler  # noqa: E402
from workloads import WORKLOADS, Workload, integration_steps, scenarios  # noqa: E402

SETUP_REPEATS = 7
# The child times itself on the monotonic clock, which it shares with the
# parent, and then probes its own host speed while its core is still busy (a
# probe in the parent, which sat idle while waiting, reads a waking core).
SETUP_PROBE_S = 0.05
SETUP_SNIPPET = (
    "import json, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import invtrack.cli\n"
    "from invtrack.scenario import parse_scenario\n"
    "with open(sys.argv[2], encoding='utf-8') as fh:\n"
    "    parse_scenario(json.load(fh))\n"
    "end = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[3])\n"
    "from hostspeed import probe\n"
    "print(end, probe(float(sys.argv[4])))\n"
)


def report_name(command: str) -> str:
    return "eigs.json" if command == "eigs" else "report.json"


def analyse(cli, command: str, config: Path, out: Path) -> bool:
    """One CLI analysis; True when it exits 0, which is a passing verdict."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--config", str(config), "--out", str(out)])
    return code == 0


def _close(a, b, rtol: float, atol: float) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], rtol, atol) for k in b)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y, rtol, atol) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, (int, float)):
        return a == b
    return isinstance(b, (int, float)) and abs(a - b) <= atol + rtol * abs(b)


def reference_outputs(cli, workload: Workload, work: Path) -> list[dict]:
    """Run the workload's fixed reference analyses and collect their outputs."""
    found = []
    for i, (command, doc) in enumerate(workload.reference):
        config = work / f"reference-{i}.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = work / f"reference-{i}"
        passed = analyse(cli, command, config, out)
        report = json.loads((out / report_name(command)).read_text(encoding="utf-8"))
        entry = {"command": command, "pass": passed, "metrics": report["metrics"]}
        if command == "simulate":
            rows = (out / "timeseries.csv").read_text(encoding="utf-8").splitlines()
            entry["final_row"] = [float(v) for v in rows[-1].split(",")]
        found.append(entry)
    return found


def check_reference(cli, workload: Workload, work: Path) -> tuple[bool, str]:
    """Compare the reference outputs with the ones recorded at the seed commit."""
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    tol = ref["tolerance"]
    try:
        found = reference_outputs(cli, workload, work)
    except Exception:  # a crash is a failed check, reported with its traceback
        return False, "reference analysis raised:\n" + traceback.format_exc()
    expected = ref["workloads"][workload.name]
    if len(found) != len(expected):
        return False, "reference entry count differs"
    for got, want in zip(found, expected):
        for key in want:
            if not _close(got.get(key), want[key], tol["rtol"], tol["atol"]):
                return False, f"{got['command']}: {key} differs from the seed commit"
    return True, f"{len(found)} reference analyses match within rtol={tol['rtol']} atol={tol['atol']}"


def measure_setup(config: Path, repeats: int) -> tuple[float, float]:
    """Median wall and scaled time of a fresh interpreter importing the CLI
    and parsing one scenario, from spawn to the scenario parsed."""
    walls, scaled = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(config), str(HERE), str(SETUP_PROBE_S)],
            check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        end, unit = (float(v) for v in proc.stdout.split())
        walls.append(end - start)
        scaled.append((end - start) * PROBE_UNIT_REF_S / unit)
    return statistics.median(walls), statistics.median(scaled)


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "host": f"{platform.machine()}-{hashlib.sha256(platform.node().encode()).hexdigest()[:8]}",
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
    }


def per_layer_metrics(tracer, runs: list[tuple[str, dict]], traced_p50: float, untraced_p50: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced pass."""
    n = len(runs)
    steps = {c: sum(integration_steps(cmd, doc) for cmd, doc in runs if cmd == c)
             for c in ("simulate", "ekf-compare", "mech-lemma")}
    loop_steps = steps["simulate"]

    def per_step(calls: int, total_steps: int) -> float:
        return calls / total_steps if total_steps else 0.0

    def per_analysis(names) -> float:
        return sum(tracer.self_s(name) for name in names) / n

    pose_names = tracer.matching(lambda s: s.startswith("trajectories.") and s.endswith(".pose"))
    pose_calls = sum(tracer.calls(s) for s in pose_names)
    se2_names = tracer.matching(lambda s: s.startswith("se2."))

    values = {
        "closed_loop.steps": (loop_steps, "count"),
        "closed_loop.simulate.self_s": (per_analysis(["closed_loop.simulate"]), "s"),
        "observer.observer_field.calls": (tracer.calls("observer.observer_field"), "count"),
        "observer.observer_field.self_s": (per_analysis(["observer.observer_field"]), "s"),
        "robot.measure_values.self_s": (per_analysis(["robot.measure_values"]), "s"),
    }
    for fn in ("feedback", "tracking_error"):
        name = f"controller.{fn}"
        values[f"{name}.calls"] = (tracer.calls(name), "count")
        values[f"{name}.self_s"] = (per_analysis([name]), "s")
        values[f"{name}.calls_per_step"] = (per_step(tracer.calls(name), loop_steps), "1/step")
    values.update({
        "trajectories.pose.calls": (pose_calls, "count"),
        "trajectories.pose.self_s": (per_analysis(pose_names), "s"),
        "trajectories.pose.calls_per_step": (per_step(pose_calls, loop_steps), "1/step"),
        "se2.self_s": (per_analysis(se2_names), "s"),
        "numerics.rk4_step.calls": (tracer.calls("numerics.rk4_step"), "count"),
        "numerics.rk4_step.self_s": (per_analysis(["numerics.rk4_step"]), "s"),
        "numerics.jacobian_fd.calls": (tracer.calls("numerics.jacobian_fd"), "count"),
        "numerics.jacobian_fd.columns": (tracer.arg_count("numerics.jacobian_fd"), "count"),
        "numerics.jacobian_fd.self_s": (per_analysis(["numerics.jacobian_fd"]), "s"),
        "numerics.eigenvalues.self_s": (per_analysis(["numerics.eigenvalues"]), "s"),
        "numerics.spectrum_match_distance.self_s": (per_analysis(["numerics.spectrum_match_distance"]), "s"),
        "closed_loop.separation_matrix.self_s": (per_analysis(["closed_loop.separation_matrix"]), "s"),
        "ekf.steps": (steps["ekf-compare"], "count"),
        "ekf.EkfState.calls": (tracer.calls("ekf.EkfState"), "count"),
        "ekf.EkfState.self_s": (per_analysis(["ekf.EkfState"]), "s"),
        "ekf.ekf_field.self_s": (per_analysis(["ekf.ekf_field"]), "s"),
        "ekf.validations_per_step": (per_step(tracer.calls("ekf.EkfState"), steps["ekf-compare"]), "1/step"),
        "mech.steps": (steps["mech-lemma"], "count"),
        "mech.EpSystem.calls": (tracer.calls("mech.EpSystem"), "count"),
        "mech.EpSystem.self_s": (per_analysis(["mech.EpSystem"]), "s"),
        "mech.ep_dynamics.self_s": (per_analysis(["mech.ep_dynamics"]), "s"),
        "mech.project_rotation.calls": (tracer.calls("mech.project_rotation"), "count"),
        "mech.project_rotation.self_s": (per_analysis(["mech.project_rotation"]), "s"),
        "mech.validations_per_step": (per_step(tracer.calls("mech.EpSystem"), steps["mech-lemma"]), "1/step"),
        "scenario.parse_scenario.self_s": (per_analysis(["scenario.parse_scenario"]), "s"),
        "closed_loop.Scenario.self_s": (per_analysis(["closed_loop.Scenario"]), "s"),
        "cli.main.self_s": (per_analysis(["cli.main"]), "s"),
        "reporting.timeseries_csv.self_s": (per_analysis(["reporting.timeseries_csv"]), "s"),
        "reporting.bytes_written": (tracer.arg_count("reporting.write_text"), "bytes"),
        "trace.analyses": (n, "count"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.analysis_s_p50": (traced_p50, "s"),
        "trace.overhead_s": (traced_p50 - untraced_p50, "s"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


class Run:
    """One benchmark run of one workload in a scratch directory."""

    def __init__(self, workload: Workload, seed: int, work: Path, tiny: bool = False):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from invtrack import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.tiny = tiny
        self.out = work / "out"
        self.runs = scenarios(workload, seed, tiny)
        self.configs = []
        for i, (_, doc) in enumerate(self.runs):
            path = work / f"scenario-{i:03d}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.configs.append(path)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def _one(self, i: int) -> bool:
        """Run scenario i (cyclically); count and note a failure."""
        k = i % len(self.runs)
        self.attempted += 1
        try:
            ok = analyse(self.cli, self.runs[k][0], self.configs[k], self.out)
        except Exception:  # keep measuring; the failure is counted and shown
            ok = False
            self.notes.append(f"scenario {k} raised:\n{traceback.format_exc()}")
        if not ok:
            self.failed += 1
            self.notes.append(f"scenario {k} ({self.runs[k][0]}) did not pass")
        return ok

    def timed(self, seconds: float) -> tuple[list[float], list[float], Scaler]:
        """Untraced analyses and their probes for `seconds` (at least one analysis).

        Returns the wall and the scaled time of each analysis, and the scaler
        with its probe readings.
        """
        scaler = Scaler()
        walls, scaled = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            wall, value = scaler.measure(lambda: self._one(len(walls)))
            walls.append(wall)
            scaled.append(value)
        return walls, scaled, scaler

    def traced(self):
        """The first `trace_analyses` scenarios under the tracer; scaled times."""
        from tracing import Tracer

        tracer = Tracer()
        scaler = Scaler()
        times = []
        count = self.workload.trace_analyses
        with tracer:
            for i in range(count):
                tracer.analysis_id = i
                times.append(scaler.measure(lambda: self._one(i))[1])
        runs = [self.runs[i % len(self.runs)] for i in range(count)]
        return tracer, times, runs

    def execute(self, seconds: float, trace: bool) -> dict:
        reference_ok, message = check_reference(self.cli, self.workload, self.work)
        self.notes.append(f"reference: {message}")
        if not trace:
            setup_wall, setup = measure_setup(self.configs[0], 1 if self.tiny else SETUP_REPEATS)
            self.notes.append(f"setup: wall median {setup_wall:.4f} s, scaled {setup:.4f} s")
        walls, times, scaler = self.timed(seconds)
        p50 = statistics.median(times)
        q = self.workload.tail_quantile
        # The tail is taken over scenarios, of each one's median time, so that
        # it shows the slow inputs rather than a stall that hit one analysis.
        by_scenario: dict[int, list[float]] = {}
        for i, t in enumerate(times):
            by_scenario.setdefault(i % len(self.runs), []).append(t)
        medians = sorted(statistics.median(v) for v in by_scenario.values())
        tail = quantile(medians, q)
        beyond = sum(1 for t in medians if t > tail)
        self.notes.append(
            f"timed: {len(times)} analyses of {len(medians)} scenarios in {sum(walls):.3f} s "
            f"of wall time; tail = p{round(100 * q)} with {beyond} scenarios beyond it"
        )
        self.notes.append(
            f"wall: p50 {statistics.median(walls):.6f} s, p{round(100 * q)} "
            f"{quantile(sorted(walls), q):.6f} s; probe unit median "
            f"{statistics.median(scaler.units) * 1e6:.1f} us (reference {PROBE_UNIT_REF_S * 1e6:.1f} us)"
        )
        if trace:
            tracer, traced_times, traced_runs = self.traced()
            self.write_spans(tracer)
            metrics = per_layer_metrics(tracer, traced_runs, statistics.median(traced_times), p50)
        else:
            metrics = {
                "setup_s": {"value": setup, "unit": "s"},
                "analysis_s_p50": {"value": p50, "unit": "s"},
                "analysis_s_tail": {"value": tail, "unit": "s"},
                "analyses_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
        self.notes.append(f"fail_ratio: {self.failed}/{self.attempted}")
        return {
            "correct": reference_ok and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def write_spans(self, tracer) -> None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{self.workload.name}-seed{self.seed}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": environment(self.seed), "dropped": tracer.dropped_spans}) + "\n")
            for name, start, end, parent, analysis in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "analysis": analysis}) + "\n")
        self.notes.append(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "invtrack" / "cli.py").is_file():
        print(f"perfbench: no invtrack sources under {SRC.name}/ next to {HERE.name}/", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        run = Run(WORKLOADS[args.workload], args.seed, work)
        result = run.execute(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("env " + json.dumps(environment(args.seed)))
    for note in run.notes:
        print(note)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
