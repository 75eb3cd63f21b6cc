"""Digest every output of the six CLI commands over a fixed scenario set.

    python3 tools/output_digests.py [--cheap] SRC OUT.json
    python3 tools/output_digests.py --unreached SRC

Imports invtrack from SRC (the src/ directory of any checkout) and runs, in
process, each of the six commands on the default scenario, then each
perfbench workload's reference analyses and every full-size seed-7 scenario
from perfbench/workloads.py, then a few hand-written scenes that reach what
the workloads do not: non-default EKF noise levels, reverse driving across
the heading wrap (on a closed-form and an integrated reference), a piecewise
reference, a simulate run whose last step is short, a time series of
three CSV blocks, landmarks too far away to see, 40 landmarks where no
workload has more than 12, and the scenario parse paths no workload takes (split gain
sections, absolute initial poses, a segment with default v, every mech
field off its default, "probe_times": null), then the fault scenes: every
documented bad input, each written here once.  FAULTS gives the exact error
line each fault scene's commands print, and tests/test_cli.py runs every
one of them through the CLI, so a new fault costs one scene and one FAULTS
row.
For each analysis OUT.json records the exit code, the stderr text, the
sha256 of every file written to --out and the metrics of the verdict report.
Two trees write byte-identical outputs on this set exactly when their
OUT.json files agree; `diff` shows where they do not, and names each metric
that moved with its old and new value.

--cheap digests only the default and hand-written scenes (127 analyses, a
few seconds).  Their digests are committed beside this script as
output_digests.json, and tests/test_output_digests.py re-digests them on
every test run; refresh that file with
    python3 tools/output_digests.py --cheap src tools/output_digests.json
in the same commit as any change that moves output bytes on purpose.  The
bytes go through the host's libm and numpy's LAPACK, so digests recorded on
one host may differ in the last bits on another.

--unreached traces the hand-written scenes instead (sys.settrace, in this
fresh interpreter) and prints each function of SRC/invtrack that they never
enter, as module.qualname.  HELD names the holder of each such function,
and tests/test_output_digests.py checks that the printed set is exactly
HELD's keys: a form that only tests use goes to tests/oracles.py, not into
the package.

perfbench/record_reference.py checks only the reference analyses' metrics,
to a relative tolerance; this compares bytes.  The script reads perfbench/
and changes nothing there.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported, as perfbench/run.py does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 7
COMMANDS = ("simulate", "eigs", "separation", "invariance", "ekf-compare", "mech-lemma")
PLANAR = ("simulate", "eigs", "separation", "invariance", "ekf-compare")

_NOISE = {"process_noise": 1.7e-3, "measurement_noise": 2.3e-2, "initial_covariance": 5e-3}
_SHORT = {"t_end": 2.0, "probe_times": [0.0, 0.25, 0.5, 0.75]}
_OFF_LINE = {"trajectory": {"u": 1, "v": 0}, "initial_tracking_error": [0.1, 0, 0], "t_end": 0.01}
HAND_SCENES = (
    ("noise", PLANAR, {"ekf": _NOISE, **_SHORT}),
    ("noise-reverse-wrap", PLANAR,
     {"trajectory": {"u": -1.0, "v": 0.5, "start": [1.0, -2.0, 3.14]}, "ekf": _NOISE, **_SHORT}),
    ("piecewise", PLANAR,
     {"trajectory": {"segments": [{"u": 1.0, "v": 0.0, "duration": 0.3},
                                  {"u": 1.0, "v": 0.7, "duration": 1.0}]},
      "ekf": _NOISE, **_SHORT}),
    # An IntegratedTrajectory reference, driven in reverse across the wrap,
    # on a step that does not divide the probe times.
    ("wobble-reverse-wrap", PLANAR,
     {"trajectory": {"u": -1.2, "v": 0.3, "v_wobble": {"amplitude": 0.3, "angular_rate": 1.3},
                     "start": [1.0, -2.0, 3.14]},
      "ekf": _NOISE, "t_end": 2.0, "dt": 0.0037, "probe_times": [0.0, 0.2345, 0.5, 0.7777]}),
    # simulate's generated run on an integrated reference, forward, with five
    # landmarks and a t_end that is not a multiple of dt: the short last step
    # and the row that closes the run after the loop.  At 1.2 s the errors
    # have not yet converged, so the verdict fails; the bytes are what count.
    ("wobble-short-step", ("simulate",),
     {"trajectory": {"u": 1.1, "v": -0.2, "v_wobble": {"amplitude": 0.25, "angular_rate": 1.7}},
      "landmarks": [[9.0, 1.0], [2.0, 8.5], [-7.5, 4.0], [-6.0, -7.0], [5.0, -8.0]],
      "initial_tracking_error": [0.08, -0.05, 0.1], "initial_estimate_error": [-0.06, 0.04, -0.07],
      "t_end": 1.2345, "dt": 0.01}),
    # A time series of 2 * 256 + 1 rows, where reporting.CSV_BLOCK_ROWS is
    # 256: two full blocks and one row in a third, the last step short.
    ("three-csv-blocks", ("simulate",),
     {"trajectory": {"u": 0.9, "v": 0.4}, "initial_tracking_error": [0.2, -0.1, 0.15],
      "initial_estimate_error": [0.1, 0.05, -0.1], "t_end": 0.5115, "dt": 0.001}),
    # Many more landmarks than any workload: the closed loop is generated
    # and unrolled for p = 40.  No ekf-compare: at the 1 ms step its Riccati
    # run is unstable on this many landmarks.
    ("ring-40", ("simulate", "eigs", "separation", "invariance"),
     {"landmarks": [[12.0 * math.cos(i * math.pi / 20), 12.0 * math.sin(i * math.pi / 20)]
                    for i in range(40)], **_SHORT}),
    # 5 km from a unit landmark triangle: the Gram condition cap trips at once.
    ("far", PLANAR,
     {"trajectory": {"u": 1.0, "v": 0.0, "start": [5000.0, 0.0, 0.0]},
      "landmarks": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}),
    ("split-gains-absolute", PLANAR,
     {"trajectory": {"segments": [{"u": 1.0, "duration": 0.4},
                                  {"u": 0.8, "v": -0.6, "duration": 1.0}],
                     "start": [0.5, -0.5, 0.2]},
      "controller_gains": {"k1": 2.0, "k3": 1.5}, "observer_gains": {"l2": 2.5},
      "initial_pose": [0.6, -0.4, 0.25], "initial_estimate": [0.7, -0.5, 0.2],
      "t_end": 1.5, "probe_times": None}),
    ("mech-all", ("mech-lemma",),
     {"mech": {"inertia": [1.5, 2.5, 2.0], "reference_velocity": [-0.3, 0.8, 0.5],
               "damping": [0.7, 0.2, 0.45], "force_strength": 2.5,
               "force_axis": [0.3, -1.0, 0.6], "probe_times": [0.0, 0.4, 1.1],
               "t_end": 0.5, "dt": 2e-3}}),
    ("fault-gains", ("eigs",), {"gains": {"k2": 0.0}}),
    ("fault-segment", ("separation",), {"trajectory": {"segments": [{"u": 1.0, "w": 2.0}]}}),
    ("fault-mech", ("mech-lemma",), {"mech": {"damping": [0.5, 0.0, 0.3]}}),
    # mech.force_axis whose length underflows to 0 or overflows to inf.
    ("fault-axis-tiny", ("mech-lemma",), {"mech": {"force_axis": [1e-170, 1e-170, 0.0]}}),
    ("fault-axis-huge", ("mech-lemma",), {"mech": {"force_axis": [1e200, 1e200, 0.0]}}),
    # Finite landmarks, or a finite start, whose squared range overflows.
    ("fault-far-landmarks", PLANAR, {"landmarks": [[1e160, 0], [0, 1e160], [-1e160, -1e160]]}),
    ("fault-far-start", PLANAR, {"trajectory": {"start": [1e155, 0, 0]}}),
    # A finite start whose reference travels out of range along the run.
    ("fault-far-reference", PLANAR, {"trajectory": {"u": 1e300, "v": 0}}),
    # A gain so large that the loop leaves float range within one step, and
    # the error fields at the first probe time.
    ("fault-huge-gain", PLANAR, {"gains": {"k1": 1e300}, "t_end": 0.05}),
    # Probe times at one instant only, for the planar and the rigid-body probes.
    ("fault-probe-repeat", PLANAR, {"probe_times": [0.0, 0.0]}),
    ("fault-mech-probe-repeat", ("mech-lemma",), {"mech": {"probe_times": [1.0, 1.0]}}),
    # A finite state on which a huge gain overflows the feedback's (u, v).
    ("fault-input-overflow-k1", ("simulate",),
     {"gains": {"k1": 1e308}, "initial_tracking_error": [10, 0, 0], "t_end": 0.01}),
    ("fault-input-overflow-k2", ("simulate",),
     {"gains": {"k2": 1e308}, "initial_tracking_error": [0, 10, 0], "t_end": 0.01}),
    # A reference kinetic energy of 0: a body at rest, or one that underflows.
    ("fault-mech-rest", ("mech-lemma",), {"mech": {"reference_velocity": [0, 0, 0]}}),
    ("fault-mech-energy-underflow", ("mech-lemma",),
     {"mech": {"reference_velocity": [1e-200, 0, 0]}}),
    # A reference spin angle whose square leaves float range by the last probe.
    ("fault-mech-fast-spin", ("mech-lemma",),
     {"mech": {"reference_velocity": [1.2e154, 0, 0], "t_end": 0.01}}),
    ("fault-mech-late-probe", ("mech-lemma",),
     {"mech": {"probe_times": [0, 1e160], "t_end": 0.01}}),
    # Finite Jacobians whose difference has a Frobenius norm past float range.
    ("fault-mech-strong-force", ("mech-lemma",),
     {"mech": {"force_strength": 1e308, "t_end": 0.01}}),
    ("fault-mech-light-body", ("mech-lemma",),
     {"mech": {"inertia": [1e-300, 1, 1], "t_end": 0.01}}),
    ("fault-huge-l1", ("invariance", "ekf-compare"), {"gains": {"l1": 1e300}}),
    ("fault-huge-l2", ("separation",), {"gains": {"l2": 1e300}}),
    # A finite stage coordinate whose square overflows (** 2 raises).
    ("fault-square-k1-1e300", ("simulate",), {**_OFF_LINE, "gains": {"k1": 1e300}}),
    ("fault-square-k1-1e200", ("simulate",), {**_OFF_LINE, "gains": {"k1": 1e200}}),
    ("fault-square-k1-1e170", ("simulate",), {**_OFF_LINE, "gains": {"k1": 1e170}}),
    ("fault-square-q-1e300", ("ekf-compare",),
     {"ekf": {"process_noise": 1e300}, "probe_times": [0, 0.01]}),
    ("fault-square-q-1e200", ("ekf-compare",),
     {"ekf": {"process_noise": 1e200}, "probe_times": [0, 0.01]}),
    # Finite u and v whose product, the turn rate, is not.
    ("fault-turn-rate", PLANAR, {"trajectory": {"u": 1e200, "v": 1e200}, "t_end": 0.01}),
    # A state that leaves float range in one RK4 step of the EKF's run.
    ("fault-ekf-tiny-noise", ("ekf-compare",),
     {"ekf": {"measurement_noise": 1e-300}, "probe_times": [0, 0.01]}),
    ("fault-ekf-huge-covariance", ("ekf-compare",),
     {"ekf": {"initial_covariance": 1e300}, "probe_times": [0, 0.01]}),
    # An EKF stage heading that leaves float range while no estimate
    # squares out of it: cos(inf) in the Riccati rate.
    ("fault-ekf-heading-noise", ("ekf-compare",),
     {"ekf": {"process_noise": 1e100, "initial_covariance": 1e10}, "probe_times": [0, 0.01]}),
    ("fault-ekf-heading-fast", ("ekf-compare",),
     {"trajectory": {"u": 1e154, "v": 0.001}, "ekf": {"initial_covariance": math.pi},
      "probe_times": [0, 0.01], "t_end": 0.05}),
    ("fault-mech-heavy-body", ("mech-lemma",), {"mech": {"inertia": [1e300, 1, 1], "t_end": 0.01}}),
    # Positive inertia entries whose matrix eigvalsh reads as singular.
    ("fault-mech-inertia-subnormal", ("mech-lemma",), {"mech": {"inertia": [1e154, 2, 5e-324]}}),
    # A subnormal step: the RK4 step count is not finite.
    ("fault-subnormal-dt", ("simulate", "ekf-compare"), {"dt": 5e-324, "t_end": 0.01}),
    ("fault-mech-subnormal-dt", ("mech-lemma",), {"mech": {"dt": 5e-324, "t_end": 0.01}}),
    # A reference speed below the feedback's 1e-12 floor.
    ("fault-slow", PLANAR, {"trajectory": {"u": 1e-13}}),
    ("fault-slow-segment", PLANAR, {"trajectory": {"segments": [{"u": 1e-13, "duration": 1.0}]}}),
    # A reference heading, or a wobble's phase, past float range by a late
    # probe time, where the reach along the run stays finite.
    ("fault-turn-angle", PLANAR,
     {"t_end": 0.05, "probe_times": [1e154, 0.01], "trajectory": {"v": -1e300}}),
    ("fault-last-leg-turn", ("separation",),
     {"t_end": 0.05, "probe_times": [1.3e154, 0.01],
      "trajectory": {"segments": [{"u": 1.0, "v": -1e300, "duration": 1.0}]}}),
    ("fault-wobble-turn", ("invariance",),
     {"t_end": 0.05, "probe_times": [1e154, 0.01],
      "trajectory": {"u": 1.0, "v": 0.0, "v_wobble": {"amplitude": 1e300}}}),
    ("fault-wobble-phase", ("separation",),
     {"t_end": 0.05, "probe_times": [1.3e154, 0.01], "trajectory": {"v_wobble": {"angular_rate": -1e300}}}),
    # A gain times the reference speed past float range in the design matrices.
    ("fault-design-overflow", ("eigs", "separation"),
     {"gains": {"k2": 1e300}, "trajectory": {"u": 1e100, "v": 0}}),
    # Landmarks whose mean overflows, and EKF error matrices past float
    # range: numpy's overflow and invalid warnings, each silenced at its site.
    ("fault-landmark-spread", ("eigs", "invariance"),
     {"landmarks": [[10, 0], [0, 1.7976931348623157e308], [-10, 1e300]]}),
    ("fault-ekf-matrix-overflow", ("ekf-compare",),
     {"probe_times": [0.0, 0.01], "dt": 1e154, "trajectory": {"start": [1.3e154, 0, 0]}}),
)

_RANGE = "squared range to landmarks[0]"
_LOOP_DIVERGED = "closed-loop state diverged at t=0.0005"
_NOT_LINEAR = "error-field linearization is not finite at t=0"
_SUBNORMAL = "at step 5e-324 needs inf RK4 steps, more than the cap of 1000000"
_TURN = "trajectory: turn angle along the run must be finite, got inf"
# The stderr line, after "error: ", of every command of each fault scene
# (or, in a dict, of each command named; the others run to a verdict).
# tests/test_cli.py runs each of them and checks that it exits 2 with this
# line and writes nothing.
FAULTS = {
    "fault-gains": "gains.k2 must be > 0, got 0.0",
    "fault-segment": "unknown field trajectory.segments[0].'w'",
    "fault-mech": "mech.damping entries must be > 0",
    "fault-axis-tiny": "mech.force_axis length must be finite and > 0, got 0.0",
    "fault-axis-huge": "mech.force_axis length must be finite and > 0, got inf",
    "fault-far-landmarks": f"trajectory.start: {_RANGE} must be finite, got inf",
    "fault-far-start": f"trajectory.start: {_RANGE} must be finite, got inf",
    "fault-far-reference": f"trajectory: {_RANGE} along the run must be finite, got inf",
    "fault-huge-gain": {"simulate": _LOOP_DIVERGED, "separation": _NOT_LINEAR,
                        "invariance": _NOT_LINEAR, "ekf-compare": _NOT_LINEAR},
    "fault-probe-repeat": "probe_times must hold at least 2 distinct times",
    "fault-mech-probe-repeat": "mech.probe_times must hold at least 2 distinct times",
    "fault-input-overflow-k1": "closed-loop input diverged at t=0",
    "fault-input-overflow-k2": "closed-loop input diverged at t=0",
    "fault-mech-rest":
        "mech.reference_velocity: kinetic energy must be finite and > 0, got 0.0",
    "fault-mech-energy-underflow":
        "mech.reference_velocity: kinetic energy must be finite and > 0, got 0.0",
    "fault-mech-fast-spin": "mech: squared spin angle |t*reference_velocity|^2 "
                            "at probe time 2.0 must be finite, got inf",
    "fault-mech-late-probe": "mech: squared spin angle |t*reference_velocity|^2 "
                             "at probe time 1e+160 must be finite, got inf",
    "fault-mech-strong-force": "mech-lemma: metric attitude_force_drift is not finite, got inf",
    "fault-mech-light-body": "mech-lemma: metric attitude_force_drift is not finite, got inf",
    "fault-huge-l1": {"invariance": "invariance: metric observer_drift is not finite, got inf",
                      "ekf-compare": "ekf-compare: metric observer_drift is not finite, got inf"},
    "fault-huge-l2": "separation: metric linearization_match is not finite, got inf",
    "fault-square-k1-1e300": _LOOP_DIVERGED,
    "fault-square-k1-1e200": _LOOP_DIVERGED,
    "fault-square-k1-1e170": _LOOP_DIVERGED,
    "fault-square-q-1e300": "EKF state diverged at t=0.0005",
    "fault-square-q-1e200": "EKF state diverged at t=0.0005",
    "fault-turn-rate": "trajectory: turn rate u*v must be finite, got inf",
    "fault-ekf-tiny-noise": "EKF state diverged at t=0.001",
    "fault-ekf-huge-covariance": "EKF state diverged at t=0.001",
    "fault-ekf-heading-noise": "EKF state diverged at t=0.001",
    "fault-ekf-heading-fast": "EKF state diverged at t=0.001",
    "fault-mech-heavy-body": "rigid-body state diverged at t=0.001",
    "fault-mech-inertia-subnormal": "mech.inertia must be positive definite",
    "fault-subnormal-dt": {"simulate": f"integration over [0, 0.01] {_SUBNORMAL}",
                           "ekf-compare": f"integration over [0, 9.42478] {_SUBNORMAL}"},
    "fault-mech-subnormal-dt": f"integration over [0, 0.01] {_SUBNORMAL}",
    "fault-slow": "reference input u vanishes near t=0",
    "fault-slow-segment": "reference input u vanishes near t=0",
    "fault-turn-angle": _TURN,
    "fault-last-leg-turn": _TURN,
    "fault-wobble-turn": _TURN,
    "fault-wobble-phase":
        "trajectory.v_wobble: phase |angular_rate|*t along the run must be finite, got inf",
    "fault-design-overflow": "design matrix entry |u_r|*k2 at t=0 must be finite, got inf",
    "fault-landmark-spread": "trajectory.start: squared range to landmarks[1] must be finite, got inf",
    "fault-ekf-matrix-overflow": "body-frame landmark geometry is not finite: "
                                 "the estimate's landmark offsets overflowed (at t=0)",
}


# Each src/invtrack function that no HAND_SCENES analysis enters, with what
# holds it in the package although no command reaches it.  Criteria 1 and 7
# compute on the cores the commands run, so no helper is held for them alone.
# tests/test_output_digests.py checks that `--unreached` prints exactly these
# names, so a new unreached function fails until it is held here or moved to
# tests/oracles.py, and so does an entry whose function is gone or reached.
_GAIN_IDENTITY = "criterion 7: the observer's gain in matrix form, L (-2 I^T) = W"
_PROTOCOL = "the ReferenceTrajectory protocol that every reference implements"
_GENERATED = (
    "source that generated_run reads and inlines into simulate's or the EKF's run; no command calls it"
)
HELD = {
    "closed_loop._loop_pair.<locals>.after": _GENERATED,
    "closed_loop._loop_pair.<locals>.row": _GENERATED,
    "ekf._riccati_rate": _GENERATED,
    "ekf._riccati_rate.<locals>.after": _GENERATED,
    "ekf._riccati_rate.<locals>.rate": _GENERATED,
    "ekf._riccati_rate.<locals>.row": _GENERATED,
    "ekf.keep_psd": _GENERATED,
    "ekf.riccati_values": _GENERATED,
    "observer.body_frame_landmarks": _GAIN_IDENTITY,
    "observer.gain_matrix": _GAIN_IDENTITY,
    # Also read as closed_loop.observer_field by perfbench's tracer test.
    "observer.observer_field": "the boxed observer field that the composed error-field oracles use",
    "robot.dynamics": "criterion 2 and the tests: the boxed model field, input checked",
    "robot.invariance_residual": "criterion 1: the equivariance of the cores simulate integrates",
    # The CLI's parse checks never let a non-finite input reach it.
    "robot.finite_input": "names a non-finite input from a profile that a library caller supplies",
    "trajectories.ReferenceTrajectory.input": _PROTOCOL,
    "trajectories.ReferenceTrajectory.pose": _PROTOCOL,
    "trajectories.ReferenceTrajectory.sample": _PROTOCOL,
}


def analyses(cheap: bool = False):
    """(label, command, document or None for the default) in run order; with
    cheap, only the default and hand-written scenes, not perfbench's."""
    for command in COMMANDS:
        yield f"default/{command}", command, None
    if not cheap:
        sys.path.insert(0, str(PERFBENCH))
        from workloads import WORKLOADS, scenarios

        for name, workload in WORKLOADS.items():
            for i, (command, doc) in enumerate(workload.reference):
                yield f"reference/{name}/{i}/{command}", command, doc
        for name, workload in WORKLOADS.items():
            for i, (command, doc) in enumerate(scenarios(workload, SEED)):
                yield f"seed{SEED}/{name}/{i}/{command}", command, doc
    for name, commands, doc in HAND_SCENES:
        for command in commands:
            yield f"hand/{name}/{command}", command, doc


def digest(cli, command: str, doc, work: Path) -> dict:
    """Run one analysis in a fresh directory; exit code, stderr, file digests
    and the report's metrics (empty when no report was written)."""
    argv = [command, "--out", str(work / "out")]
    if doc is not None:
        config = work / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        argv += ["--config", str(config)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is an outcome to compare, too
            code = f"raised {type(exc).__name__}"
            print(exc, file=sys.stderr)
    out = work / "out"
    files = {}
    metrics = {}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            files[path.name] = hashlib.sha256(data).hexdigest()
            if path.suffix == ".json":  # report.json, or eigs.json for eigs
                metrics = json.loads(data)["metrics"]
    return {"exit": code, "stderr": err.getvalue(), "files": files, "metrics": metrics}


def digest_all(cli, cheap: bool = False) -> dict:
    """label -> digest record, over analyses(cheap)."""
    records = {}
    for label, command, doc in analyses(cheap):
        with tempfile.TemporaryDirectory() as tmp:
            records[label] = digest(cli, command, doc, Path(tmp))
    return records


def differences(old: dict, new: dict) -> list[str]:
    """One line per analysis only one side has, and per exit code, stderr,
    file hash or metric that moved, with its old and new value."""
    lines = [f"{label}: only in the old digests" for label in old if label not in new]
    lines += [f"{label}: only in the new digests" for label in new if label not in old]
    for label in (label for label in old if label in new):
        a, b = old[label], new[label]
        moved = [(key, a[key], b[key]) for key in ("exit", "stderr") if a[key] != b[key]]
        for part in ("files", "metrics"):
            for name in sorted(a[part].keys() | b[part].keys()):
                was, now = a[part].get(name), b[part].get(name)
                if was != now:
                    moved.append((f"{part[:-1]} {name}", was, now))
        lines += [f"{label}: {what} {was!r} -> {now!r}" for what, was, now in moved]
    return lines


def _functions(code, prefix: str):
    """(key, qualified name under prefix) of every function compiled into
    code, nested ones included; key is the (file, first line) that the
    trace reports."""
    for const in code.co_consts:
        # Comprehensions and lambdas belong to the function they sit in.
        if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
            continue
        name = f"{prefix}.{const.co_name}"
        if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
            yield (const.co_filename, const.co_firstlineno), name
            yield from _functions(const, f"{name}.<locals>")
        else:
            yield from _functions(const, name)


def unreached(src: Path) -> list[str]:
    """module.qualname of each function in SRC/invtrack that the HAND_SCENES
    analyses never enter, sorted.  Traces from before the package is
    imported, so run it in a fresh interpreter: a process that has already
    filled a cache (cli._build_parser, numerics' RK4 steps) skips the
    function that fills it."""
    entered = set()

    def trace(frame, event, arg):  # called on each Python call only
        entered.add(frame.f_code)

    sys.path.insert(0, str(src))
    sys.settrace(trace)
    try:
        from invtrack import cli

        for _, commands, doc in HAND_SCENES:
            for command in commands:
                with tempfile.TemporaryDirectory() as tmp:
                    digest(cli, command, doc, Path(tmp))
    finally:
        sys.settrace(None)
    seen = {(code.co_filename, code.co_firstlineno) for code in entered}
    names = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        names.update(name for key, name in _functions(code, path.stem) if key not in seen)
    return sorted(names)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 2 and args[0] == "--unreached":
        print("\n".join(unreached(Path(args[1]).resolve())))
        return 0
    cheap = args[:1] == ["--cheap"]
    if cheap:
        args = args[1:]
    if len(args) != 2:
        print("usage: python3 tools/output_digests.py [--cheap] SRC OUT.json\n"
              "       python3 tools/output_digests.py --unreached SRC", file=sys.stderr)
        return 2
    src, dest = Path(args[0]).resolve(), Path(args[1])
    sys.path.insert(0, str(src))
    from invtrack import cli

    records = digest_all(cli, cheap)
    dest.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} analyses digested into {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
