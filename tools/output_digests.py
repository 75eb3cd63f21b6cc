"""Digest every output of the six CLI commands over a fixed scenario set.

    python3 tools/output_digests.py [--cheap] SRC OUT.json

Imports invtrack from SRC (the src/ directory of any checkout) and runs, in
process, each of the six commands on the default scenario, then each
perfbench workload's reference analyses and every full-size seed-7 scenario
from perfbench/workloads.py, then a few hand-written scenes that reach what
the workloads do not: non-default EKF noise levels, reverse driving across
the heading wrap (on a closed-form and an integrated reference), a piecewise
reference, landmarks too far away to see, and the scenario parse paths no
workload takes (split gain sections, absolute initial poses, a segment with
default v, every mech field off its default, "probe_times": null, and a few
documents that must be rejected).
For each analysis OUT.json records the exit code, the stderr text, the
sha256 of every file written to --out and the metrics of the verdict report.
Two trees write byte-identical outputs on this set exactly when their
OUT.json files agree; `diff` shows where they do not, and names each metric
that moved with its old and new value.

--cheap digests only the default and hand-written scenes (68 analyses, a
few seconds).  Their digests are committed beside this script as
output_digests.json, and tests/test_output_digests.py re-digests them on
every test run; refresh that file with
    python3 tools/output_digests.py --cheap src tools/output_digests.json
in the same commit as any change that moves output bytes on purpose.  The
bytes go through the host's libm and numpy's LAPACK, so digests recorded on
one host may differ in the last bits on another.

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
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 7
COMMANDS = ("simulate", "eigs", "separation", "invariance", "ekf-compare", "mech-lemma")
PLANAR = ("simulate", "eigs", "separation", "invariance", "ekf-compare")

_NOISE = {"process_noise": 1.7e-3, "measurement_noise": 2.3e-2, "initial_covariance": 5e-3}
_SHORT = {"t_end": 2.0, "probe_times": [0.0, 0.25, 0.5, 0.75]}
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
)


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


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    cheap = args[:1] == ["--cheap"]
    if cheap:
        args = args[1:]
    if len(args) != 2:
        print("usage: python3 tools/output_digests.py [--cheap] SRC OUT.json", file=sys.stderr)
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
