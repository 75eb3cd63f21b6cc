"""Search scenario documents at extreme values for faults the CLI does not name.

    python3 tools/fault_search.py [--seed N] [--count N] SRC

Imports invtrack from SRC (the src/ directory of any checkout) and runs, in
process, COUNT seeded documents: each sets one to three numeric fields to
values from POOL, on short horizons, for one of the six commands.  The
fields are read from scenario.py's section specs (gains, ekf, mech,
trajectory.v_wobble, trajectory.segments) plus the top-level numbers
(trajectory.u/v/start, landmarks, the initial errors, t_end, dt,
probe_times).  Each document runs with warnings as errors and a SIGALRM
time limit of LIMIT_S.  The script prints each document that ends in

- an uncaught exception (cli.main words only InvtrackError, exit 2),
- an exit code other than 0, 1 or 2,
- an exit 2 whose stderr is not exactly one `error: ...` line,
- a JSON output holding NaN or Infinity,
- or the time limit,

then one line of counts.  It exits 1 when any document was printed.
tests/test_fault_search.py runs a small fixed sample of it on every test
run.  Runs on Unix only (SIGALRM).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import signal
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

COMMANDS = ("simulate", "eigs", "separation", "invariance", "ekf-compare", "mech-lemma")
POOL = (
    0.0, 1e-300, -1e-300, 5e-324, 1e-12, 1.0, -1.0, math.pi, -math.pi,
    1e154, 1.3e154, -1.3e154, 1e300, -1e300, 1.7976931348623157e308,
)
# Short horizons: every document starts from these, so that a run that
# raises nothing still ends in well under a second.
PLANAR_BASE = {"t_end": 0.05, "probe_times": [0.0, 0.01]}
MECH_BASE = {"mech": {"t_end": 0.05, "probe_times": [0.0, 0.005, 0.01]}}
LIMIT_S = 10.0


class Timeout(Exception):
    """The document's time limit passed."""


def _spec_fields(prefix: tuple, spec: dict) -> list[tuple]:
    """One path per number of a section spec {key: (default, check)}: a
    list default gives one per entry."""
    out = []
    for key, (default, _) in spec.items():
        if isinstance(default, list):
            out += [(*prefix, key, i) for i in range(len(default))]
        else:
            out.append((*prefix, key))
    return out


def fields(scenario, command: str) -> list[tuple]:
    """The paths of the numbers a document for command may set."""
    if command == "mech-lemma":
        return _spec_fields(("mech",), scenario._MECH)
    out = [("trajectory", "u"), ("trajectory", "v")]
    out += [("trajectory", "start", i) for i in range(3)]
    out += _spec_fields(("trajectory", "v_wobble"), scenario._WOBBLE)
    out += _spec_fields(("trajectory", "segments", 0), scenario._SEGMENT)
    out += [("landmarks", i, j) for i in range(len(scenario.STANDARD_LANDMARKS)) for j in range(2)]
    for spec in scenario._GAINS.values():
        out += _spec_fields(("gains",), spec)
    out += [(name, i) for name in ("initial_tracking_error", "initial_estimate_error") for i in range(3)]
    out += [("t_end",), ("dt",), ("probe_times", 0), ("probe_times", 1)]
    if command == "ekf-compare":
        out += _spec_fields(("ekf",), scenario._EKF)
    return out


def _blank(scenario, path: tuple):
    """The container a document holds at path before a field inside it is
    set: the section's defaults where a field sits in a list."""
    if path == ("trajectory", "segments"):
        return [{"u": 1.0, "duration": 1.0}]
    if path == ("landmarks",):
        return [list(c) for c in scenario.STANDARD_LANDMARKS]
    if path in (("initial_tracking_error",), ("initial_estimate_error",), ("trajectory", "start")):
        return [0.0, 0.0, 0.0]
    if path[0] == "mech" and len(path) == 2:
        return list(scenario._MECH[path[1]][0])
    return {}


def put(scenario, doc: dict, path: tuple, value: float) -> None:
    """Set the number at path in doc, creating what holds it."""
    node = doc
    for depth, key in enumerate(path[:-1]):
        if isinstance(node, dict) and key not in node:
            node[key] = _blank(scenario, path[:depth + 1])
        node = node[key]
    node[path[-1]] = value


def documents(scenario, seed: int, count: int):
    """count (command, document) pairs drawn with random.Random(seed)."""
    rng = random.Random(seed)
    for _ in range(count):
        command = rng.choice(COMMANDS)
        base = MECH_BASE if command == "mech-lemma" else PLANAR_BASE
        doc = json.loads(json.dumps(base))
        for path in rng.sample(fields(scenario, command), rng.randint(1, 3)):
            put(scenario, doc, path, rng.choice(POOL))
        yield command, doc


def _non_finite(text: str) -> bool:
    found = []
    json.loads(text, parse_constant=found.append)
    return bool(found)


def _alarm(signum, frame):
    raise Timeout


def run(cli, command: str, doc: dict, work: Path) -> tuple:
    """(outcome, stderr) of one document: outcome is the exit code, or
    "uncaught <class>: <message>" or "timeout"."""
    config = work / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                outcome = cli.main([command, "--config", str(config), "--out", str(work / "out")])
    except Timeout:
        outcome = "timeout"
    except Exception as exc:  # what the search looks for
        outcome = f"uncaught {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    return outcome, err.getvalue()


def fault(outcome, stderr: str, out: Path) -> str | None:
    """What is wrong with one document's run, or None."""
    if isinstance(outcome, str):
        return outcome
    if outcome not in (0, 1, 2):
        return f"exit {outcome}"
    if outcome == 2 and not (stderr.startswith("error: ") and stderr.count("\n") == 1
                             and stderr.endswith("\n")):
        return f"malformed error line {stderr!r}"
    for path in sorted(out.glob("*.json")) if out.is_dir() else ():
        if _non_finite(path.read_text(encoding="utf-8")):
            return f"non-finite value in {path.name}"
    return None


def search(cli, scenario, seed: int, count: int):
    """(command, document, outcome, fault or None) for each document."""
    for command, doc in documents(scenario, seed, count):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            outcome, stderr = run(cli, command, doc, work)
            yield command, doc, outcome, fault(outcome, stderr, work / "out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the src/ directory that holds invtrack")
    parser.add_argument("--seed", type=int, default=73)
    parser.add_argument("--count", type=int, default=900)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from invtrack import cli, scenario

    counts = Counter()
    for command, doc, outcome, found in search(cli, scenario, args.seed, args.count):
        counts["timeout" if outcome == "timeout" else
               "uncaught" if isinstance(outcome, str) else f"exit {outcome}"] += 1
        if found is not None:
            counts["printed"] += 1
            print(f"{command} {json.dumps(doc)}: {found}")
    print(f"{args.count} documents, seed {args.seed}: "
          + ", ".join(f"{key} {counts[key]}" for key in sorted(counts)))
    return 1 if counts["printed"] else 0


if __name__ == "__main__":
    sys.exit(main())
