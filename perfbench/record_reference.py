"""Record the reference outputs that every benchmark run is checked against.

Run once, from the repository root, at the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py <commit>

It runs each workload's fixed reference analyses and writes their report
metrics (and the last timeseries.csv row for simulate) to reference.json.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

# Optimisations may reorder floating-point work; results must stay within
# this of the reference.  atol covers metrics that are finite-difference noise
# (drifts and linearization mismatches around 1e-9 to 1e-8).
TOLERANCE = {"rtol": 1e-6, "atol": 1e-7}


def main(commit: str) -> None:
    sys.path.insert(0, str(run.SRC))
    from invtrack import cli

    run.OUT.mkdir(exist_ok=True)
    work = run.OUT / "record-reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        outputs = {name: run.reference_outputs(cli, w, work) for name, w in run.WORKLOADS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failing = [name for name, found in outputs.items() if not all(e["pass"] for e in found)]
    if failing:
        raise SystemExit(f"reference analyses fail their verdict: {failing}")
    doc = {"commit": commit, "tolerance": TOLERANCE, "workloads": outputs}
    (run.HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
