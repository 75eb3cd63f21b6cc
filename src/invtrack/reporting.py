"""Deterministic report emission: JSON verdicts, time-series CSV, digests.

Floats are printed with repr-faithful %.17g so that two runs of the same
scenario produce byte-identical files.  The JSON emitter is intentionally
tiny: insertion-ordered dicts, no trailing whitespace, newline at EOF.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

CSV_COLUMNS = (
    "t",
    "x",
    "y",
    "theta",
    "xhat",
    "yhat",
    "thetahat",
    "xr",
    "yr",
    "thetar",
    "eta_x",
    "eta_y",
    "eta_theta",
    "eps_x",
    "eps_y",
    "eps_theta",
    "u",
    "v",
)


# Every float in a report or time series: enough digits to round-trip a double.
FLOAT_FORMAT = "%.17g"


def _emit(obj, indent: int, pieces: list) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        last = len(obj) - 1
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            pieces.append(f'{pad}  {json.dumps(key)}: ')
            _emit(value, indent + 1, pieces)
            pieces.append(",\n" if i != last else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        last = len(obj) - 1
        for i, value in enumerate(obj):
            pieces.append(pad + "  ")
            _emit(value, indent + 1, pieces)
            pieces.append(",\n" if i != last else "\n")
        pieces.append(pad + "]")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif obj is None:
        pieces.append("null")
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"JSON has no value for the float {obj}")
        pieces.append(FLOAT_FORMAT % obj)
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_text(obj) -> str:
    """Serialize to deterministic JSON with a trailing newline; a NaN or
    infinite float, which JSON cannot hold, raises ValueError."""
    pieces: list = []
    _emit(obj, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def scenario_digest(canonical: dict) -> str:
    """sha256 over the canonical scenario document."""
    return hashlib.sha256(json_text(canonical).encode("utf-8")).hexdigest()


# Rows per block of write_timeseries_csv: the text of one block is the most
# it holds at a time, whatever the run's length.
CSV_BLOCK_ROWS = 256


def write_timeseries_csv(result, path) -> None:
    """Write a simulation result as CSV with the fixed column set: the
    header, then CSV_BLOCK_ROWS rows at a time, each value as FLOAT_FORMAT."""
    columns = (
        result.times,
        result.poses,
        result.estimates,
        result.references,
        result.tracking_errors,
        result.estimation_errors,
        result.inputs,
    )
    row_format = ",".join([FLOAT_FORMAT] * len(CSV_COLUMNS)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for start in range(0, len(result.times), CSV_BLOCK_ROWS):
            block = np.column_stack([c[start:start + CSV_BLOCK_ROWS] for c in columns])
            fh.write("".join([row_format % tuple(row) for row in block.tolist()]))


def write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")
