"""Deterministic report emission: JSON verdicts, time-series CSV, digests.

Floats are printed with repr-faithful %.17g so that two runs of the same
scenario produce byte-identical files.  The JSON emitter is intentionally
tiny: insertion-ordered dicts, no trailing whitespace, newline at EOF.
"""

from __future__ import annotations

import hashlib
import json
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


def format_float(value: float) -> str:
    """Shortest decimal form that round-trips a double."""
    return FLOAT_FORMAT % value


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
        pieces.append(format_float(obj))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_text(obj) -> str:
    """Serialize to deterministic JSON with a trailing newline."""
    pieces: list = []
    _emit(obj, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def scenario_digest(canonical: dict) -> str:
    """sha256 over the canonical scenario document."""
    return hashlib.sha256(json_text(canonical).encode("utf-8")).hexdigest()


def verdict(command: str, passed: bool, metrics: dict, tolerances: dict, digest: str) -> dict:
    return {
        "command": command,
        "pass": passed,
        "metrics": metrics,
        "tolerances": tolerances,
        "scenario_digest": digest,
    }


def timeseries_csv(result) -> str:
    """Render a simulation result as CSV with the fixed column set."""
    table = np.column_stack((
        result.times,
        result.poses,
        result.estimates,
        result.references,
        result.tracking_errors,
        result.estimation_errors,
        result.inputs,
    ))
    row_format = ",".join([FLOAT_FORMAT] * len(CSV_COLUMNS))
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(row_format % tuple(row) for row in table.tolist())
    lines.append("")
    return "\n".join(lines)


def write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")
