"""Deterministic report emission: JSON verdicts, time-series CSV, digests.

Floats are printed with repr-faithful %.17g so that two runs of the same
scenario produce byte-identical files.  The JSON emitter is intentionally
tiny: insertion-ordered dicts, no trailing whitespace, newline at EOF.
"""

from __future__ import annotations

import hashlib
import math
import os
from json.encoder import encode_basestring_ascii

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


def _emit(obj, pad: str, append) -> None:
    """Append obj's JSON text at indent pad.  A float (np.float64 too), the
    commonest value, is tested first: no type can subclass two of float,
    dict, list or tuple, str and int, so only bool must come before int."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"JSON has no value for the float {obj}")
        append(FLOAT_FORMAT % obj)
    elif isinstance(obj, dict):
        inner = pad + "  "
        sep = "{\n" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            append(f"{sep}{encode_basestring_ascii(key)}: ")
            _emit(value, inner, append)
            sep = ",\n" + inner
        append(f"\n{pad}}}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        inner = pad + "  "
        sep = "[\n" + inner
        for value in obj:
            append(sep)
            _emit(value, inner, append)
            sep = ",\n" + inner
        append(f"\n{pad}]" if obj else "[]")
    elif isinstance(obj, str):
        append(encode_basestring_ascii(obj))
    elif obj is None or isinstance(obj, bool):
        append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        append(str(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_text(obj) -> str:
    """Serialize to deterministic JSON with a trailing newline; a NaN or
    infinite float, which JSON cannot hold, raises ValueError.  Strings are
    quoted by encode_basestring_ascii, as json.dumps quotes them."""
    pieces: list = []
    _emit(obj, "", pieces.append)
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

    def blocks():
        yield ",".join(CSV_COLUMNS) + "\n"
        for start in range(0, len(result.times), CSV_BLOCK_ROWS):
            block = np.column_stack([c[start:start + CSV_BLOCK_ROWS] for c in columns])
            yield "".join([row_format % tuple(row) for row in block.tolist()])

    _rewrite(path, blocks())


def write_text(path, text: str) -> None:
    _rewrite(path, (text,))


def _rewrite(path, chunks) -> None:
    """The one output writer: write the strings of chunks to path as UTF-8,
    over any file there in place.  The file is opened without O_TRUNC and
    cut at the end of what was written, in a finally, so no old bytes follow
    the new ones, even when a chunk raises.  Truncating an existing file to
    zero makes ext4 (its auto_da_alloc rule) allocate the new blocks at
    close, which costs more than writing a report.  A new file gets the mode
    open(path, "w") gives; an existing one keeps its inode, mode and links."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        try:
            for chunk in chunks:
                fh.write(chunk)
        finally:
            fh.truncate()
