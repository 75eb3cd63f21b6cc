import dataclasses
import os
import stat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from invtrack import reporting
from invtrack.closed_loop import SimulationResult
from invtrack.reporting import (
    CSV_BLOCK_ROWS,
    CSV_COLUMNS,
    FLOAT_FORMAT,
    json_text,
    write_text,
    write_timeseries_csv,
)
from oracles import json_text_oracle, timeseries_csv


def per_value_csv(result) -> str:
    """Oracle: every value formatted on its own and joined, row by row."""
    lines = [",".join(CSV_COLUMNS)]
    for i in range(len(result.times)):
        row = (
            result.times[i],
            *result.poses[i],
            *result.estimates[i],
            *result.references[i],
            *result.tracking_errors[i],
            *result.estimation_errors[i],
            *result.inputs[i],
        )
        lines.append(",".join(FLOAT_FORMAT % v for v in row))
    lines.append("")
    return "\n".join(lines)


def written(result, tmp_path) -> bytes:
    """The bytes of the file write_timeseries_csv writes."""
    path = tmp_path / "timeseries.csv"
    write_timeseries_csv(result, path)
    return path.read_bytes()


def separate_arrays(rows: int) -> SimulationResult:
    """A result of rows times whose seven fields are separate arrays, not
    views of one table as simulate's are; every value is distinct."""
    values = np.arange(rows * 17, dtype=float).reshape(rows, 17) / 7.0 - 3.0
    return SimulationResult(
        np.arange(rows) * 0.001,
        values[:, 0:3].copy(), values[:, 3:6].copy(), values[:, 6:9].copy(),
        values[:, 9:12].copy(), values[:, 12:15].copy(), values[:, 15:17].copy(),
    )


class TestTimeseriesCsv:
    def test_matches_per_value_formatting(self, tmp_path):
        specials = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300, float("nan"),
                    float("inf"), 0.0, 3.0, -2.0, 1e16, 0.1, 1.0 / 3.0, -7.25e-9]
        rng = np.random.default_rng(5)
        values = np.array(specials * 9)[:4 * 17].reshape(4, 17)
        values[3] = rng.standard_normal(17) * 10.0 ** rng.integers(-12, 12, 17)
        res = SimulationResult(
            np.array([0.0, 0.001, 0.002, 30.0]),
            values[:, 0:3], values[:, 3:6], values[:, 6:9],
            values[:, 9:12], values[:, 12:15], values[:, 15:17],
        )
        data = written(res, tmp_path)
        assert data == per_value_csv(res).encode("utf-8") == timeseries_csv(res).encode("utf-8")
        assert b"-0," in data and b"nan" in data and b"inf" in data
        assert b"4.9406564584124654e-324" in data

    @pytest.mark.parametrize("rows", [
        1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 1,
    ])
    def test_blocks_join_into_the_whole_table(self, rows, tmp_path):
        # Streamed a block at a time, the file is the one string the whole
        # table formats to, on each side of every block edge.
        res = separate_arrays(rows)
        data = written(res, tmp_path)
        assert data == timeseries_csv(res).encode("utf-8")
        assert data.count(b"\n") == rows + 1


REPORT = json_text({"command": "eigs", "pass": True, "metrics": {"margin": 0.5}})


class TestRewrite:
    """Both writers rewrite a file in place: never truncated to zero, cut at
    the end of the new text, the inode, mode and links kept."""

    @pytest.mark.parametrize("old", [b"x" * (1 << 20), b"x" * (len(REPORT) + 1)],
                             ids=["1MB", "one-byte-longer"])
    def test_report_over_a_longer_file(self, tmp_path, old):
        path = tmp_path / "report.json"
        path.write_bytes(old)
        write_text(path, REPORT)
        assert path.read_bytes() == REPORT.encode("utf-8")

    @pytest.mark.parametrize("rows, old_rows", [
        (2 * CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS + 1),  # one row, less than a block, shorter
        (CSV_BLOCK_ROWS + 1, 3 * CSV_BLOCK_ROWS),
        (1, 2),
    ])
    def test_csv_over_a_longer_csv(self, tmp_path, rows, old_rows):
        path = tmp_path / "timeseries.csv"
        write_timeseries_csv(separate_arrays(old_rows), path)
        write_timeseries_csv(separate_arrays(rows), path)
        assert path.read_bytes() == timeseries_csv(separate_arrays(rows)).encode("utf-8")

    def test_csv_over_a_longer_file(self, tmp_path):
        path = tmp_path / "timeseries.csv"
        path.write_bytes(b"x" * (1 << 20))
        res = separate_arrays(CSV_BLOCK_ROWS + 3)
        write_timeseries_csv(res, path)
        assert path.read_bytes() == timeseries_csv(res).encode("utf-8")

    @pytest.mark.parametrize("write", [
        lambda path: write_text(path, REPORT),
        lambda path: write_timeseries_csv(separate_arrays(3), path),
    ], ids=["report", "csv"])
    def test_existing_file_keeps_inode_mode_and_links(self, tmp_path, write):
        path = tmp_path / "out"
        path.write_bytes(b"x" * 5000)
        path.chmod(0o640)
        os.link(path, tmp_path / "link")
        before = path.stat()
        write(path)
        after = path.stat()
        assert after.st_ino == before.st_ino and after.st_nlink == 2
        assert stat.S_IMODE(after.st_mode) == 0o640
        assert (tmp_path / "link").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o000])
    def test_new_file_mode_is_open_w_mode(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain", "w", encoding="utf-8"):
                pass
            write_text(tmp_path / "report.json", REPORT)
        finally:
            os.umask(old)
        want = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
        assert stat.S_IMODE((tmp_path / "report.json").stat().st_mode) == want

    def test_raising_source_ends_the_file_at_its_last_byte(self, tmp_path, monkeypatch):
        # The chunks written before the raise stay; the old tail is cut, and
        # the descriptor is closed.
        path = tmp_path / "out"
        path.write_bytes(b"x" * (1 << 20))
        fds = []
        os_open = os.open

        def recording(*args):
            fds.append(os_open(*args))
            return fds[-1]

        monkeypatch.setattr(reporting.os, "open", recording)

        def chunks():
            yield "first,"
            yield "second\n"
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            reporting._rewrite(path, chunks())
        assert path.read_bytes() == b"first,second\n"
        with pytest.raises(OSError):
            os.fstat(fds[0])

    def test_csv_block_that_raises_leaves_the_rows_before_it(self, tmp_path):
        # A block's column_stack raises on inputs one row short: the header
        # and the full blocks before it are the file.
        path = tmp_path / "timeseries.csv"
        path.write_bytes(b"x" * (1 << 20))
        res = separate_arrays(CSV_BLOCK_ROWS + 2)
        short = dataclasses.replace(res, inputs=res.inputs[:-1])
        with pytest.raises(ValueError):
            write_timeseries_csv(short, path)
        whole = timeseries_csv(res).encode("utf-8")
        assert path.read_bytes() == b"".join(whole.splitlines(keepends=True)[:CSV_BLOCK_ROWS + 1])


class TestJsonText:
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), np.float64("nan")]
    )
    def test_non_finite_float_is_rejected(self, value):
        # JSON has no NaN or Infinity; a report must not hold one.
        with pytest.raises(ValueError, match="JSON has no value for the float"):
            json_text({"metrics": {"drift": [0.5, value]}})

    def test_extreme_finite_floats_are_kept(self):
        text = json_text([-0.0, 5e-324, 1e308])
        assert text == "[\n  -0,\n  4.9406564584124654e-324,\n  1e+308\n]\n"

    def test_quotes_as_json_dumps(self):
        assert json_text({"a\"b\\\n\u00e9\U0001f600": "\t\x7f"}) == (
            '{\n  "a\\"b\\\\\\n\\u00e9\\ud83d\\ude00": "\\t\\u007f"\n}\n'
        )


# Every float class a document may hold: -0.0, the smallest subnormal, other
# subnormals, the largest magnitudes, and any finite value.
FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308, allow_subnormal=True),
    st.floats(allow_nan=False, allow_infinity=False),
)
SCALARS = st.one_of(
    FLOATS,
    FLOATS.map(np.float64),
    st.integers(-(10 ** 30), 10 ** 30),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
)
KEYS = st.text(alphabet=st.sampled_from('ab"\\\n\t\x00\x7f\u00e9\u2028\U0001f600'), max_size=4)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=24,
)
# What neither writer may print: NaN or inf, a key that is not a str, a type
# JSON has no form for.
FAULTS = st.sampled_from([
    float("nan"), float("inf"), -float("inf"), np.float64("nan"),
    {1: 0.5}, {None: 0.5}, {("a",): 0.5}, np.int64(3), np.float32(0.5), {0.5}, b"x",
])


def outcome(write, doc):
    """write(doc), or the class and message of what it raised."""
    try:
        return write(doc)
    except (ValueError, TypeError) as err:
        return type(err), str(err)


class TestJsonTextOracle:
    @given(doc=DOCUMENTS)
    def test_matches_the_recursive_writer(self, doc):
        # Byte for byte with the isinstance chain that quotes by json.dumps.
        assert json_text(doc) == json_text_oracle(doc)

    @given(doc=DOCUMENTS, fault=FAULTS, where=st.integers(0, 2))
    def test_raises_as_the_recursive_writer(self, doc, fault, where):
        # The fault placed at the top, in a list after doc, or as a value
        # after doc's entry: the same class and message from both.
        placed = (fault, [doc, fault], {"doc": doc, "fault": fault})[where]
        got = outcome(json_text, placed)
        assert got == outcome(json_text_oracle, placed)
        assert isinstance(got, tuple)
