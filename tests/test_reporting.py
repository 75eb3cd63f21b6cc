import numpy as np
import pytest

from invtrack.closed_loop import SimulationResult
from invtrack.reporting import (
    CSV_BLOCK_ROWS,
    CSV_COLUMNS,
    FLOAT_FORMAT,
    json_text,
    write_timeseries_csv,
)
from oracles import timeseries_csv


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
