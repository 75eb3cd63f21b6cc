import numpy as np

from invtrack.closed_loop import SimulationResult
from invtrack.reporting import CSV_COLUMNS, format_float, timeseries_csv


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
        lines.append(",".join(format_float(v) for v in row))
    lines.append("")
    return "\n".join(lines)


class TestTimeseriesCsv:
    def test_matches_per_value_formatting(self):
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
        text = timeseries_csv(res)
        assert text == per_value_csv(res)
        assert "-0," in text and "nan" in text and "4.9406564584124654e-324" in text
