import numpy as np
import pytest

from eqtracer.cli import _domination
from eqtracer.trace import CSV_HEADER, Trace, trace_csv_lines, write_trace_csv


def _trace(**columns):
    base = dict(
        initial=1.0,
        potential=np.array([0.5, 0.25]),
        delta=np.array([0.1, 0.0]),
        bound=np.array([0.6, 0.3]),
    )
    return Trace(**{**base, **columns})


class TestCsv:
    def test_columns_serialise_row_by_row(self, tmp_path):
        trace = _trace(
            max_price=np.array([2.0, 1.0 / 3.0]),
            assumption1_ok=np.array([True, False]),
        )
        expected = [
            ",".join(CSV_HEADER),
            "1,0.5,0.10000000000000001,0.59999999999999998,2,,1,,",
            "2,0.25,0,0.29999999999999999,0.33333333333333331,,0,,",
        ]
        assert list(trace_csv_lines(trace)) == expected
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_zero_rounds_write_the_header_only(self):
        empty = np.empty(0)
        trace = Trace(
            initial=2.0, potential=empty, delta=empty, bound=empty,
            recurrence_ok=np.empty(0, dtype=bool),
        )
        assert len(trace) == 0
        assert list(trace_csv_lines(trace)) == [",".join(CSV_HEADER)]


class TestViolations:
    def test_counts_rounds_above_the_scaled_bound(self):
        trace = _trace(potential=np.array([0.5, 0.4]))
        assert trace.violations() == 1
        assert trace.violations(2.0) == 0
        assert _domination(trace) == {"violations": 1, "verdict": "FAIL", "rounds": 2}

    def test_tolerance_is_absolute_1e_9(self):
        assert _trace(potential=np.array([0.6 + 0.5e-9, 0.3])).violations() == 0
        assert _trace(potential=np.array([0.6 + 2e-9, 0.3])).violations() == 1

    def test_nan_potential_is_a_violation(self):
        trace = _trace(potential=np.array([np.nan, 0.25]))
        assert trace.violations() == 1
        assert trace.violations(np.sqrt(8)) == 1
        assert _domination(trace)["verdict"] == "FAIL"

    def test_nan_bound_is_a_violation(self):
        assert _trace(bound=np.array([0.6, np.nan])).violations() == 1
