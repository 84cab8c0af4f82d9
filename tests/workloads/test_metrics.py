"""Unit tests for the measurement helpers."""

from __future__ import annotations

import time

from repro.workloads.metrics import MetricSeries, Timer, format_table


class TestTimer:
    def test_measures_elapsed_time(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.005

    def test_reusable(self):
        timer = Timer()
        with timer:
            pass
        first = timer.elapsed
        with timer:
            time.sleep(0.005)
        assert timer.elapsed >= first


class TestMetricSeries:
    def test_add_and_columns(self):
        series = MetricSeries("latency", ["n", "seconds"])
        series.add(n=100, seconds=0.5)
        series.add(n=200, seconds=1.25)
        assert series.column("n") == [100, 200]
        assert series.column("missing") == [None, None]

    def test_to_table_contains_title_and_rows(self):
        series = MetricSeries("latency", ["n", "seconds"])
        series.add(n=100, seconds=0.5)
        text = series.to_table()
        assert "latency" in text
        assert "100" in text and "0.5" in text


class TestFormatTable:
    def test_alignment_and_header(self):
        text = format_table(["name", "value"], [{"name": "a", "value": 1}, {"name": "bbbb", "value": 22}])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", "+"}
        assert len(lines) == 4

    def test_float_formatting(self):
        text = format_table(["x"], [{"x": 0.000001}, {"x": 123456.0}, {"x": 0.1234567}])
        assert "e-06" in text or "1.000e-06" in text
        assert "0.1235" in text

    def test_missing_cells_render_empty(self):
        text = format_table(["a", "b"], [{"a": 1}])
        assert text.splitlines()[-1].startswith("1")
