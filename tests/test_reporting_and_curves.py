"""Tests for text reporting and the figure-series builders."""

import pytest

from repro.analysis.curves import figure3_data
from repro.analysis.reporting import (
    format_bar_chart,
    format_series_table,
    format_table,
)
from tests.conftest import make_trace


class TestFormatTable:
    def test_headers_and_rows_rendered(self):
        text = format_table(["name", "value"], [["a", 1.0], ["b", 2.5]])
        lines = text.splitlines()
        assert "name" in lines[0] and "value" in lines[0]
        assert "a" in lines[2]
        assert "2.50" in text

    def test_title(self):
        text = format_table(["x"], [[1]], title="Table 1")
        assert text.splitlines()[0] == "Table 1"

    def test_column_alignment(self):
        text = format_table(["col"], [["short"], ["much-longer-cell"]])
        lines = text.splitlines()
        assert len(lines[1]) == len(lines[2]) == len(lines[3])

    def test_float_rendering(self):
        text = format_table(["v"], [[0.00123], [123456.0], [12.3456]])
        assert "0.0012" in text
        assert "123456" in text
        assert "12.35" in text


class TestSeriesTable:
    def test_one_column_per_series(self):
        text = format_series_table(
            "mem", [1.0, 2.0], {"GD": [0.5, 0.2], "TTL": [1.5, 1.2]}
        )
        header = text.splitlines()[0]
        assert "mem" in header and "GD" in header and "TTL" in header
        assert len(text.splitlines()) == 4


class TestBarChart:
    def test_bars_scale(self):
        text = format_bar_chart(["a", "b"], [10.0, 5.0], width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_zero_values(self):
        text = format_bar_chart(["a"], [0.0])
        assert "#" not in text

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            format_bar_chart(["a"], [1.0, 2.0])


class TestFigureBuilders:
    def test_figure3_prediction_vs_observation(self):
        trace = make_trace("ABCABCABCABC" * 4, gap_s=2.0)
        data = figure3_data(trace, cache_sizes_gb=[0.2, 0.5, 1.0])
        assert len(data.predicted) == len(data.observed) == 3
        assert all(0.0 <= v <= 1.0 for v in data.predicted)
        assert all(0.0 <= v <= 1.0 for v in data.observed)
        # Predictions are monotone in size.
        assert data.predicted == sorted(data.predicted)
        assert data.max_deviation() >= 0.0


class TestLinePlot:
    def test_basic_render(self):
        from repro.analysis.reporting import format_line_plot

        text = format_line_plot(
            [0.0, 10.0], {"GD": [1.0, 2.0], "TTL": [3.0, 4.0]},
            title="demo", x_label="x", y_label="y",
        )
        assert "demo" in text
        assert "G=GD" in text and "T=TTL" in text
        assert "G" in text and "T" in text

    def test_collision_marker(self):
        from repro.analysis.reporting import format_line_plot

        text = format_line_plot([0.0], {"A": [1.0], "B": [1.0]})
        assert "*" in text

    def test_length_mismatch(self):
        from repro.analysis.reporting import format_line_plot

        with pytest.raises(ValueError):
            format_line_plot([1.0, 2.0], {"A": [1.0]})

    def test_empty_x(self):
        from repro.analysis.reporting import format_line_plot

        with pytest.raises(ValueError):
            format_line_plot([], {})

    def test_constant_series(self):
        from repro.analysis.reporting import format_line_plot

        text = format_line_plot([1.0, 2.0], {"A": [5.0, 5.0]})
        assert "A" in text

    def test_marker_letters_distinct(self):
        from repro.analysis.reporting import format_line_plot

        text = format_line_plot(
            [0.0],
            {"LRU": [1.0], "LND": [2.0], "LFU": [3.0]},
        )
        # L, N, F assigned without collisions in the legend.
        assert "L=LRU" in text and "N=LND" in text and "F=LFU" in text
