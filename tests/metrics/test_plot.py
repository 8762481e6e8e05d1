"""Tests for the ASCII plot helpers."""

from __future__ import annotations

from repro.experiments.plot import ascii_chart


class TestAsciiChart:
    def test_renders_grid_with_legend(self):
        chart = ascii_chart(
            {"baseline": [1, 2, 3, 4], "overhead": [2, 3, 4, 5]},
            width=20,
            height=8,
        )
        lines = chart.splitlines()
        assert len(lines) == 9  # 8 grid rows + legend
        assert "baseline" in lines[-1] and "overhead" in lines[-1]
        assert "┤" in lines[0] and "┴" in lines[-2]

    def test_y_axis_labels(self):
        chart = ascii_chart({"s": [0, 10]}, width=10, height=5)
        assert chart.splitlines()[0].strip().startswith("10")

    def test_monotone_series_monotone_rows(self):
        chart = ascii_chart({"up": list(range(32))}, width=32, height=10)
        rows = chart.splitlines()[:-1]
        first_col = [line[10:].find("*") for line in rows]
        positions = [
            (row_index, column)
            for row_index, column in enumerate(first_col)
            if column >= 0
        ]
        # Higher rows (smaller index) hold later (larger) columns.
        sorted_by_row = sorted(positions)
        columns = [column for _, column in sorted_by_row]
        assert columns == sorted(columns, reverse=True)

    def test_empty_series(self):
        assert ascii_chart({}) == "(no data)"
        assert ascii_chart({"x": []}) == "(no data)"

    def test_constant_zero_series(self):
        chart = ascii_chart({"flat": [0, 0, 0]}, width=10, height=4)
        assert "flat" in chart

    def test_labels(self):
        chart = ascii_chart(
            {"s": [1, 2]}, width=8, height=4, y_label="rounds", x_label="nodes"
        )
        assert chart.splitlines()[0] == "rounds"
        assert "nodes" in chart

