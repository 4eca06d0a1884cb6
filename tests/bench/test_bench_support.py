"""Tests for the reporting helpers."""

from repro.bench.reporting import format_series, format_table


class TestFormatting:
    def test_table_alignment(self):
        text = format_table("T", ["a", "bbb"], [[1, 2.5], [100, 0.001]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1] == "="
        assert "a" in lines[2] and "bbb" in lines[2]
        assert len(lines) == 6

    def test_series_layout(self):
        text = format_series("S", "x", [1, 2], {"y1": [10, 20], "y2": [30, 40]})
        lines = text.splitlines()
        assert "x" in lines[2] and "y1" in lines[2] and "y2" in lines[2]
        assert "10" in lines[4] and "30" in lines[4]

    def test_float_formatting(self):
        text = format_table("T", ["v"], [[1234.5], [0.1234], [3.5], [0.0]])
        assert "1,234" in text or "1,235" in text
        assert "0.1234" in text
        assert "3.50" in text

    def test_empty_rows(self):
        text = format_table("T", ["a"], [])
        assert "a" in text

