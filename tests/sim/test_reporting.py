"""Tests for result rendering."""

from repro.sim.reporting import sparkline


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_length_matches_input(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_monotone_series_monotone_blocks(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line == "▁▂▃▄▅▆▇█"

    def test_flat_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_pinned_scale(self):
        # 0.75 on a [0,1] scale is a mid-high block regardless of data range.
        high = sparkline([0.75], 0.0, 1.0)
        free = sparkline([0.75])
        assert high != free or free == "▁"

    def test_clipping_out_of_scale(self):
        line = sparkline([-10, 0.5, 10], 0.0, 1.0)
        assert line[0] == "▁"
        assert line[-1] == "█"
