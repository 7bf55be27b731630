"""Tests for the profiling hooks."""

import time

import pytest

from repro.obs import profiling
from repro.obs.profiling import PROFILER, Profiler, _NULL_SPAN


class _FakeClock:
    """Stands in for the ``time`` module: wall and CPU move together and
    only when a test advances them."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now

    process_time = perf_counter


@pytest.fixture
def clock(monkeypatch):
    fake = _FakeClock()
    monkeypatch.setattr(profiling, "time", fake)
    return fake


def _spend(profiler, clock, name, seconds):
    """One ``name`` span that takes exactly ``seconds``."""
    with profiler.span(name):
        clock.now += seconds


def _enabled():
    profiler = Profiler()
    profiler.enable()
    return profiler


class TestProfiler:
    def test_disabled_span_is_shared_null_span(self):
        profiler = Profiler()
        assert profiler.span("anything") is _NULL_SPAN
        with profiler.span("anything"):
            pass
        assert profiler.totals() == {}

    def test_enabled_span_records_time(self):
        profiler = Profiler()
        profiler.enable()
        with profiler.span("work"):
            time.sleep(0.002)
        totals = profiler.totals()
        assert totals["work"] >= 0.002
        assert profiler.counts()["work"] == 1

    def test_reset(self, clock):
        profiler = _enabled()
        _spend(profiler, clock, "phase", 1.0)
        profiler.reset()
        assert profiler.totals() == {}

    def test_report_lines_empty(self):
        assert Profiler().report_lines() == ["profile: no spans recorded"]

    def test_report_lines_shares(self, clock):
        profiler = _enabled()
        _spend(profiler, clock, "outer", 2.0)
        _spend(profiler, clock, "inner", 1.0)
        lines = profiler.report_lines(top_level="outer")
        assert "outer" in lines[1]  # sorted widest first
        assert "100.0%" in lines[1]
        assert "50.0%" in lines[2]

    def test_report_lines_unknown_top_level_falls_back(self, clock):
        profiler = _enabled()
        _spend(profiler, clock, "only", 1.0)
        lines = profiler.report_lines(top_level="missing")
        assert "100.0%" in lines[1]

    def test_global_profiler_disabled_by_default(self):
        assert not PROFILER.enabled
