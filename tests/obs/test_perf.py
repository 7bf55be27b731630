"""The performance observability plane: nesting, exports, tracing.

Covers the phase-timer contracts ``soup perf`` leans on:

* spans nest into folded paths, and leaf/exclusive aggregations are
  consistent with each other;
* the exporters (folded stacks, Chrome trace, phase breakdown) emit the
  formats their consumers parse;
* enabling phase timers leaves a structured trace byte-identical.
"""

import json
import time

import pytest

from repro.obs import Tracer, set_tracer
from repro.obs.perf import chrome_trace, folded_lines, phase_breakdown
from repro.obs.profiling import PROFILER, Profiler


def _busy(seconds: float = 0.0) -> None:
    if seconds:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            pass


def _nested_profiler() -> Profiler:
    profiler = Profiler()
    profiler.enable()
    with profiler.span("engine.epoch"):
        with profiler.span("engine.selection_round"):
            with profiler.span("engine.scoring"):
                _busy(0.001)
            with profiler.span("engine.dropping"):
                _busy(0.002)
        with profiler.span("engine.measure"):
            _busy(0.0005)
    profiler.disable()
    return profiler


class TestNesting:
    def test_folded_paths_follow_the_span_stack(self):
        profiler = _nested_profiler()
        folded = profiler.folded()
        assert set(folded) == {
            "engine.epoch",
            "engine.epoch;engine.selection_round",
            "engine.epoch;engine.selection_round;engine.scoring",
            "engine.epoch;engine.selection_round;engine.dropping",
            "engine.epoch;engine.measure",
        }
        assert all(wall > 0.0 for wall in folded.values())

    def test_totals_aggregate_by_leaf(self):
        profiler = _nested_profiler()
        totals = profiler.totals()
        assert set(totals) == {
            "engine.epoch",
            "engine.selection_round",
            "engine.scoring",
            "engine.dropping",
            "engine.measure",
        }
        # The root span contains everything else.
        assert totals["engine.epoch"] >= totals["engine.selection_round"]
        assert profiler.counts()["engine.epoch"] == 1

    def test_self_times_sum_to_root_total(self):
        profiler = _nested_profiler()
        self_times = profiler.self_times()
        root = profiler.folded()["engine.epoch"]
        assert sum(self_times.values()) == pytest.approx(root, rel=1e-9)
        # Exclusive time of a leaf equals its inclusive time.
        leaf = "engine.epoch;engine.selection_round;engine.dropping"
        assert self_times[leaf] == pytest.approx(
            profiler.folded()[leaf], rel=1e-9
        )

    def test_disabled_span_records_nothing(self):
        profiler = Profiler()
        with profiler.span("never"):
            pass
        assert profiler.folded() == {}

    def test_epoch_buckets(self):
        profiler = Profiler()
        profiler.enable()
        for epoch in (0, 1):
            profiler.set_epoch(epoch)
            with profiler.span("engine.epoch"):
                with profiler.span("engine.dropping"):
                    _busy(0.0005)
        profiler.set_epoch(None)
        with profiler.span("engine.epoch"):
            pass  # unbucketed
        profiler.disable()
        assert profiler.epochs() == [0, 1]
        phases = profiler.epoch_phases(0)
        assert set(phases) == {"engine.epoch", "engine.dropping"}
        assert phases["engine.dropping"] > 0.0
        assert profiler.epoch_phases(7) == {}


class TestExports:
    def test_folded_lines_parse_as_path_and_micros(self):
        lines = folded_lines(_nested_profiler())
        assert lines
        for line in lines:
            path, micros = line.rsplit(" ", 1)
            assert path
            assert int(micros) > 0
        paths = [line.rsplit(" ", 1)[0] for line in lines]
        assert "engine.epoch;engine.selection_round;engine.dropping" in paths

    def test_chrome_trace_from_recorded_events(self):
        profiler = Profiler()
        profiler.enable()
        profiler.record_events = True
        with profiler.span("engine.epoch"):
            with profiler.span("engine.scoring"):
                _busy(0.0005)
        profiler.disable()
        document = chrome_trace(profiler)
        events = document["traceEvents"]
        assert len(events) == 2
        # Children finish (and are recorded) before their parents.
        assert events[0]["name"] == "engine.scoring"
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0
            assert event["args"]["stack"].endswith(event["name"])
        # The document survives a JSON round-trip (what the file export does).
        assert json.loads(json.dumps(document)) == document

    def test_chrome_trace_without_events_is_valid_and_empty(self):
        assert chrome_trace(Profiler()) == {
            "traceEvents": [],
            "displayTimeUnit": "ms",
        }

    def test_phase_breakdown_uses_short_names_and_self_times(self):
        profiler = _nested_profiler()
        phases = phase_breakdown(profiler)
        assert set(phases) == {
            "epoch", "selection_round", "scoring", "dropping", "measure",
        }
        assert sum(phases.values()) == pytest.approx(
            profiler.folded()["engine.epoch"], rel=1e-9
        )


# --- phase timers and the structured trace ------------------------------


def _run_traced(trace_path, enable_profiler=False):
    from repro.graphs.datasets import generate_dataset
    from repro.sim.engine import run_scenario
    from repro.sim.scenario import ScenarioConfig

    config = ScenarioConfig(scale=0.004, n_days=1, seed=5)
    graph = generate_dataset(
        config.dataset, scale=config.scale, seed=config.seed
    )
    if enable_profiler:
        PROFILER.reset()
        PROFILER.enable()
    tracer = Tracer.to_path(str(trace_path))
    set_tracer(tracer)
    try:
        run_scenario(config, graph)
    finally:
        set_tracer(None)
        tracer.close()
        if enable_profiler:
            PROFILER.disable()
            PROFILER.reset()


def test_phase_timers_leave_trace_bytes_identical(tmp_path):
    plain = tmp_path / "plain.jsonl"
    timed = tmp_path / "timed.jsonl"
    _run_traced(plain)
    _run_traced(timed, enable_profiler=True)
    assert plain.read_bytes(), "baseline run produced an empty trace"
    assert plain.read_bytes() == timed.read_bytes()
