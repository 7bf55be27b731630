"""The performance observability plane: nesting, exports, merge, tracing.

Covers the phase-timer contracts the rest of the PR leans on:

* spans nest into folded paths, and leaf/exclusive aggregations are
  consistent with each other;
* accumulator merging is an order-independent fold (property-tested, the
  same invariant the metrics registry guarantees);
* the exporters (folded stacks, Chrome trace, phase breakdown) emit the
  formats their consumers parse;
* enabling phase timers without ``PROFILER.trace`` leaves a structured
  trace byte-identical, while opting in emits schema-valid
  ``perf_profile`` events.
"""

import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import Tracer, set_tracer, validate_trace_file
from repro.obs.perf import (
    PhaseReport,
    capture_phases,
    chrome_trace,
    folded_lines,
    phase_breakdown,
)
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


class TestCapturePhases:
    def test_report_is_populated(self):
        with capture_phases() as report:
            assert isinstance(report, PhaseReport)
            with PROFILER.span("engine.epoch"):
                with PROFILER.span("engine.dropping"):
                    _busy(0.0005)
        assert set(report.phases) == {"epoch", "dropping"}
        assert report.state["counts"]["engine.epoch;engine.dropping"] == 1
        assert report.state["counts"]["engine.epoch"] == 1

    def test_outer_session_is_isolated_and_restored(self):
        PROFILER.reset()
        PROFILER.enable()
        PROFILER.trace = True
        try:
            with PROFILER.span("outer.phase"):
                _busy(0.0002)
            with capture_phases() as report:
                assert not PROFILER.trace
                assert PROFILER.folded() == {}  # clean slate inside
                with PROFILER.span("inner.phase"):
                    _busy(0.0002)
            # Inner spans stayed out of the outer session and vice versa.
            assert set(report.phases) == {"phase"}
            assert "inner.phase" not in PROFILER.folded()
            assert "outer.phase" in PROFILER.folded()
            assert PROFILER.enabled and PROFILER.trace
        finally:
            PROFILER.disable()
            PROFILER.trace = False
            PROFILER.reset()


# --- order-independent merge (sweep workers report in any order) ----------

PHASE_NAMES = ("engine.epoch", "engine.dropping", "net.deliver", "crypto.sign")

worker_records = st.lists(
    st.tuples(
        st.sampled_from(PHASE_NAMES),
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
    ),
    max_size=20,
)
sweep_states = st.lists(worker_records, min_size=1, max_size=6)


def _worker_state(records):
    profiler = Profiler()
    for name, elapsed in records:
        profiler.record(name, elapsed)
    return profiler.state_dict()


def assert_profiler_states_equal(actual, expected):
    """Counts merge exactly; wall/CPU are float sums whose rounding depends
    on addition order, so they only need ulp-level agreement."""
    assert actual["counts"] == expected["counts"]
    for key in ("wall", "cpu"):
        assert actual[key].keys() == expected[key].keys(), key
        for path, value in actual[key].items():
            assert value == pytest.approx(
                expected[key][path], rel=1e-12, abs=1e-12
            ), (key, path)


@settings(max_examples=120, deadline=None)
@given(per_worker=sweep_states, seed=st.integers(0, 2**32 - 1))
def test_merge_is_order_independent(per_worker, seed):
    states = [_worker_state(records) for records in per_worker]
    shuffled = list(states)
    random.Random(seed).shuffle(shuffled)

    forward = Profiler.merged(states)
    backward = Profiler.merged(reversed(states))
    permuted = Profiler.merged(shuffled)

    assert_profiler_states_equal(backward.state_dict(), forward.state_dict())
    assert_profiler_states_equal(permuted.state_dict(), forward.state_dict())


@settings(max_examples=60, deadline=None)
@given(per_worker=sweep_states)
def test_merge_equals_single_profiler_over_union(per_worker):
    states = [_worker_state(records) for records in per_worker]
    merged = Profiler.merged(states)
    union = _worker_state(
        [record for records in per_worker for record in records]
    )
    assert_profiler_states_equal(merged.state_dict(), union)


# --- the perf_profile trace event -----------------------------------------


def _run_traced(trace_path, enable_profiler=False, profile_trace=False):
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
        PROFILER.trace = profile_trace
    tracer = Tracer.to_path(str(trace_path))
    set_tracer(tracer)
    try:
        run_scenario(config, graph)
    finally:
        set_tracer(None)
        tracer.close()
        if enable_profiler:
            PROFILER.disable()
            PROFILER.trace = False
            PROFILER.reset()


def test_phase_timers_without_trace_flag_leave_trace_bytes_identical(tmp_path):
    plain = tmp_path / "plain.jsonl"
    timed = tmp_path / "timed.jsonl"
    _run_traced(plain)
    _run_traced(timed, enable_profiler=True)
    assert plain.read_bytes(), "baseline run produced an empty trace"
    assert plain.read_bytes() == timed.read_bytes()


def test_profile_trace_emits_schema_valid_perf_profile_events(tmp_path):
    path = tmp_path / "profiled.jsonl"
    _run_traced(path, enable_profiler=True, profile_trace=True)
    assert validate_trace_file(str(path)) == []
    events = [
        json.loads(line)
        for line in path.read_text().splitlines()
        if '"perf_profile"' in line
    ]
    assert events, "no perf_profile events emitted"
    epochs = [event["epoch"] for event in events]
    assert epochs == sorted(set(epochs)), "one event per epoch, in order"
    for event in events:
        assert event["phases"]
        assert all(wall >= 0.0 for wall in event["phases"].values())
