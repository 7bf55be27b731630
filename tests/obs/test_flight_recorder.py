"""Flight recorders: Lamport stamping, ring bounds, and crash-safety.

The headline claim under test (the PR's satellite #3): a flight recorder
whose process is SIGKILLed mid-run leaves a file that is still readable,
schema-valid, and missing **at most the one in-flight record** — no gaps,
no corrupted earlier lines.
"""

import json
import os
import signal
import subprocess
import sys
import time

from repro.obs import flight
from repro.obs import (
    FlightRecorder,
    HARNESS_NODE_ID,
    LamportClock,
    LiveObservability,
)
from repro.obs.analysis import TraceReadReport, iter_trace


class TestLamportClock:
    def test_tick_is_monotonic(self):
        clock = LamportClock()
        values = [clock.tick() for _ in range(5)]
        assert values == [1, 2, 3, 4, 5]

    def test_observe_takes_max_without_incrementing(self):
        clock = LamportClock()
        clock.tick()  # 1
        assert clock.observe(10) == 10
        assert clock.observe(3) == 10  # stale remote never rewinds
        # The next local event is strictly after everything observed.
        assert clock.tick() == 11


class TestFlightRecorder:
    def test_first_record_is_identity_header(self, tmp_path):
        path = str(tmp_path / "node.jsonl")
        recorder = FlightRecorder(7, path)
        recorder.close()
        with open(path, "r", encoding="utf-8") as handle:
            first = json.loads(handle.readline())
        assert first["event"] == "node_lifecycle"
        assert first["state"] == "recorder_opened"
        assert first["node"] == 7

    def test_records_are_schema_valid_and_lamport_ordered(self, tmp_path):
        path = str(tmp_path / "node.jsonl")
        recorder = FlightRecorder(3, path)
        recorder.emit("retry", kind="push", dest=9)
        recorder.emit("circuit_open", dest=9)
        recorder.close()
        report = TraceReadReport()
        events = list(iter_trace(path, validate=True, report=report))
        assert report.errors == []
        lamports = [event["lamport"] for event in events]
        assert lamports == sorted(lamports)
        assert len(set(lamports)) == len(lamports)
        assert all(event["node"] == 3 for event in events)

    def test_caller_fields_override_recorder_stamp(self, tmp_path):
        # chaos_action / node_lifecycle events name a *subject* node that
        # is not the recorder: the caller's value must win.
        recorder = FlightRecorder(
            HARNESS_NODE_ID, str(tmp_path / "harness.jsonl")
        )
        record = recorder.emit("node_lifecycle", node=42, state="killed")
        recorder.close()
        assert record["node"] == 42

    def test_ring_is_bounded_file_is_not(self, tmp_path, monkeypatch):
        monkeypatch.setattr(flight, "FLIGHT_CAPACITY", 8)
        path = str(tmp_path / "node.jsonl")
        recorder = FlightRecorder(1, path)
        for attempt in range(50):
            recorder.emit("retry", kind="push", attempt=attempt)
        recent = recorder.recent()
        recorder.close()
        assert len(recent) == 8
        assert recent[-1]["attempt"] == 49
        with open(path, "r", encoding="utf-8") as handle:
            assert sum(1 for _ in handle) == 51  # header + every emit


_CHILD_SCRIPT = """
import sys
from repro.obs import FlightRecorder

recorder = FlightRecorder(5, sys.argv[1])
attempt = 0
while True:
    recorder.emit("retry", kind="flood", attempt=attempt)
    attempt += 1
"""


class TestSigkillSurvival:
    def test_kill_mid_run_loses_at_most_one_record(self, tmp_path):
        path = str(tmp_path / "node.jsonl")
        env = dict(os.environ)
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD_SCRIPT, path], env=env
        )
        try:
            # Let it write a meaningful amount, then kill it mid-write.
            deadline = time.time() + 10.0
            while time.time() < deadline:
                if os.path.exists(path) and os.path.getsize(path) > 20_000:
                    break
                time.sleep(0.01)
            else:
                raise AssertionError("child never produced flight records")
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=10)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()

        # The file is readable and every complete line is schema-valid.
        report = TraceReadReport()
        events = list(iter_trace(path, validate=True, report=report))
        assert len(events) > 50
        assert report.errors == [], report.errors

        # No gaps: record seq is contiguous from the header onward, so
        # nothing in the middle of the file was lost or corrupted.
        seqs = [event["seq"] for event in events]
        assert seqs == list(range(len(events)))

        # At most ONE record is missing: the raw tail is either a clean
        # newline (nothing lost) or a single partial line (the in-flight
        # record), which the reader reports as truncation, not an error.
        with open(path, "rb") as handle:
            raw = handle.read()
        partial_tail = not raw.endswith(b"\n")
        assert partial_tail == report.truncated
        complete_lines = raw.count(b"\n")
        assert len(events) == complete_lines


class TestLiveObservabilityPlane:
    def test_send_recv_pair_orders_across_nodes(self, tmp_path):
        plane = LiveObservability(str(tmp_path), [1, 2])
        ctx = plane.on_send(1, 2, kind="Envelope", size=128)
        plane.on_receive(2, 1, ctx, kind="Envelope")
        plane.close()
        msg_id, send_lamport, _ = ctx
        recv = next(
            event
            for event in iter_trace(plane.recorder_for(2).path)
            if event["event"] == "live_msg_recv"
        )
        assert recv["msg_id"] == msg_id
        assert recv["lamport"] > send_lamport

    def test_scope_routes_tracer_emissions(self, tmp_path):
        plane = LiveObservability(str(tmp_path), [1, 2])
        with plane.scope(2):
            plane.tracer.emit("circuit_open", dest=9)
        plane.tracer.emit("retry", kind="push")  # unscoped -> harness
        plane.close()
        node2 = [e["event"] for e in iter_trace(plane.recorder_for(2).path)]
        harness = [e["event"] for e in iter_trace(plane.harness.path)]
        assert "circuit_open" in node2
        assert "retry" in harness

    def test_epoch_sync_bounds_clock_skew(self, tmp_path):
        plane = LiveObservability(str(tmp_path), [1, 2])
        for _ in range(20):
            plane.recorder_for(1).clock.tick()
        plane.epoch_sync(0)
        assert (
            plane.recorder_for(2).clock.value
            == plane.recorder_for(1).clock.value
        )
        plane.close()
