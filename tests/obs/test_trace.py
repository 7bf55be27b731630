"""Tests for the structured event tracer and schema validation."""

import io
import json

import pytest

from repro.obs import (
    EVENT_SCHEMAS,
    TRACE_SCHEMA_VERSION,
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
    validate_event,
    validate_trace_file,
)


def _lines(buf):
    return [json.loads(line) for line in buf.getvalue().splitlines()]


class TestTracer:
    def test_disabled_by_default(self):
        tracer = Tracer()
        assert not tracer.enabled
        tracer.emit("replica_pushed", owner=1, mirror=2)  # must not raise

    def test_emit_writes_jsonl(self):
        buf = io.StringIO()
        tracer = Tracer(buf)
        tracer.emit("replica_pushed", owner=1, mirror=2, epoch=3)
        tracer.emit("replica_dropped", owner=1, mirror=2, reason="capacity")
        records = _lines(buf)
        assert len(records) == 2
        assert records[0]["event"] == "replica_pushed"
        assert records[0]["v"] == TRACE_SCHEMA_VERSION
        assert records[0]["seq"] == 0
        assert records[1]["seq"] == 1

    def test_output_is_key_sorted_and_compact(self):
        buf = io.StringIO()
        Tracer(buf).emit("replica_pushed", owner=1, mirror=2)
        line = buf.getvalue().splitlines()[0]
        assert ": " not in line and ", " not in line
        keys = list(json.loads(line))
        assert keys == sorted(keys)

    def test_filter_restricts_events(self):
        buf = io.StringIO()
        tracer = Tracer(buf, event_filter=["retry"])
        tracer.emit("replica_pushed", owner=1, mirror=2)
        tracer.emit("retry", kind="send", dest=9)
        records = _lines(buf)
        assert [r["event"] for r in records] == ["retry"]

    def test_filter_rejects_unknown_event_name(self):
        with pytest.raises(ValueError, match="unknown trace event"):
            Tracer(io.StringIO(), event_filter=["not_an_event"])

    def test_strict_mode_raises_on_bad_event(self):
        tracer = Tracer(io.StringIO(), strict=True)
        with pytest.raises(ValueError, match="missing required field"):
            tracer.emit("replica_pushed", owner=1)  # mirror missing

    def test_close_disables(self):
        buf = io.StringIO()
        tracer = Tracer(buf)
        tracer.close()
        assert not tracer.enabled

    def test_tracing_context_installs_and_restores(self):
        buf = io.StringIO()
        before = get_tracer()
        with tracing(buf) as tracer:
            assert get_tracer() is tracer
            get_tracer().emit("retry", kind="send")
        assert get_tracer() is before
        assert len(_lines(buf)) == 1

    def test_set_tracer_none_installs_disabled(self):
        old = set_tracer(None)
        try:
            assert not get_tracer().enabled
        finally:
            set_tracer(old)

    def test_to_path_writes_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer.to_path(str(path))
        tracer.emit("circuit_open", dest=5)
        tracer.close()
        assert validate_trace_file(str(path)) == []


class TestValidateEvent:
    def _ok(self, event, **fields):
        record = {"v": TRACE_SCHEMA_VERSION, "seq": 0, "event": event}
        record.update(fields)
        return validate_event(record)

    def test_every_schema_has_required_and_optional(self):
        for name, schema in EVENT_SCHEMAS.items():
            assert set(schema) == {"required", "optional"}, name

    def test_valid_events_for_each_type(self):
        samples = {
            "mirror_selected": dict(owner=1, mirrors=[2, 3], epoch=0),
            "replica_pushed": dict(owner=1, mirror=2, bytes=10, t=1.5),
            "replica_dropped": dict(owner=1, mirror=2, reason="mismatch"),
            "dht_lookup": dict(key=1, responsible=2, hops=[1, 2], delivered=True),
            "retry": dict(kind="send", dest=3, attempt=2),
            "circuit_open": dict(dest=4),
            "failure_declared": dict(peer=5, by=6),
            "repair_round": dict(owner=7, dead=[1], replacements=1),
            "invariant_checked": dict(epoch=3, ok=True, checks=4),
            "update_dropped": dict(target=1, origin=2, reason="buffer-full"),
            "object_refused": dict(node=1, reason="replay"),
            "availability_sample": dict(
                epoch=3, population=10, available=9, unavailable=[4]
            ),
            "sweep_task_started": dict(
                task="t0001", key="ab12", pending=3, total=5
            ),
            "sweep_task_finished": dict(
                task="t0001", key="ab12", status="ok", seconds=1.25,
                done=3, total=5,
            ),
            "sweep_interrupted": dict(
                done=3, total=5, running=2, reason="signal"
            ),
            "live_msg_send": dict(
                peer=2, msg_id="m0001", node=1, lamport=4, kind="put",
                bytes=128, t=0.5,
            ),
            "live_msg_recv": dict(
                peer=1, msg_id="m0001", node=2, lamport=5, latency_s=0.002,
                kind="put", t=0.502,
            ),
            "chaos_action": dict(
                kind="kill", epoch=3, nodes=[4, 7], scheduled_epoch=3, t=1.2
            ),
            "node_lifecycle": dict(
                node=4, state="killed", epoch=3, reason="chaos", lamport=9
            ),
        }
        assert set(samples) == set(EVENT_SCHEMAS)
        for event, fields in samples.items():
            assert self._ok(event, **fields) is None, event

    def test_missing_envelope_field(self):
        assert "envelope" in validate_event({"seq": 0, "event": "retry"})

    def test_unknown_event_type(self):
        assert "unknown event" in self._ok("definitely_not_real")

    def test_wrong_schema_version(self):
        problem = validate_event(
            {"v": 999, "seq": 0, "event": "retry", "kind": "send"}
        )
        assert "version" in problem

    def test_missing_required_field(self):
        assert "missing required field" in self._ok("replica_dropped", owner=1, mirror=2)

    def test_wrong_required_type(self):
        problem = self._ok("replica_dropped", owner="x", mirror=2, reason="r")
        assert "wrong type" in problem

    def test_bool_does_not_pass_as_int(self):
        problem = self._ok("replica_pushed", owner=True, mirror=2)
        assert "wrong type" in problem

    def test_non_object_line(self):
        assert validate_event([1, 2]) is not None


def test_validate_trace_file_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(
        {"v": TRACE_SCHEMA_VERSION, "seq": 0, "event": "circuit_open", "dest": 1}
    )
    path.write_text(good + "\nnot json\n" + good + "\n")
    errors = validate_trace_file(str(path))
    assert len(errors) == 1
    assert errors[0].startswith("line 2:")
