"""Structured event tracing: typed events, schema-versioned JSONL output.

A :class:`Tracer` receives typed events from the instrumented subsystems
(engine, mirror managers, DHT, reliability layer, network) and writes one
JSON object per line.  Every line carries the schema version ``v``, a
monotonically increasing ``seq`` and the event type; time fields (``epoch``
for the epoch simulator, ``t`` for the event-loop world's sim seconds) are
supplied by the *emitting* subsystem — the tracer itself never reads
wallclock, which is what makes traces byte-identical across same-seed runs.

The disabled tracer (the default) rejects events with a single attribute
check, so instrumentation sites cost one branch when tracing is off.
"""

from __future__ import annotations

import gzip
import io
import json
from contextlib import contextmanager
from typing import Any, Callable, Dict, IO, Iterable, Iterator, List, Optional, Set, Tuple, Union

#: Bumped whenever an event's required fields change shape.
TRACE_SCHEMA_VERSION = 1

#: Event schema: event type -> (required fields, optional fields), each a
#: mapping of field name to the accepted JSON-decoded type(s).  Fields not
#: listed are rejected in strict validation only if the event type itself
#: is unknown; known events may carry extra context fields.
_NUM = (int, float)
EVENT_SCHEMAS: Dict[str, Dict[str, Dict[str, tuple]]] = {
    "mirror_selected": {
        "required": {"owner": (int,), "mirrors": (list,)},
        "optional": {"estimated_error": _NUM + (type(None),), "epoch": (int,), "t": _NUM},
    },
    "replica_pushed": {
        "required": {"owner": (int,), "mirror": (int,)},
        "optional": {"epoch": (int,), "t": _NUM, "bytes": (int,), "attempt": (int,)},
    },
    "replica_dropped": {
        "required": {"owner": (int,), "mirror": (int,), "reason": (str,)},
        "optional": {"epoch": (int,), "t": _NUM},
    },
    "dht_lookup": {
        "required": {"key": (int,), "responsible": (int,), "hops": (list,), "delivered": (bool,)},
        "optional": {"alternates": (int,), "t": _NUM, "found": (bool,)},
    },
    "retry": {
        "required": {"kind": (str,)},
        "optional": {
            "dest": (int,), "attempt": (int,), "reason": (str,), "owner": (int,),
            "mirror": (int,), "epoch": (int,), "t": _NUM, "msg_id": (int,),
        },
    },
    "circuit_open": {
        "required": {"dest": (int,)},
        "optional": {"origin": (int,), "t": _NUM},
    },
    "failure_declared": {
        "required": {"peer": (int,)},
        "optional": {"by": (int,), "reason": (str,), "epoch": (int,), "t": _NUM},
    },
    "repair_round": {
        "required": {"owner": (int,)},
        "optional": {"dead": (list,), "replacements": (int,), "epoch": (int,), "t": _NUM},
    },
    "invariant_checked": {
        "required": {"epoch": (int,), "ok": (bool,)},
        "optional": {"checks": (int,), "violation": (str,)},
    },
    "update_dropped": {
        "required": {"target": (int,), "origin": (int,), "reason": (str,)},
        "optional": {"t": _NUM},
    },
    "object_refused": {
        "required": {"node": (int,), "reason": (str,)},
        "optional": {"sender": (int,), "kind": (str,), "t": _NUM},
    },
    # One per measured epoch: how many joined benign owners were (un)available
    # and exactly which owners were unavailable — the ground truth the trace
    # analyzer reconstructs per-owner unavailability windows from.
    "availability_sample": {
        "required": {
            "epoch": (int,), "population": (int,), "available": (int,),
            "unavailable": (list,),
        },
        "optional": {},
    },
    # Sweep telemetry (repro.runtime): live per-task progress written to the
    # run directory.  These carry wallclock durations — they describe the
    # orchestrator, not the simulated world, so the determinism contract
    # does not extend to them.
    "sweep_task_started": {
        "required": {"task": (str,), "key": (str,)},
        "optional": {"pending": (int,), "total": (int,)},
    },
    "sweep_task_finished": {
        "required": {"task": (str,), "key": (str,), "status": (str,)},
        "optional": {"seconds": _NUM, "error": (str,), "done": (int,), "total": (int,)},
    },
    # Emitted once when a sweep stops early on SIGTERM/KeyboardInterrupt:
    # the final telemetry record of an interrupted invocation (the events
    # file stays a valid v1 trace, and --resume picks up from the
    # artifacts already checkpointed).
    "sweep_interrupted": {
        "required": {"done": (int,), "total": (int,)},
        "optional": {"running": (int,), "reason": (str,)},
    },
    # Live-cluster observability (repro.obs.flight + repro.deploy.live):
    # one send/recv pair per LiveTransport message.  ``msg_id`` is the
    # trace-context id carried in the wire envelope; ``lamport`` is the
    # emitting node's Lamport clock, which is what lets the analyzer merge
    # per-node flight-recorder files into one causally ordered trace.
    "live_msg_send": {
        "required": {"peer": (int,), "msg_id": (str,)},
        "optional": {
            "node": (int,), "lamport": (int,), "kind": (str,),
            "bytes": (int,), "t": _NUM,
        },
    },
    "live_msg_recv": {
        "required": {"peer": (int,), "msg_id": (str,)},
        "optional": {
            "node": (int,), "lamport": (int,), "latency_s": _NUM,
            "kind": (str,), "t": _NUM,
        },
    },
    # One per executed FaultPlan step: what the chaos controller actually
    # did, to whom, and when — both the epoch it was scheduled for and the
    # wall-clock moment it ran, so resilience failures are attributable
    # without log archaeology.
    "chaos_action": {
        "required": {"kind": (str,), "epoch": (int,)},
        "optional": {
            "nodes": (list,), "t": _NUM, "scheduled_epoch": (int,),
            "seconds": _NUM, "rate": _NUM, "groups": (int,), "sizes": (list,),
        },
    },
    # Node state transitions on the live cluster (started/killed/paused/
    # resumed/stopped) as seen by the harness or the chaos controller.
    "node_lifecycle": {
        "required": {"node": (int,), "state": (str,)},
        "optional": {
            "epoch": (int,), "t": _NUM, "reason": (str,), "lamport": (int,),
        },
    },
}

#: Fields present on every trace line, added by the tracer itself.
_ENVELOPE_FIELDS = {"v", "seq", "event"}


def validate_event(obj: Any) -> Optional[str]:
    """Validate one decoded trace line; returns an error string or None."""
    if not isinstance(obj, dict):
        return f"trace line is not an object: {obj!r}"
    for field in ("v", "seq", "event"):
        if field not in obj:
            return f"missing envelope field {field!r}"
    if obj["v"] != TRACE_SCHEMA_VERSION:
        return f"unsupported schema version {obj['v']!r}"
    event = obj["event"]
    schema = EVENT_SCHEMAS.get(event)
    if schema is None:
        return f"unknown event type {event!r}"
    for field, types in schema["required"].items():
        if field not in obj:
            return f"{event}: missing required field {field!r}"
        if not isinstance(obj[field], types) or (
            bool not in types and isinstance(obj[field], bool)
        ):
            return f"{event}: field {field!r} has wrong type {type(obj[field]).__name__}"
    for field, types in schema["optional"].items():
        if field in obj and not isinstance(obj[field], types):
            return f"{event}: field {field!r} has wrong type {type(obj[field]).__name__}"
    return None


class _GzipTextSink(io.TextIOWrapper):
    """A text sink writing deterministic gzip: no filename, zero mtime, so
    the compressed bytes (not just the decompressed ones) are identical
    across same-seed runs.  Closes the underlying raw file too, which
    :class:`gzip.GzipFile` does not when handed a ``fileobj``."""

    def __init__(self, path: str) -> None:
        self._raw = open(path, "wb")
        member = gzip.GzipFile(filename="", mode="wb", fileobj=self._raw, mtime=0)
        super().__init__(member, encoding="utf-8", newline="\n")

    def close(self) -> None:
        try:
            super().close()
        finally:
            if not self._raw.closed:
                self._raw.close()


def open_trace_sink(path: str) -> IO[str]:
    """Open ``path`` for trace writing; ``.gz`` paths get gzip compression."""
    if path.endswith(".gz"):
        return _GzipTextSink(path)
    return open(path, "w", encoding="utf-8")


def validate_trace_file(path: str) -> List[str]:
    """Validate a JSONL(.gz) trace file; returns per-line error messages.

    Streams through :func:`repro.obs.analysis.iter_trace` — constant
    memory regardless of trace size, gzip-aware, and a truncated final
    line (killed writer) is reported as an error rather than crashing.
    """
    from repro.obs.analysis import TraceReadReport, iter_trace

    report = TraceReadReport()
    for _ in iter_trace(path, validate=True, report=report,
                        tolerate_truncation=False):
        pass
    return report.errors


def encode_trace_event(
    seq: int, event: str, fields: Dict[str, Any]
) -> Tuple[Dict[str, Any], str]:
    """One v1 trace record, ``{"v", "seq", "event"}`` updated with
    ``fields``, and its JSONL line: compact, keys sorted, newline-terminated.
    Every trace writer (the tracer, the flight recorders, a sweep's
    telemetry) encodes through here, so their lines cannot drift apart."""
    record = {"v": TRACE_SCHEMA_VERSION, "seq": seq, "event": event}
    record.update(fields)
    return record, json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


class Tracer:
    """Writes typed events as schema-versioned JSONL.

    ``sink`` is any text file-like object (or None for a disabled tracer);
    ``event_filter`` restricts output to the given event types; ``strict``
    validates every event against :data:`EVENT_SCHEMAS` at emit time and
    raises on mismatch (used by tests; off in production paths).
    """

    __slots__ = ("enabled", "_sink", "_filter", "_strict", "_seq", "_owns_sink")

    def __init__(
        self,
        sink: Optional[IO[str]] = None,
        event_filter: Optional[Iterable[str]] = None,
        strict: bool = False,
    ) -> None:
        self._sink = sink
        self._filter: Optional[Set[str]] = (
            set(event_filter) if event_filter is not None else None
        )
        if self._filter is not None:
            unknown = self._filter - set(EVENT_SCHEMAS)
            if unknown:
                raise ValueError(f"unknown trace event type(s): {sorted(unknown)}")
        self._strict = strict
        self._seq = 0
        self._owns_sink = False
        self.enabled = sink is not None

    @classmethod
    def to_path(
        cls,
        path: str,
        event_filter: Optional[Iterable[str]] = None,
        strict: bool = False,
    ) -> "Tracer":
        """Trace to ``path``; a ``.gz`` suffix (``trace.jsonl.gz``) writes
        deterministic gzip so large sweep traces don't blow the disk."""
        tracer = cls(open_trace_sink(path), event_filter, strict)
        tracer._owns_sink = True
        return tracer

    def emit(self, event: str, **fields: Any) -> None:
        """Record one event (no-op unless enabled and passing the filter)."""
        if not self.enabled:
            return
        if self._filter is not None and event not in self._filter:
            return
        record, line = encode_trace_event(self._seq, event, fields)
        if self._strict:
            problem = validate_event(record)
            if problem is not None:
                raise ValueError(f"invalid trace event: {problem}")
        self._seq += 1
        self._sink.write(line)

    def close(self) -> None:
        if self._sink is not None:
            self._sink.flush()
            if self._owns_sink:
                self._sink.close()
        self.enabled = False


#: The process-wide current tracer; disabled by default.
_CURRENT: Tracer = Tracer()


def get_tracer() -> Tracer:
    return _CURRENT


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` (None = disabled) as current; returns the old one."""
    global _CURRENT
    old = _CURRENT
    _CURRENT = tracer if tracer is not None else Tracer()
    return old


@contextmanager
def tracing(
    target: Union[str, IO[str]],
    event_filter: Optional[Iterable[str]] = None,
    strict: bool = False,
) -> Iterator[Tracer]:
    """Trace everything inside the block to ``target`` (path or file)."""
    if isinstance(target, str):
        tracer = Tracer.to_path(target, event_filter, strict)
    else:
        tracer = Tracer(target, event_filter, strict)
    old = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(old)
        tracer.close()
