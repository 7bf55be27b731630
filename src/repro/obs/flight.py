"""Per-node flight recorders and the live-cluster observability plane.

The simulator traces into one file from one thread of control; a live
cluster cannot.  Every node must keep telemetry that survives its own
death, and events on different nodes carry no shared clock.  This module
closes that gap with three pieces:

* :class:`LamportClock` — the classic logical clock.  Each node ticks on
  every local event and folds in the clock carried by each received
  message, so sorting the union of all nodes' events by
  ``(lamport, node, seq)`` yields a valid linear extension of the
  happened-before order (a send is always merged before its receive).
* :class:`FlightRecorder` — a per-node bounded ring of recent events
  plus an append-only JSONL file written with **one unbuffered write
  per line**.  A SIGKILL can truncate only the record being written;
  every previously written line survives, and the trace reader already
  tolerates a partial final line.
* :class:`LiveObservability` — the harness-side plane: one recorder per
  node plus one for the harness itself, a :class:`RouterTracer` that
  routes the process-global ``get_tracer()`` stream to whichever node is
  currently *scoped* (transport dispatch scopes the receiving node, the
  harness scopes the node it is driving), per-node metric registries
  with exact merge semantics, and an atomically replaced
  ``heartbeat.json`` for the ``soup live top`` watch view.

Trace-context propagation: :meth:`LiveObservability.on_send` emits a
``live_msg_send`` event and returns a compact ``(msg_id, lamport,
t_send)`` tuple that :class:`repro.deploy.live.transport.LiveTransport`
carries in the frame header; :meth:`LiveObservability.on_receive`
folds the carried lamport into the receiver's clock and emits the
matching ``live_msg_recv`` — the pair is what lets
:func:`repro.obs.analysis.merge_trace_files` reconstruct cross-node
causal chains from a crashed cluster's flight recorders.
"""

from __future__ import annotations

import os
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer, encode_trace_event

#: Node id used by the harness's own flight recorder.  Negative so it can
#: never collide with a cluster node.
HARNESS_NODE_ID = -1

#: Ring capacity: how many recent events each node keeps in memory (the
#: file on disk is unbounded; the ring feeds post-mortem "last moments").
FLIGHT_CAPACITY = 512

#: Sub-second log-spaced buckets for live message and operation latency
#: histograms (loopback operations run from tens of microseconds to, under
#: chaos, whole retry timeouts).  The live harness imports them from here.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: The currently scoped node id.  A ``ContextVar`` (not a plain attribute)
#: so concurrent asyncio tasks each see the scope their task was created
#: under — transport dispatch for node A cannot leak attribution into a
#: task delivering to node B.
_SCOPE: ContextVar[Optional[int]] = ContextVar("soup_obs_scope", default=None)


class LamportClock:
    """A logical clock: ``tick`` on local events, ``observe`` on receive."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def tick(self) -> int:
        self.value += 1
        return self.value

    def observe(self, remote: int) -> int:
        """Fold a remote clock in (receive rule, without the local tick —
        the subsequent :meth:`tick` by the event emitter supplies the +1)."""
        if remote > self.value:
            self.value = remote
        return self.value


class FlightRecorder:
    """One node's crash-surviving event log: bounded ring + JSONL appends.

    Every record is a valid v1 trace line stamped with the recorder's
    ``node`` id (unless the event names a different subject node) and a
    fresh ``lamport`` timestamp.  File writes are single ``write()`` calls
    on an unbuffered binary handle, so a kill mid-run loses at most the
    one in-flight record and never corrupts earlier lines.

    The first record of every file is a ``node_lifecycle`` header
    announcing which node the file belongs to —
    :func:`repro.obs.analysis.merge_trace_files` uses it to reject two
    files claiming the same node id.
    """

    __slots__ = ("node_id", "path", "clock", "_ring", "_seq", "_file", "closed")

    def __init__(self, node_id: int, path: str) -> None:
        self.node_id = node_id
        self.path = path
        self.clock = LamportClock()
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=FLIGHT_CAPACITY)
        self._seq = 0
        self._file = open(path, "ab", buffering=0)
        self.closed = False
        self.emit("node_lifecycle", node=node_id, state="recorder_opened",
                  t=time.time())

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Record one event; returns the full stamped record (the caller
        may read back the ``lamport`` it was assigned, e.g. to carry it
        in a message envelope)."""
        record, line = encode_trace_event(
            self._seq, event,
            {"node": self.node_id, "lamport": self.clock.tick(), **fields},
        )
        self._seq += 1
        self._ring.append(record)
        if not self.closed:
            self._file.write(line.encode("utf-8"))
        return record

    def recent(self) -> List[Dict[str, Any]]:
        """The ring's contents, oldest first."""
        return list(self._ring)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._file.close()


class RouterTracer(Tracer):
    """A :class:`~repro.obs.trace.Tracer` that routes every emitted event
    to the currently scoped node's flight recorder (the harness recorder
    when nothing is scoped).  Installed process-wide via ``set_tracer``,
    it makes all existing instrumentation sites — repair rounds, failure
    declarations, circuit opens — flow into per-node files with zero
    changes to the emitting subsystems."""

    __slots__ = ("_plane",)

    def __init__(self, plane: "LiveObservability") -> None:
        super().__init__()
        self._plane = plane
        self.enabled = True

    def emit(self, event: str, **fields: Any) -> None:
        self._plane.current_recorder().emit(event, **fields)

    def close(self) -> None:
        # Recorder lifecycles belong to the plane, not the tracer.
        self.enabled = False


class LiveObservability:
    """The harness-side observability plane for one resilience run."""

    def __init__(self, out_dir: str, node_ids: Sequence[int]) -> None:
        self.out_dir = out_dir
        self.flight_dir = os.path.join(out_dir, "flight")
        os.makedirs(self.flight_dir, exist_ok=True)
        self._recorders: Dict[int, FlightRecorder] = {}
        for node_id in node_ids:
            path = os.path.join(self.flight_dir, f"node-{node_id:05d}.jsonl")
            self._recorders[node_id] = FlightRecorder(node_id, path)
        self.harness = FlightRecorder(
            HARNESS_NODE_ID, os.path.join(self.flight_dir, "harness.jsonl")
        )
        self._registries: Dict[int, MetricsRegistry] = {}
        self._msg_counts: Dict[int, int] = {}
        self.tracer = RouterTracer(self)

    # --- scoping -------------------------------------------------------
    @contextmanager
    def scope(self, node_id: Optional[int]) -> Iterator[None]:
        """Attribute events emitted inside the block to ``node_id``."""
        token = _SCOPE.set(node_id)
        try:
            yield
        finally:
            _SCOPE.reset(token)

    def current_recorder(self) -> FlightRecorder:
        recorder = self._recorders.get(_SCOPE.get())
        return recorder if recorder is not None else self.harness

    def recorder_for(self, node_id: int) -> FlightRecorder:
        recorder = self._recorders.get(node_id)
        return recorder if recorder is not None else self.harness

    def registry_for(self, node_id: int) -> MetricsRegistry:
        registry = self._registries.get(node_id)
        if registry is None:
            registry = self._registries[node_id] = MetricsRegistry()
        return registry

    # --- trace-context propagation (the LiveTransport hooks) ----------
    def on_send(
        self, sender: int, receiver: int, kind: str, size: int
    ) -> Tuple[str, int, float]:
        """Record a message leaving ``sender``; returns the trace context
        ``(msg_id, lamport, t_send)`` to carry in the wire envelope."""
        count = self._msg_counts.get(sender, 0)
        self._msg_counts[sender] = count + 1
        msg_id = f"m{sender}-{count}"
        now = time.time()
        record = self.recorder_for(sender).emit(
            "live_msg_send", peer=receiver, msg_id=msg_id, kind=kind,
            bytes=size, t=now,
        )
        registry = self.registry_for(sender)
        registry.counter("live.msgs.sent").inc()
        registry.counter("live.bytes.sent").inc(size)
        return (msg_id, record["lamport"], now)

    def on_receive(
        self, receiver: int, sender: int, ctx: Tuple[str, int, float], kind: str
    ) -> None:
        """Record a message arriving at ``receiver``, folding the carried
        Lamport clock into the receiver's — the step that makes the merged
        trace order every send before its receive."""
        msg_id, lamport, t_send = ctx
        recorder = self.recorder_for(receiver)
        recorder.clock.observe(int(lamport))
        now = time.time()
        latency = max(0.0, now - float(t_send))
        recorder.emit(
            "live_msg_recv", peer=sender, msg_id=str(msg_id), kind=kind,
            latency_s=latency, t=now,
        )
        registry = self.registry_for(receiver)
        registry.counter("live.msgs.recv").inc()
        registry.histogram(
            "live.msg.latency_s", buckets=LATENCY_BUCKETS
        ).observe(latency)

    # --- streaming aggregation -----------------------------------------
    def epoch_sync(self, epoch: int) -> None:
        """Harness-mediated clock sync at an epoch boundary: every clock
        observes the cluster maximum (the harness acting as communicator),
        bounding clock skew to one epoch's event spread so the merged
        order tracks epoch order."""
        clocks = [self.harness.clock] + [
            recorder.clock for recorder in self._recorders.values()
        ]
        frontier = max(clock.value for clock in clocks)
        for clock in clocks:
            clock.observe(frontier)

    def merged_registry(self) -> MetricsRegistry:
        """All nodes' metrics re-merged (exact: counters add, histograms
        merge bucket-wise, so merge order cannot change the result)."""
        return MetricsRegistry.merged(
            self._registries[node].state_dict()
            for node in sorted(self._registries)
        )

    def heartbeat(
        self,
        epoch: int,
        epochs_total: int,
        extra: Optional[Dict[str, Any]] = None,
        done: bool = False,
    ) -> Dict[str, Any]:
        """Atomically replace ``<out_dir>/heartbeat.json`` with the current
        cluster view (`soup live top` polls this file)."""
        from pathlib import Path

        from repro.runtime.store import atomic_write_json

        merged = self.merged_registry()
        doc: Dict[str, Any] = {
            "schema": "soup-live-heartbeat/v1",
            "t": time.time(),
            "epoch": epoch,
            "epochs": epochs_total,
            "done": done,
            "nodes": {
                str(node_id): {
                    "lamport": recorder.clock.value,
                    "events": recorder._seq,
                }
                for node_id, recorder in sorted(self._recorders.items())
            },
            "metrics": merged.snapshot(),
        }
        if extra:
            doc.update(extra)
        atomic_write_json(Path(self.out_dir) / "heartbeat.json", doc)
        return doc

    # --- lifecycle ------------------------------------------------------
    def trace_paths(self) -> List[str]:
        """Every flight-recorder file, harness last."""
        paths = [
            self._recorders[node].path for node in sorted(self._recorders)
        ]
        paths.append(self.harness.path)
        return paths

    def close(self) -> None:
        self.tracer.close()
        for recorder in self._recorders.values():
            recorder.close()
        self.harness.close()
