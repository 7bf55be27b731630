"""The simulated network: links, delivery, and traffic metering.

Every registered node has a :class:`LinkSpec` (latency, bandwidth — mobile
nodes get slower links, Sec. 3.3) and a handler invoked on delivery.
Transfer time is ``latency + size / min(sender_up, receiver_down)``.
Messages to offline or unknown nodes fail; the sender's failure callback
fires, which is how fetch attempts against offline mirrors are *observed*
as failures and end up in experience sets.

:class:`TrafficMeter` buckets bytes per second per direction, producing
exactly the KB/s-over-time series plotted in Figs. 14a, 14b and 15.

:class:`SimNetwork` is one backend of the :class:`~repro.network.transport.Transport`
seam — the deterministic discrete-event one.  The live asyncio backend
(:mod:`repro.deploy.live`) implements the same contract over TCP loopback
sockets, so the middleware above runs unchanged on either.
"""

from __future__ import annotations

import logging
from typing import Any, List, Optional

from repro.network.events import EventLoop
from repro.network.transport import FailureHandler, Transport
from repro.obs import get_registry
from repro.obs.profiling import PROFILER

logger = logging.getLogger("repro.network.simnet")


class _NetEvent:
    """One scheduled delivery or failure notification, pooled.

    Every :meth:`SimNetwork.send` used to allocate a fresh closure per
    message; at deployment-emulation message rates that allocation (and
    the captured cell objects) dominated the network layer's profile.  An
    event object instead carries the message fields in ``__slots__`` and
    returns itself to the network's free list after firing, so steady-state
    traffic allocates nothing per message.  The event loop fires each
    scheduled entry exactly once, so an event is only recycled after its
    single shot — at-most-once delivery is preserved (property-tested in
    tests/property/test_reliability_properties.py).
    """

    __slots__ = (
        "net",
        "kind",
        "sender",
        "receiver",
        "message",
        "size_bytes",
        "receive_duration",
        "reason",
        "failure_handler",
    )

    #: Event kinds.
    DELIVER = 0
    FAIL = 1

    def __init__(self, net: "SimNetwork") -> None:
        self.net = net
        self.kind = _NetEvent.DELIVER
        self.sender = 0
        self.receiver = 0
        self.message = None
        self.size_bytes = 0
        self.receive_duration = 0.0
        self.reason = ""
        self.failure_handler: Optional[FailureHandler] = None

    def __call__(self) -> None:
        net = self.net
        try:
            if self.kind == _NetEvent.DELIVER:
                net._deliver(
                    self.sender,
                    self.receiver,
                    self.message,
                    self.size_bytes,
                    self.receive_duration,
                )
            else:
                handler = self.failure_handler
                if handler is not None:
                    handler(self.receiver, self.message, self.reason)
        finally:
            # Drop payload/handler references before pooling so a recycled
            # slot cannot keep a message graph alive.
            self.message = None
            self.failure_handler = None
            net._event_pool.append(self)


class SimNetwork(Transport):
    """Message delivery between registered nodes over an event loop."""

    def __init__(self, loop: EventLoop) -> None:
        super().__init__(loop)
        #: Free list of recycled :class:`_NetEvent` objects.
        self._event_pool: List[_NetEvent] = []

    # --- sending ---------------------------------------------------------
    def _acquire_event(self) -> _NetEvent:
        pool = self._event_pool
        if pool:
            return pool.pop()
        return _NetEvent(self)

    def _schedule_failure(
        self,
        delay: float,
        handler: FailureHandler,
        sender: int,
        receiver: int,
        message: Any,
        reason: str,
    ) -> None:
        event = self._acquire_event()
        event.kind = _NetEvent.FAIL
        event.sender = sender
        event.receiver = receiver
        event.message = message
        event.reason = reason
        event.failure_handler = handler
        self.loop.schedule(delay, event)

    def _deliver(
        self,
        sender: int,
        receiver: int,
        message: Any,
        size_bytes: int,
        receive_duration: float,
    ) -> None:
        # Hot path: skip even the no-op span unless profiling is on.
        if PROFILER.enabled:
            with PROFILER.span("net.deliver"):
                return self._deliver_now(
                    sender, receiver, message, size_bytes, receive_duration
                )
        return self._deliver_now(
            sender, receiver, message, size_bytes, receive_duration
        )

    def _deliver_now(
        self,
        sender: int,
        receiver: int,
        message: Any,
        size_bytes: int,
        receive_duration: float,
    ) -> None:
        # The receiver may have gone offline while the bytes were in
        # flight; they are then lost.
        if not self._online.get(receiver, False):
            self._count_failure("lost-in-flight")
            return
        # A paused (SIGSTOP-stalled) receiver buffers the bytes; they are
        # handed to the handler on resume.
        if self._chaos is not None and receiver in self._chaos.paused:
            self._buffer_inbound(sender, receiver, message, size_bytes, receive_duration)
            return
        # Concurrent inbound streams share (serialize on) the downlink.
        start = max(self.loop.now, self._downlink_free_at.get(receiver, 0.0))
        self._downlink_free_at[receiver] = start + receive_duration
        self.meters[receiver].record_received(start, size_bytes, receive_duration)
        self.messages_delivered += 1
        get_registry().counter("net.delivered").inc()
        self._handlers[receiver](sender, message)

    def _flush_inbound(
        self,
        sender: int,
        receiver: int,
        message: Any,
        size_bytes: int,
        receive_duration: float,
    ) -> None:
        self._deliver(sender, receiver, message, size_bytes, receive_duration)

    def send(self, sender: int, receiver: int, message: Any, size_bytes: int) -> None:
        """Send a message; delivery or failure is scheduled on the loop."""
        if sender not in self._links:
            raise KeyError(f"unknown sender {sender}")
        if size_bytes < 0:
            raise ValueError("message size cannot be negative")
        if not self._online.get(sender, False):
            # A node that went offline mid-action loses the send, but the
            # loss is reported: its failure handler fires (immediately —
            # the sender's own stack notices synchronously) so retry
            # machinery can reschedule the send for when it reconnects.
            self._count_failure("sender-offline")
            failure_handler = self._failure_handlers.get(sender)
            if failure_handler is not None:
                self._schedule_failure(
                    0.0, failure_handler, sender, receiver, message, "sender-offline"
                )
            return
        if self._chaos is not None:
            blocked = self._chaos_blocks(sender, receiver)
            if blocked == "paused":
                self._buffer_outbound(sender, receiver, message, size_bytes)
                return
            if blocked == "chaos-drop":
                # Lost in flight: the sender learns nothing until its own
                # timeout machinery notices the missing ack.
                self._count_failure("chaos-drop")
                return
            if blocked is not None:  # "partitioned"
                self._count_failure(blocked)
                failure_handler = self._failure_handlers.get(sender)
                if failure_handler is not None:
                    delay = self._links[sender].latency_s * 2 + 0.5
                    self._schedule_failure(
                        delay, failure_handler, sender, receiver, message, blocked
                    )
                return
        # Sends serialize on the sender's uplink: a burst of pushes occupies
        # the link back to back instead of stacking into one instant.
        send_duration = size_bytes / self._links[sender].upstream_bytes_per_s
        start = max(self.loop.now, self._uplink_free_at.get(sender, 0.0))
        self._uplink_free_at[sender] = start + send_duration
        self.meters[sender].record_sent(start, size_bytes, send_duration)
        queue_delay = start - self.loop.now

        if receiver not in self._links or not self._online.get(receiver, False):
            self._count_failure("unreachable")
            failure_handler = self._failure_handlers.get(sender)
            if failure_handler is not None:
                # Failure is detected after a timeout ~ the link latency.
                delay = self._links[sender].latency_s * 2 + 0.5
                self._schedule_failure(
                    delay, failure_handler, sender, receiver, message, "unreachable"
                )
            return

        delay = self.transfer_time(sender, receiver, size_bytes)
        if self._chaos is not None:
            delay += self._chaos.extra_delay_s
        event = self._acquire_event()
        event.kind = _NetEvent.DELIVER
        event.sender = sender
        event.receiver = receiver
        event.message = message
        event.size_bytes = size_bytes
        event.receive_duration = size_bytes / min(
            self._links[sender].upstream_bytes_per_s,
            self._links[receiver].downstream_bytes_per_s,
        )
        self.loop.schedule(queue_delay + delay, event)
