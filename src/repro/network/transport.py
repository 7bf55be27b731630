"""The transport seam: one message-passing contract, two backends.

Everything above the network layer — the :class:`~repro.node.middleware.SoupNode`
middleware, the reliability machinery (:mod:`repro.network.reliability`) and
the Pastry directory — talks to the network through the interface defined
here, never to a concrete backend.  Two backends implement it:

* :class:`~repro.network.simnet.SimNetwork` — the deterministic
  discrete-event simulation (latency/bandwidth models, metered links).
* :class:`~repro.deploy.live.LiveTransport` — an asyncio runtime carrying
  every frame over real TCP loopback sockets (real buffers, real timing).

Because both subclass :class:`Transport`, the same middleware code paths
run unchanged on either backend — which is what lets the resilience
harness (:mod:`repro.deploy.live`) make availability claims about the
*protocol*, not about one network model.

The base class also owns the chaos primitives that fault injection needs
on *both* backends (see :mod:`repro.sim.faults` for the spec grammar):

* **partition** — nodes are assigned to groups; messages crossing a group
  boundary fail with reason ``"partitioned"``.
* **delay** — a fixed extra latency added to every delivery.
* **drop** — seeded random message loss in flight (``"chaos-drop"``).
* **pause** — a SIGSTOP-style stall: a paused node neither receives nor
  sends; traffic is buffered and flushed on resume.

All primitives are inert by default: a transport with no chaos applied
behaves bit-for-bit like one without these hooks (guarded by a single
``_chaos is None`` check on the send path).
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass, field
from typing import (
    Any, Callable, ContextManager, Dict, List, Optional, Protocol, Set, Tuple,
)


class TimerHandle(Protocol):
    """A scheduled callback that can be called off."""

    def cancel(self) -> None:
        """Keep the callback from running and release it now, not when the
        delay is up.  Harmless on a timer that already ran."""


class Clock(Protocol):
    """What a transport needs from time: a monotonic ``now`` and one-shot,
    cancellable timers.  :class:`~repro.network.events.EventLoop` provides
    it for the simulated world; :class:`~repro.deploy.live.AsyncClock` for
    wallclock."""

    @property
    def now(self) -> float: ...

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle: ...


@dataclass(frozen=True)
class LinkSpec:
    """A node's access link."""

    latency_s: float = 0.04
    upstream_bytes_per_s: float = 1_000_000.0
    downstream_bytes_per_s: float = 4_000_000.0

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency cannot be negative")
        if self.upstream_bytes_per_s <= 0 or self.downstream_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")


#: Typical 2014-era access links, used by the deployment emulation.
DESKTOP_LINK = LinkSpec(latency_s=0.03, upstream_bytes_per_s=750_000, downstream_bytes_per_s=1_000_000)
MOBILE_LINK = LinkSpec(latency_s=0.12, upstream_bytes_per_s=150_000, downstream_bytes_per_s=1_000_000)
SERVER_LINK = LinkSpec(latency_s=0.01, upstream_bytes_per_s=12_500_000, downstream_bytes_per_s=12_500_000)


class DeliveryFailure(Exception):
    """Raised/reported when a message cannot be delivered."""


class TrafficMeter:
    """Per-second byte counters for one node."""

    def __init__(self) -> None:
        self._sent: Dict[int, int] = {}
        self._received: Dict[int, int] = {}

    @staticmethod
    def _spread(
        table: Dict[int, int], time_s: float, size_bytes: int, duration_s: float
    ) -> None:
        """Bin a transfer that occupies the link over ``[time_s, time_s +
        duration_s)`` into whole seconds, each by its overlap with that
        interval — so transfers the uplink serialises back to back fill
        consecutive seconds instead of piling into the one they started
        in.  Every byte lands in exactly one bucket."""
        if not size_bytes:
            return
        first = int(time_s)
        end_s = time_s + duration_s
        last = int(end_s)
        if last == end_s and last > first:
            last -= 1  # ends on a second boundary: nothing in that second
        if last == first:  # the common case: one bucket
            table[first] = table.get(first, 0) + size_bytes
            return
        placed = 0
        for second in range(first, last):
            upto = round(size_bytes * (second + 1 - time_s) / duration_s)
            if upto > placed:
                table[second] = table.get(second, 0) + upto - placed
                placed = upto
        if size_bytes > placed:
            table[last] = table.get(last, 0) + size_bytes - placed

    def record_sent(
        self, time_s: float, size_bytes: int, duration_s: float = 0.0
    ) -> None:
        self._spread(self._sent, time_s, size_bytes, duration_s)

    def record_received(
        self, time_s: float, size_bytes: int, duration_s: float = 0.0
    ) -> None:
        self._spread(self._received, time_s, size_bytes, duration_s)

    def total_sent(self) -> int:
        return sum(self._sent.values())

    def total_received(self) -> int:
        return sum(self._received.values())

    def series_kb_per_s(
        self, start_s: int = 0, end_s: Optional[int] = None
    ) -> List[Tuple[int, float]]:
        """(second, KB/s) series of total traffic (both directions)."""
        buckets = set(self._sent) | set(self._received)
        if end_s is None:
            end_s = max(buckets) + 1 if buckets else start_s
        series = []
        for second in range(start_s, end_s):
            total = self._sent.get(second, 0) + self._received.get(second, 0)
            series.append((second, total / 1024.0))
        return series

    def peak_kb_per_s(self) -> float:
        series = self.series_kb_per_s()
        return max((kb for _, kb in series), default=0.0)

    def mean_kb_per_s(self) -> float:
        series = self.series_kb_per_s()
        if not series:
            return 0.0
        return sum(kb for _, kb in series) / len(series)


Handler = Callable[[int, Any], None]
FailureHandler = Callable[[int, Any, str], None]


@dataclass
class _ChaosState:
    """Active network-level faults (absent entirely on a healthy transport)."""

    #: node -> partition group; messages crossing groups fail.
    partition: Optional[Dict[int, int]] = None
    #: Extra seconds added to every delivery.
    extra_delay_s: float = 0.0
    #: Probability a message is silently lost in flight.
    drop_rate: float = 0.0
    #: Seeded stream for drop decisions (replayable).
    drop_rng: random.Random = field(default_factory=lambda: random.Random(0))
    #: Nodes currently stalled (SIGSTOP-style).
    paused: Set[int] = field(default_factory=set)

    @property
    def inert(self) -> bool:
        return (
            self.partition is None
            and self.extra_delay_s == 0.0
            and self.drop_rate == 0.0
            and not self.paused
        )


class Transport:
    """Shared state and contract for message transports.

    Subclasses implement :meth:`send` (and deliver inbound messages to the
    registered handlers); everything else — membership, link specs, online
    state, traffic meters, failure accounting, and the chaos primitives —
    lives here so both backends expose identical semantics.
    """

    def __init__(self, clock: Clock) -> None:
        #: Kept under the historical name ``loop``: the middleware reads
        #: ``network.loop.now`` for timestamps and schedules timers on it.
        self.loop = clock
        self._links: Dict[int, LinkSpec] = {}
        self._handlers: Dict[int, Handler] = {}
        self._failure_handlers: Dict[int, FailureHandler] = {}
        self._online: Dict[int, bool] = {}
        self.meters: Dict[int, TrafficMeter] = {}
        #: Separate meters for DHT/overlay control traffic, so control
        #: overhead (Fig. 14a) can be reported independently of user data.
        self.control_meters: Dict[int, TrafficMeter] = {}
        self.messages_delivered = 0
        self.messages_failed = 0
        #: Failure counts broken down by reason ("sender-offline",
        #: "unreachable", "lost-in-flight", "partitioned", "chaos-drop"),
        #: so diagnoses don't have to guess which leg dropped the message.
        self.failures_by_reason: Dict[str, int] = {}
        #: Time each node's uplink is busy until (sends serialize).
        self._uplink_free_at: Dict[int, float] = {}
        #: Time each node's downlink is busy until (receives serialize).
        self._downlink_free_at: Dict[int, float] = {}
        #: Active chaos, or None when the network is healthy (the common
        #: case: one attribute check on the send path).
        self._chaos: Optional[_ChaosState] = None
        #: Buffered traffic of paused nodes, flushed on resume.
        self._paused_inbox: Dict[int, List[Tuple[int, Any, int, float]]] = {}
        self._paused_outbox: Dict[int, List[Tuple[int, Any, int]]] = {}

    # --- membership -------------------------------------------------------
    def register(
        self,
        node_id: int,
        handler: Handler,
        link: LinkSpec = LinkSpec(),
        on_failure: Optional[FailureHandler] = None,
    ) -> None:
        if node_id in self._links:
            raise ValueError(f"node {node_id} already registered")
        self._links[node_id] = link
        self._handlers[node_id] = handler
        if on_failure is not None:
            self._failure_handlers[node_id] = on_failure
        self._online[node_id] = True
        self.meters[node_id] = TrafficMeter()
        self.control_meters[node_id] = TrafficMeter()

    def control_meter(self, node_id: int) -> TrafficMeter:
        """The DHT-control traffic meter for a node (created on demand for
        ids charged before registration, e.g. overlay-only members)."""
        meter = self.control_meters.get(node_id)
        if meter is None:
            meter = TrafficMeter()
            self.control_meters[node_id] = meter
        return meter

    def unregister(self, node_id: int) -> None:
        for table in (
            self._links,
            self._handlers,
            self._failure_handlers,
            self._online,
            self.meters,
            self.control_meters,
            self._uplink_free_at,
            self._downlink_free_at,
            self._paused_inbox,
            self._paused_outbox,
        ):
            table.pop(node_id, None)

    def node_ids(self) -> List[int]:
        return list(self._links)

    def set_online(self, node_id: int, online: bool) -> None:
        if node_id not in self._links:
            raise KeyError(f"unknown node {node_id}")
        self._online[node_id] = online

    def is_online(self, node_id: int) -> bool:
        return self._online.get(node_id, False)

    def link_of(self, node_id: int) -> LinkSpec:
        return self._links[node_id]

    # --- chaos primitives -------------------------------------------------
    def _ensure_chaos(self) -> _ChaosState:
        if self._chaos is None:
            self._chaos = _ChaosState()
        return self._chaos

    def _settle_chaos(self) -> None:
        """Drop the chaos state object once every fault is cleared, so the
        healthy send path goes back to a single None check."""
        if self._chaos is not None and self._chaos.inert:
            self._chaos = None

    def set_partition(self, groups: Dict[int, int]) -> None:
        """Split the network: messages between different groups fail.
        Nodes absent from ``groups`` default to group 0."""
        self._ensure_chaos().partition = dict(groups)

    def heal_partition(self) -> None:
        if self._chaos is not None:
            self._chaos.partition = None
            self._settle_chaos()

    def set_extra_delay(self, seconds: float) -> None:
        """Add a fixed delay to every delivery (0 clears it)."""
        if seconds < 0:
            raise ValueError("extra delay cannot be negative")
        if seconds == 0.0 and self._chaos is None:
            return
        self._ensure_chaos().extra_delay_s = seconds
        self._settle_chaos()

    def set_drop(self, rate: float, seed: object = 0) -> None:
        """Silently lose each message with probability ``rate`` (seeded,
        so a fixed seed replays the same loss pattern).  0 clears it."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError("drop rate must be in [0, 1]")
        if rate == 0.0 and self._chaos is None:
            return
        chaos = self._ensure_chaos()
        chaos.drop_rate = rate
        chaos.drop_rng = random.Random(f"drop/{seed}")
        self._settle_chaos()

    def pause(self, node_id: int) -> None:
        """SIGSTOP-style stall: the node stops sending and receiving;
        traffic to/from it is buffered until :meth:`resume`."""
        if node_id not in self._links:
            raise KeyError(f"unknown node {node_id}")
        self._ensure_chaos().paused.add(node_id)

    def resume(self, node_id: int) -> None:
        """Resume a paused node and flush its buffered traffic."""
        if self._chaos is None or node_id not in self._chaos.paused:
            return
        self._chaos.paused.discard(node_id)
        self._settle_chaos()
        for sender, message, size_bytes, receive_duration in self._paused_inbox.pop(
            node_id, []
        ):
            self._flush_inbound(sender, node_id, message, size_bytes, receive_duration)
        for receiver, message, size_bytes in self._paused_outbox.pop(node_id, []):
            self.send(node_id, receiver, message, size_bytes)

    def is_paused(self, node_id: int) -> bool:
        return self._chaos is not None and node_id in self._chaos.paused

    def partitioned(self, a: int, b: int) -> bool:
        """Whether a partition currently separates ``a`` and ``b``."""
        if self._chaos is None or self._chaos.partition is None:
            return False
        groups = self._chaos.partition
        return groups.get(a, 0) != groups.get(b, 0)

    def reachable(self, a: int, b: int) -> bool:
        """Whether a message from ``a`` could currently reach ``b``: both
        registered and online, neither paused, no partition in between.
        Protocol-level serving decisions consult this so the same code
        paths see chaos identically on both backends."""
        if not self._online.get(a, False) or not self._online.get(b, False):
            return False
        if self._chaos is None:
            return True
        if a in self._chaos.paused or b in self._chaos.paused:
            return False
        return not self.partitioned(a, b)

    # --- shared accounting ------------------------------------------------
    def _count_failure(self, reason: str) -> None:
        from repro.obs import get_registry

        self.messages_failed += 1
        self.failures_by_reason[reason] = self.failures_by_reason.get(reason, 0) + 1
        get_registry().counter(f"net.failures.{reason}").inc()

    def uplink_backlog_s(self, node_id: int) -> float:
        """How far beyond *now* the node's uplink is already committed —
        queued sends delay both delivery and the returning ack, so retry
        timeouts must stretch by this much to avoid false losses."""
        return max(0.0, self._uplink_free_at.get(node_id, 0.0) - self.loop.now)

    def transfer_time(self, sender: int, receiver: int, size_bytes: int) -> float:
        s_link = self._links[sender]
        r_link = self._links[receiver]
        bottleneck = min(s_link.upstream_bytes_per_s, r_link.downstream_bytes_per_s)
        return s_link.latency_s + r_link.latency_s + size_bytes / bottleneck

    # --- chaos hooks for the send path ------------------------------------
    def _chaos_blocks(self, sender: int, receiver: int) -> Optional[str]:
        """Returns the sentinel ``"paused"`` if the sender is stalled (the
        caller must buffer the send for resume), a failure reason if
        active chaos blocks this send, or None to proceed.  Drop decisions
        are made here too, so every backend consumes the seeded stream
        identically."""
        chaos = self._chaos
        if chaos is None:
            return None
        if sender in chaos.paused:
            return "paused"
        if chaos.partition is not None and self.partitioned(sender, receiver):
            return "partitioned"
        if chaos.drop_rate and chaos.drop_rng.random() < chaos.drop_rate:
            return "chaos-drop"
        return None

    def _buffer_outbound(
        self, sender: int, receiver: int, message: Any, size_bytes: int
    ) -> None:
        self._paused_outbox.setdefault(sender, []).append(
            (receiver, message, size_bytes)
        )

    def _buffer_inbound(
        self,
        sender: int,
        receiver: int,
        message: Any,
        size_bytes: int,
        receive_duration: float,
    ) -> None:
        self._paused_inbox.setdefault(receiver, []).append(
            (sender, message, size_bytes, receive_duration)
        )

    def _chaos_extra_delay(self) -> float:
        return self._chaos.extra_delay_s if self._chaos is not None else 0.0

    def _flush_inbound(
        self,
        sender: int,
        receiver: int,
        message: Any,
        size_bytes: int,
        receive_duration: float,
    ) -> None:
        """Deliver one buffered inbound message after a resume (backend-
        specific: the sim re-enters its delivery path, the live transport
        hands the frame to the node's handler)."""
        raise NotImplementedError

    # --- the contract -----------------------------------------------------
    def send(self, sender: int, receiver: int, message: Any, size_bytes: int) -> None:
        """Send a message; delivery or failure is reported asynchronously
        through the registered handlers."""
        raise NotImplementedError

    def fan_out(self, obj: Any) -> ContextManager[Any]:
        """A scope around the sends that carry the same ``obj`` to several
        receivers, such as one update to each mirror.

        A backend that encodes frames may encode ``obj`` once inside the
        scope and reuse the bytes for every frame that carries it, so
        ``obj`` must not change while the scope is open; a send after it
        closes (a retry) encodes afresh.  Here, and on ``SimNetwork``,
        which encodes nothing, the scope does nothing.
        """
        return _NO_SCOPE


#: :meth:`Transport.fan_out` of a backend with nothing to share.
_NO_SCOPE = contextlib.nullcontext()
