"""Reliable delivery over the simulated network.

:class:`~repro.network.transport.Transport` backends are deliberately
unreliable: messages to offline nodes vanish, in-flight bytes are lost when
the receiver goes dark, and a sender crashing mid-action loses the send.  The
protocol stack, however, makes durability claims — "data of any
participant [is] always available" — that rest on those very messages
(replica pushes, buffered-update deliveries) actually arriving.  This
module supplies the machinery between the two:

* :func:`backoff_s` — exponential backoff with deterministic,
  seed-derived jitter; with :data:`ATTEMPT_TIMEOUT_S` and
  :data:`MAX_ATTEMPTS` it is the retry policy.  The jitter for (seed,
  message, attempt) is a pure function, so a fixed scenario seed replays
  the exact retry schedule.
* :class:`CircuitBreaker` — per-destination closed → open → half-open
  breaker.  A destination that keeps timing out stops consuming uplink
  and timers until a probe succeeds (cf. the gateway-overload concern of
  Sec. 3.3: a mobile node hammering a dead gateway helps nobody).
* :class:`FailureDetector` — suspicion-based detector in the
  eventually-perfect style: ack timeouts raise suspicion, observed
  deliveries (an ack, or any inbound message) clear it.  Crossing the
  threshold declares the peer dead and fires ``on_dead`` — which is what
  triggers proactive replica repair in
  :meth:`repro.node.middleware.SoupNode.repair_mirrors`.
* :class:`ReliableEndpoint` — acknowledged sends: payloads travel in
  sequence-numbered :class:`Envelope` frames, receivers ack every frame
  (including duplicates) and deduplicate before delivering to the inner
  handler, so *ack loss → retry* never applies an update twice.  Each
  envelope carries its origin's *floor* (lowest msg id still pending
  there), so a receiver remembers only the ids its sender may still
  resend — O(in flight) per origin, not O(history).  Per-message timers
  run on the transport's clock — the simulated
  :class:`~repro.network.events.EventLoop` or the live asyncio clock, so
  the same reliability code runs on either backend.

Everything here is deterministic for a fixed seed: timer ordering comes
from the event loop's sequence numbers and jitter from hashed-seed RNG
streams, never from global randomness.
"""

from __future__ import annotations

import itertools
import logging
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, NamedTuple, Optional, Set

from repro.network.transport import Clock, TimerHandle, Transport
from repro.obs import get_registry, get_tracer

logger = logging.getLogger("repro.network.reliability")

#: Wire size of an acknowledgement frame (message id + MAC).
ACK_BYTES = 64

GiveUpHandler = Callable[[int, Any, str], None]
AckHandler = Callable[[int, Any], None]


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------
#: Total send attempts (first try included).
MAX_ATTEMPTS = 4
#: Backoff before the first retry.
BASE_DELAY_S = 0.5
#: Backoff growth factor per retry.
BACKOFF_MULTIPLIER = 2.0
#: Fractional jitter: each delay is scaled by ``1 ± JITTER_FRACTION``.
JITTER_FRACTION = 0.25
#: How long to wait for an ack before declaring the attempt lost.
ATTEMPT_TIMEOUT_S = 3.0


def backoff_s(attempt: int, seed: object, key: object) -> float:
    """Delay before retry number ``attempt`` (1-based) of message ``key``.

    A pure function: the same (seed, key, attempt) always yields the same
    delay, so retry schedules replay exactly under a fixed scenario seed —
    jitter draws its own :class:`random.Random` stream and never touches
    shared RNGs.
    """
    delay = BASE_DELAY_S * BACKOFF_MULTIPLIER ** max(0, attempt - 1)
    if JITTER_FRACTION:
        u = random.Random(f"{seed}/{key}/{attempt}").random()
        delay *= 1.0 + JITTER_FRACTION * (2.0 * u - 1.0)
    return delay


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


#: Consecutive failures that open a destination's circuit.
FAILURE_THRESHOLD = 3
#: How long an open circuit waits before it lets one probe through.
RESET_TIMEOUT_S = 30.0


class CircuitBreaker:
    """Per-destination circuit breaker (closed → open → half-open).

    :data:`FAILURE_THRESHOLD` consecutive failures open the circuit; after
    :data:`RESET_TIMEOUT_S` a single probe send is allowed (half-open).  A
    success closes the circuit again, another failure re-opens it.
    State transitions are counted for the reliability metrics.
    """

    def __init__(self) -> None:
        self._state: Dict[int, str] = {}
        self._failures: Dict[int, int] = {}
        self._opened_at: Dict[int, float] = {}
        #: "closed->open" / "open->half-open" / "half-open->closed" /
        #: "half-open->open" counters.
        self.transitions: Dict[str, int] = {}

    @property
    def failure_threshold(self) -> int:
        """:data:`FAILURE_THRESHOLD`, for callers that force a circuit open."""
        return FAILURE_THRESHOLD

    def _transition(self, dest: int, new_state: str) -> None:
        old = self._state.get(dest, CLOSED)
        if old == new_state:
            return
        self._state[dest] = new_state
        key = f"{old}->{new_state}"
        self.transitions[key] = self.transitions.get(key, 0) + 1
        get_registry().counter(f"reliability.circuit.{key}").inc()
        if new_state == OPEN:
            logger.debug("circuit to %s opened (%s)", dest, key)
            tracer = get_tracer()
            if tracer.enabled:
                tracer.emit("circuit_open", dest=dest)

    def state_of(self, dest: int, now: Optional[float] = None) -> str:
        state = self._state.get(dest, CLOSED)
        if (
            state == OPEN
            and now is not None
            and now - self._opened_at.get(dest, 0.0) >= RESET_TIMEOUT_S
        ):
            self._transition(dest, HALF_OPEN)
            return HALF_OPEN
        return state

    def allow(self, dest: int, now: float) -> bool:
        """Whether a send to ``dest`` may be attempted right now."""
        return self.state_of(dest, now) != OPEN

    def record_success(self, dest: int, now: float) -> None:
        self._failures[dest] = 0
        self._transition(dest, CLOSED)

    def record_failure(self, dest: int, now: float) -> None:
        state = self.state_of(dest, now)
        if state == HALF_OPEN:
            # The probe failed: straight back to open.
            self._opened_at[dest] = now
            self._transition(dest, OPEN)
            return
        count = self._failures.get(dest, 0) + 1
        self._failures[dest] = count
        if state == CLOSED and count >= FAILURE_THRESHOLD:
            self._opened_at[dest] = now
            self._transition(dest, OPEN)


# ---------------------------------------------------------------------------
# failure detector
# ---------------------------------------------------------------------------
#: Missed acks (or failed probes) in a row that declare a peer dead.
SUSPICION_THRESHOLD = 3


class FailureDetector:
    """Suspicion-based failure detection.

    Every missed ack (or failed probe) raises a peer's suspicion level by
    one; any observed delivery from the peer resets it.  Crossing
    :data:`SUSPICION_THRESHOLD` declares the peer dead and fires ``on_dead``
    once; a later observed delivery revives it (and fires ``on_alive``).

    The detector is intentionally simple — an integer suspicion level per
    peer — because the simulation's epochs/timers already quantize time;
    what matters for the protocol is the *decision* ("this mirror is
    gone, replace it now"), which this emits deterministically.
    """

    def __init__(
        self,
        on_dead: Optional[Callable[[int], None]] = None,
        on_alive: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.on_dead = on_dead
        self.on_alive = on_alive
        self._suspicion: Dict[int, int] = {}
        self._dead: Set[int] = set()
        self.deaths_declared = 0
        self.revivals = 0

    def suspicion_of(self, peer: int) -> int:
        return self._suspicion.get(peer, 0)

    def is_dead(self, peer: int) -> bool:
        return peer in self._dead

    def dead_peers(self) -> Set[int]:
        return set(self._dead)

    def record_failure(self, peer: int) -> bool:
        """Raise suspicion; returns True when ``peer`` is *newly* dead."""
        level = self._suspicion.get(peer, 0) + 1
        self._suspicion[peer] = level
        if level >= SUSPICION_THRESHOLD and peer not in self._dead:
            self._dead.add(peer)
            self.deaths_declared += 1
            self._note_death(peer, "suspicion-threshold")
            if self.on_dead is not None:
                self.on_dead(peer)
            return True
        return False

    @staticmethod
    def _note_death(peer: int, reason: str) -> None:
        get_registry().counter("reliability.deaths_declared").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit("failure_declared", peer=peer, reason=reason)

    def record_success(self, peer: int) -> None:
        """An observed delivery: clear suspicion, revive if declared dead."""
        self._suspicion[peer] = 0
        if peer in self._dead:
            self._dead.discard(peer)
            self.revivals += 1
            get_registry().counter("reliability.revivals").inc()
            if self.on_alive is not None:
                self.on_alive(peer)

    def declare_dead(self, peer: int) -> bool:
        """Force-declare a peer dead (e.g. on direct evidence such as a
        storage probe answering without the replica)."""
        self._suspicion[peer] = max(self._suspicion.get(peer, 0), SUSPICION_THRESHOLD)
        if peer in self._dead:
            return False
        self._dead.add(peer)
        self.deaths_declared += 1
        self._note_death(peer, "direct-evidence")
        if self.on_dead is not None:
            self.on_dead(peer)
        return True


# ---------------------------------------------------------------------------
# acknowledged sends
# ---------------------------------------------------------------------------
class Envelope(NamedTuple):
    """A reliably-sent payload: (origin, msg_id) identifies it for dedup.

    A tuple, like :class:`~repro.core.experience.ExperienceReport`: every
    reliable frame builds one to send and one on receipt, and the hot
    paths build it with ``tuple.__new__`` (see :data:`_new`).
    """

    msg_id: int
    origin: int
    attempt: int
    payload: Any
    #: The origin's lowest still-pending msg id when this copy left: every
    #: id below it is settled (acked or given up) and is never resent.
    floor: int = 0


class Ack(NamedTuple):
    """Acknowledgement of one envelope."""

    msg_id: int


#: Builds an ``Envelope`` or ``Ack`` from a tuple of all its fields without
#: the generated ``__new__``'s Python frame: ``_new(Ack, (msg_id,))``.
_new = tuple.__new__


@dataclass
class ReliabilityStats:
    """Counters one endpoint (or an aggregate of endpoints) accumulates."""

    sent: int = 0
    acked: int = 0
    retries: int = 0
    timeouts: int = 0
    give_ups: int = 0
    circuit_blocked: int = 0
    duplicates_dropped: int = 0
    network_failures: int = 0

    def merge(self, other: "ReliabilityStats") -> "ReliabilityStats":
        for name in (
            "sent", "acked", "retries", "timeouts", "give_ups",
            "circuit_blocked", "duplicates_dropped", "network_failures",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self


class _OriginLedger:
    """What a receiver remembers about one origin to deliver at most once.

    ``floor`` is the highest floor the origin has announced: ids below it
    are settled there and can arrive again only as stale copies.  ``ids``
    holds the delivered ids; it drops those below the floor whenever it
    has doubled since its last prune, so it stays within twice the
    origin's in-flight window (and at least :attr:`MIN_PRUNE_AT`).
    """

    __slots__ = ("floor", "ids", "prune_at")

    MIN_PRUNE_AT = 16

    def __init__(self) -> None:
        self.floor = 0
        self.ids: Set[int] = set()
        self.prune_at = self.MIN_PRUNE_AT

    def admit(self, msg_id: int, floor: int) -> bool:
        """Record ``msg_id``; False if it was delivered or is below the floor."""
        if floor > self.floor:
            self.floor = floor
        if msg_id < self.floor or msg_id in self.ids:
            return False
        self.ids.add(msg_id)
        if len(self.ids) >= self.prune_at:
            self.ids = {i for i in self.ids if i >= self.floor}
            self.prune_at = max(self.MIN_PRUNE_AT, 2 * len(self.ids))
        return True


@dataclass
class _PendingSend:
    """In-flight reliable send (one per msg_id until acked or given up)."""

    msg_id: int
    dest: int
    payload: Any
    size_bytes: int
    attempt: int = 0
    on_ack: Optional[AckHandler] = None
    on_giveup: Optional[GiveUpHandler] = None
    #: The one timer this send has outstanding: the ack timeout of the
    #: current attempt, or the backoff before the next.  Cancelled the
    #: moment the send is settled or moves on, so nothing it closes over
    #: (this object, the payload) waits out the delay in the timer heap.
    timer: Optional[TimerHandle] = None

    def cancel_timer(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None


class ReliableEndpoint:
    """Acknowledged, deduplicated delivery for one node.

    Wraps the node's plain network handler: register
    :meth:`handle_message` as the node's :class:`SimNetwork` handler and
    :meth:`handle_network_failure` as its failure handler, then send
    through :meth:`send_reliable`.  Plain (unwrapped) messages pass
    through untouched, so reliable and fire-and-forget traffic coexist on
    one handler.
    """

    def __init__(
        self,
        node_id: int,
        network: Transport,
        inner_handler: Callable[[int, Any], None],
        detector: Optional[FailureDetector] = None,
        seed: object = 0,
    ) -> None:
        self.node_id = node_id
        self.network = network
        self.loop: Clock = network.loop
        self.inner_handler = inner_handler
        self.breaker = CircuitBreaker()
        self.detector = detector or FailureDetector()
        self.seed = seed
        self.stats = ReliabilityStats()
        self._counter = itertools.count()
        #: In-flight sends by msg id.  Ids ascend and are inserted in
        #: order, so the first key is the lowest pending id (the floor).
        self._pending: Dict[int, _PendingSend] = {}
        #: Per origin: what was delivered to the inner handler, bounded by
        #: what that origin may still resend.
        self._delivered: Dict[int, _OriginLedger] = {}

    # --- sending ----------------------------------------------------------
    def pending_count(self) -> int:
        return len(self._pending)

    def send_reliable(
        self,
        dest: int,
        payload: Any,
        size_bytes: int,
        on_ack: Optional[AckHandler] = None,
        on_giveup: Optional[GiveUpHandler] = None,
    ) -> Optional[int]:
        """Send with acks/retries; returns the msg id, or None if the
        destination's circuit is open (the send is not attempted)."""
        if not self.breaker.allow(dest, self.loop.now):
            self.stats.circuit_blocked += 1
            if on_giveup is not None:
                on_giveup(dest, payload, "circuit-open")
            return None
        msg_id = next(self._counter)
        state = _PendingSend(
            msg_id=msg_id,
            dest=dest,
            payload=payload,
            size_bytes=size_bytes,
            on_ack=on_ack,
            on_giveup=on_giveup,
        )
        self._pending[msg_id] = state
        self._attempt(state)
        return msg_id

    def _attempt(self, state: _PendingSend) -> None:
        envelope = _new(Envelope, (
            state.msg_id, self.node_id, state.attempt, state.payload,
            next(iter(self._pending)),
        ))
        self.stats.sent += 1
        self.network.send(self.node_id, state.dest, envelope, state.size_bytes)
        # Measured *after* the send, the uplink backlog covers this frame's
        # own wire time plus everything queued ahead of it; add the path
        # estimate for the receiver leg and the returning ack.
        timeout = (
            ATTEMPT_TIMEOUT_S
            + self.network.uplink_backlog_s(self.node_id)
            + self._transfer_estimate(state.dest, state.size_bytes)
        )
        state.timer = self.loop.schedule(timeout, lambda: self._ack_timed_out(state))

    def _transfer_estimate(self, dest: int, size_bytes: int) -> float:
        """Expected wire time, so large transfers get proportionally longer
        ack timeouts (a 2 MB replica push is not 'lost' after 3 s)."""
        try:
            return self.network.transfer_time(self.node_id, dest, size_bytes)
        except KeyError:
            return 0.0

    def _ack_timed_out(self, state: _PendingSend) -> None:
        self.stats.timeouts += 1
        self._attempt_failed(state, "ack-timeout")

    def _attempt_failed(self, state: _PendingSend, reason: str) -> None:
        state.cancel_timer()  # a network failure beat the ack timeout
        now = self.loop.now
        self.breaker.record_failure(state.dest, now)
        self.detector.record_failure(state.dest)
        retries_left = state.attempt + 1 < MAX_ATTEMPTS
        if not retries_left or not self.breaker.allow(state.dest, now):
            self._pending.pop(state.msg_id, None)
            self.stats.give_ups += 1
            get_registry().counter("reliability.giveups").inc()
            logger.debug(
                "giving up on msg %s to %s after %s attempts (%s)",
                state.msg_id, state.dest, state.attempt + 1, reason,
            )
            if state.on_giveup is not None:
                state.on_giveup(state.dest, state.payload, reason)
            return
        state.attempt += 1
        self.stats.retries += 1
        get_registry().counter("reliability.retries").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(
                "retry", kind="send", dest=state.dest,
                attempt=state.attempt + 1, reason=reason,
                msg_id=state.msg_id, t=now,
            )
        delay = backoff_s(state.attempt, self.seed, state.msg_id)
        state.timer = self.loop.schedule(delay, lambda: self._attempt(state))

    # --- receiving --------------------------------------------------------
    def handle_message(self, sender: int, message: Any) -> None:
        """Network handler: unwrap envelopes, ack, dedup, deliver."""
        if isinstance(message, Ack):
            state = self._pending.pop(message.msg_id, None)
            if state is not None:
                state.cancel_timer()
                self.stats.acked += 1
                self.breaker.record_success(state.dest, self.loop.now)
                self.detector.record_success(state.dest)
                if state.on_ack is not None:
                    state.on_ack(state.dest, state.payload)
            return
        if isinstance(message, Envelope):
            # Ack every copy — the origin may have missed the first ack.
            self.network.send(self.node_id, sender, _new(Ack, (message.msg_id,)), ACK_BYTES)
            ledger = self._delivered.get(message.origin)
            if ledger is None:
                ledger = self._delivered[message.origin] = _OriginLedger()
            if not ledger.admit(message.msg_id, message.floor):
                self.stats.duplicates_dropped += 1
                return
            self.detector.record_success(message.origin)
            self.inner_handler(message.origin, message.payload)
            return
        # Plain traffic: any delivery is evidence the sender is alive.
        self.detector.record_success(sender)
        self.inner_handler(sender, message)

    def handle_network_failure(self, dest: int, message: Any, reason: str) -> None:
        """SimNetwork failure handler: immediate nack for envelopes, an
        observation for everything else."""
        self.stats.network_failures += 1
        if isinstance(message, Envelope):
            state = self._pending.get(message.msg_id)
            if state is not None and state.attempt == message.attempt:
                self._attempt_failed(state, reason)
            return
        self.detector.record_failure(dest)
