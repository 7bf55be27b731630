"""Tests for the reliability layer: retry backoff, circuit breaker,
failure detector, and acknowledged sends over the simulated network.

A test that needs another retry, breaker or detector value patches the
module constant (see :func:`patch`)."""

import gc
import weakref

import pytest

from repro.network import reliability
from repro.network.events import EventLoop
from repro.network.reliability import (
    ACK_BYTES,
    CLOSED,
    HALF_OPEN,
    OPEN,
    Ack,
    CircuitBreaker,
    Envelope,
    FailureDetector,
    ReliabilityStats,
    ReliableEndpoint,
    _OriginLedger,
    backoff_s,
)
from repro.network.simnet import SimNetwork
from repro.network.transport import LinkSpec

FAST_LINK = LinkSpec(
    latency_s=0.1, upstream_bytes_per_s=1e9, downstream_bytes_per_s=1e9
)


def patch(monkeypatch, **constants):
    """Set reliability module constants for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(reliability, name, value)


def retry_delays(seed, key):
    """The backoff before every retry of one message."""
    return [backoff_s(attempt, seed, key) for attempt in range(1, reliability.MAX_ATTEMPTS)]


class TestRetryPolicy:
    def test_schedule_deterministic_for_seed_and_key(self):
        assert retry_delays(seed=7, key=42) == retry_delays(seed=7, key=42)

    def test_schedule_varies_with_seed_and_key(self):
        base = retry_delays(seed=7, key=42)
        assert base != retry_delays(seed=8, key=42)
        assert base != retry_delays(seed=7, key=43)

    def test_backoff_grows_within_jitter_bounds(self, monkeypatch):
        patch(monkeypatch, BASE_DELAY_S=1.0, BACKOFF_MULTIPLIER=2.0,
              JITTER_FRACTION=0.25, MAX_ATTEMPTS=5)
        for attempt in range(1, 5):
            nominal = 1.0 * 2.0 ** (attempt - 1)
            delay = backoff_s(attempt, seed=0, key="k")
            assert nominal * 0.75 <= delay <= nominal * 1.25

    def test_zero_jitter_is_exact_exponential(self, monkeypatch):
        patch(monkeypatch, BASE_DELAY_S=0.5, BACKOFF_MULTIPLIER=2.0, JITTER_FRACTION=0.0)
        assert retry_delays(seed=0, key=0) == [0.5, 1.0, 2.0]


class TestCircuitBreaker:
    def test_stays_closed_below_threshold(self, monkeypatch):
        patch(monkeypatch, FAILURE_THRESHOLD=3)
        breaker = CircuitBreaker()
        breaker.record_failure(1, now=0.0)
        breaker.record_failure(1, now=1.0)
        assert breaker.state_of(1) == CLOSED
        assert breaker.allow(1, now=2.0)

    def test_opens_at_threshold_and_blocks(self, monkeypatch):
        patch(monkeypatch, FAILURE_THRESHOLD=3, RESET_TIMEOUT_S=30.0)
        breaker = CircuitBreaker()
        for t in range(3):
            breaker.record_failure(1, now=float(t))
        assert breaker.state_of(1) == OPEN
        assert not breaker.allow(1, now=5.0)
        assert breaker.transitions == {"closed->open": 1}

    def test_half_open_after_reset_timeout(self, monkeypatch):
        patch(monkeypatch, FAILURE_THRESHOLD=1, RESET_TIMEOUT_S=10.0)
        breaker = CircuitBreaker()
        breaker.record_failure(1, now=0.0)
        assert not breaker.allow(1, now=9.9)
        assert breaker.allow(1, now=10.0)
        assert breaker.state_of(1) == HALF_OPEN
        assert breaker.transitions["open->half-open"] == 1

    def test_probe_success_closes(self, monkeypatch):
        patch(monkeypatch, FAILURE_THRESHOLD=1, RESET_TIMEOUT_S=10.0)
        breaker = CircuitBreaker()
        breaker.record_failure(1, now=0.0)
        breaker.state_of(1, now=10.0)  # -> half-open
        breaker.record_success(1, now=10.5)
        assert breaker.state_of(1) == CLOSED
        assert breaker.transitions["half-open->closed"] == 1

    def test_probe_failure_reopens(self, monkeypatch):
        patch(monkeypatch, FAILURE_THRESHOLD=1, RESET_TIMEOUT_S=10.0)
        breaker = CircuitBreaker()
        breaker.record_failure(1, now=0.0)
        breaker.state_of(1, now=10.0)  # -> half-open
        breaker.record_failure(1, now=10.5)
        assert breaker.state_of(1, now=10.6) == OPEN
        assert breaker.transitions["half-open->open"] == 1
        # The reopened window restarts from the probe failure.
        assert breaker.state_of(1, now=20.6) == HALF_OPEN

    def test_success_resets_failure_count(self, monkeypatch):
        patch(monkeypatch, FAILURE_THRESHOLD=2)
        breaker = CircuitBreaker()
        breaker.record_failure(1, now=0.0)
        breaker.record_success(1, now=1.0)
        breaker.record_failure(1, now=2.0)
        assert breaker.state_of(1) == CLOSED

    def test_destinations_independent(self, monkeypatch):
        patch(monkeypatch, FAILURE_THRESHOLD=1)
        breaker = CircuitBreaker()
        breaker.record_failure(1, now=0.0)
        assert breaker.state_of(1) == OPEN
        assert breaker.state_of(2) == CLOSED

    def test_half_open_reprobe_cycles_until_success(self, monkeypatch):
        # open -> half-open -> probe fails -> open -> half-open -> probe
        # succeeds -> closed: every transition is counted exactly once per
        # cycle and each reopened window restarts from the failed probe.
        patch(monkeypatch, FAILURE_THRESHOLD=1, RESET_TIMEOUT_S=10.0)
        breaker = CircuitBreaker()
        breaker.record_failure(1, now=0.0)
        assert breaker.state_of(1, now=10.0) == HALF_OPEN
        breaker.record_failure(1, now=10.5)  # probe #1 fails
        assert not breaker.allow(1, now=15.0)
        assert breaker.state_of(1, now=20.5) == HALF_OPEN
        breaker.record_success(1, now=21.0)  # probe #2 succeeds
        assert breaker.state_of(1) == CLOSED
        assert breaker.transitions == {
            "closed->open": 1,
            "open->half-open": 2,
            "half-open->open": 1,
            "half-open->closed": 1,
        }

    def test_closed_after_probe_requires_full_threshold_again(self, monkeypatch):
        # A recovery via the half-open probe must not leave stale failure
        # counts: re-opening takes ``FAILURE_THRESHOLD`` fresh failures.
        patch(monkeypatch, FAILURE_THRESHOLD=3, RESET_TIMEOUT_S=10.0)
        breaker = CircuitBreaker()
        for t in range(3):
            breaker.record_failure(1, now=float(t))
        breaker.state_of(1, now=20.0)  # -> half-open
        breaker.record_success(1, now=20.5)  # -> closed
        breaker.record_failure(1, now=21.0)
        breaker.record_failure(1, now=22.0)
        assert breaker.state_of(1) == CLOSED
        breaker.record_failure(1, now=23.0)
        assert breaker.state_of(1) == OPEN

    def test_clock_skew_backwards_keeps_circuit_open(self, monkeypatch):
        # A ``now`` earlier than the opening timestamp (clock skew, replayed
        # timers) must never count as "timeout elapsed".
        patch(monkeypatch, FAILURE_THRESHOLD=1, RESET_TIMEOUT_S=10.0)
        breaker = CircuitBreaker()
        breaker.record_failure(1, now=100.0)
        assert breaker.state_of(1, now=95.0) == OPEN
        assert not breaker.allow(1, now=0.0)
        # Forward again past the window: the probe unlocks as usual.
        assert breaker.allow(1, now=110.0)
        assert breaker.state_of(1) == HALF_OPEN

    def test_state_of_without_now_never_transitions(self, monkeypatch):
        # Read-only inspection (no ``now``) must not promote open circuits.
        patch(monkeypatch, FAILURE_THRESHOLD=1, RESET_TIMEOUT_S=10.0)
        breaker = CircuitBreaker()
        breaker.record_failure(1, now=0.0)
        for _ in range(3):
            assert breaker.state_of(1) == OPEN
        assert "open->half-open" not in breaker.transitions


class TestFailureDetector:
    def test_declares_dead_at_threshold_once(self, monkeypatch):
        patch(monkeypatch, SUSPICION_THRESHOLD=3)
        deaths = []
        detector = FailureDetector(on_dead=deaths.append)
        assert not detector.record_failure(9)
        assert not detector.record_failure(9)
        assert detector.record_failure(9)  # newly dead
        assert not detector.record_failure(9)  # already dead
        assert deaths == [9]
        assert detector.is_dead(9)
        assert detector.deaths_declared == 1

    def test_success_resets_suspicion(self, monkeypatch):
        patch(monkeypatch, SUSPICION_THRESHOLD=2)
        detector = FailureDetector()
        detector.record_failure(9)
        detector.record_success(9)
        detector.record_failure(9)
        assert not detector.is_dead(9)

    def test_revival_fires_on_alive(self, monkeypatch):
        patch(monkeypatch, SUSPICION_THRESHOLD=1)
        alive = []
        detector = FailureDetector(on_alive=alive.append)
        detector.record_failure(9)
        assert detector.is_dead(9)
        detector.record_success(9)
        assert not detector.is_dead(9)
        assert alive == [9]
        assert detector.revivals == 1

    def test_declare_dead_is_immediate_and_idempotent(self, monkeypatch):
        patch(monkeypatch, SUSPICION_THRESHOLD=5)
        deaths = []
        detector = FailureDetector(on_dead=deaths.append)
        assert detector.declare_dead(9)
        assert not detector.declare_dead(9)
        assert deaths == [9]
        assert detector.dead_peers() == {9}

    def test_success_after_declared_dead_revives_and_resets(self, monkeypatch):
        # A delivery observed from a force-declared-dead peer (e.g. the
        # "dead" mirror answers a later probe) revives it AND zeroes its
        # suspicion — a single stale failure afterwards must not re-kill it.
        patch(monkeypatch, SUSPICION_THRESHOLD=3)
        deaths, alive = [], []
        detector = FailureDetector(on_dead=deaths.append, on_alive=alive.append)
        detector.declare_dead(9)
        assert detector.suspicion_of(9) == 3
        detector.record_success(9)
        assert not detector.is_dead(9)
        assert detector.suspicion_of(9) == 0
        assert alive == [9] and detector.revivals == 1
        # Full threshold is required again before a second declaration.
        assert not detector.record_failure(9)
        assert not detector.record_failure(9)
        assert detector.record_failure(9)
        assert deaths == [9, 9] and detector.deaths_declared == 2

    def test_failures_after_death_keep_raising_suspicion_silently(self, monkeypatch):
        patch(monkeypatch, SUSPICION_THRESHOLD=2)
        deaths = []
        detector = FailureDetector(on_dead=deaths.append)
        detector.record_failure(9)
        detector.record_failure(9)
        assert detector.is_dead(9)
        # Extra failures on an already-dead peer: no duplicate callbacks,
        # suspicion still tracked (it is evidence, not a decision).
        assert not detector.record_failure(9)
        assert not detector.record_failure(9)
        assert detector.suspicion_of(9) == 4
        assert deaths == [9] and detector.deaths_declared == 1

    def test_success_on_unknown_peer_is_a_noop(self, monkeypatch):
        patch(monkeypatch, SUSPICION_THRESHOLD=2)
        alive = []
        detector = FailureDetector(on_alive=alive.append)
        detector.record_success(42)
        assert not alive and detector.revivals == 0
        assert detector.suspicion_of(42) == 0

    def test_declare_dead_never_lowers_suspicion(self, monkeypatch):
        patch(monkeypatch, SUSPICION_THRESHOLD=2)
        detector = FailureDetector()
        for _ in range(5):
            detector.record_failure(9)
        detector.declare_dead(9)  # already dead via threshold
        assert detector.suspicion_of(9) == 5  # max(), not overwrite


class TestReliabilityStats:
    def test_merge_sums_counters(self):
        a = ReliabilityStats(sent=2, acked=1, retries=1)
        b = ReliabilityStats(sent=3, give_ups=1)
        a.merge(b)
        assert a.sent == 5 and a.acked == 1 and a.retries == 1 and a.give_ups == 1


# ---------------------------------------------------------------------------
# acknowledged sends over the simulated network
# ---------------------------------------------------------------------------
class Harness:
    """Two reliable endpoints on one simulated network."""

    def __init__(self, seed=0):
        self.loop = EventLoop()
        self.net = SimNetwork(self.loop)
        self.inbox_a = []
        self.inbox_b = []
        self.a = ReliableEndpoint(
            1,
            self.net,
            inner_handler=lambda s, m: self.inbox_a.append((self.loop.now, s, m)),
            seed=seed,
        )
        self.b = ReliableEndpoint(
            2,
            self.net,
            inner_handler=lambda s, m: self.inbox_b.append((self.loop.now, s, m)),
            seed=seed + 1,
        )
        for node_id, endpoint in ((1, self.a), (2, self.b)):
            self.net.register(
                node_id,
                endpoint.handle_message,
                link=FAST_LINK,
                on_failure=endpoint.handle_network_failure,
            )

    def run(self, seconds):
        self.loop.run_until(self.loop.now + seconds)


def test_ack_round_trip():
    h = Harness()
    acked = []
    h.a.send_reliable(2, "hello", 100, on_ack=lambda d, p: acked.append((d, p)))
    h.run(5.0)
    assert [(s, m) for _, s, m in h.inbox_b] == [(1, "hello")]
    assert acked == [(2, "hello")]
    assert h.a.stats.acked == 1
    assert h.a.pending_count() == 0


def test_retry_after_transient_outage_eventually_delivers():
    h = Harness()
    h.net.set_online(2, False)
    h.loop.schedule(1.0, lambda: h.net.set_online(2, True))
    h.a.send_reliable(2, "persist", 100)
    h.run(30.0)
    assert [m for _, _, m in h.inbox_b] == ["persist"]
    assert h.a.stats.retries >= 1
    assert h.a.stats.acked == 1
    assert h.a.pending_count() == 0


def test_ack_loss_retries_but_never_applies_twice():
    """The envelope arrives, the ack is lost in flight, the retry is
    deduplicated and re-acked — the inner handler sees the payload once."""
    h = Harness()
    # Envelope arrives at ~0.2 (two 0.1 s latency legs); the ack lands at
    # ~0.4.  Take the sender offline across that window so the ack is
    # lost in flight.
    h.loop.schedule(0.3, lambda: h.net.set_online(1, False))
    h.loop.schedule(0.5, lambda: h.net.set_online(1, True))
    h.a.send_reliable(2, "once", 100)
    h.run(60.0)
    assert [m for _, _, m in h.inbox_b] == ["once"]
    assert h.a.stats.retries >= 1
    assert h.b.stats.duplicates_dropped >= 1
    assert h.a.stats.acked == 1
    assert h.a.pending_count() == 0


@pytest.mark.parametrize("k", [10, 200])
def test_acked_sends_leave_no_timer_in_the_loop(k):
    """The ack cancels the ack-timeout timer, so however many sends have
    been acked, nothing of them waits in the event queue."""
    h = Harness()
    for i in range(k):
        h.loop.schedule(i * 0.005, lambda i=i: h.a.send_reliable(2, i, 100))
    h.run(2.0)  # every ack is in (~0.4 s each), no 3 s ack timeout is due
    assert h.a.stats.acked == k
    assert h.a.stats.timeouts == 0
    assert h.loop.pending() == 0
    h.run(60.0)
    assert h.a.stats.timeouts == 0 and h.a.stats.retries == 0


def test_ack_releases_the_payload_without_waiting_for_the_timeout():
    class Payload:
        pass

    h = Harness()
    h.b.inner_handler = lambda sender, message: None  # keep no reference
    payload = Payload()
    released = weakref.ref(payload)
    gc.disable()  # the timer's closure must not pin it until a collection
    try:
        h.a.send_reliable(2, payload, 100)
        del payload
        h.run(1.0)
        assert h.a.stats.acked == 1
        assert released() is None
    finally:
        gc.enable()


def test_cancelled_ack_timer_does_not_fire_into_a_later_send():
    """Send 1 is acked long before its 3 s timeout.  Send 2 is lost in
    flight just before that moment; it must run out its own timeout, not
    inherit the cancelled one."""
    h = Harness()
    h.a.send_reliable(2, "first", 100)
    h.run(2.9)
    assert h.a.stats.acked == 1
    h.net.set_drop(1.0)
    h.a.send_reliable(2, "second", 100)
    h.net.set_drop(0.0)
    h.run(0.2)  # t = 3.1: where send 1's timer would have fired
    assert h.a.stats.timeouts == 0
    assert h.a.pending_count() == 1
    h.run(3.4)  # t = 6.5: send 2's own timeout (2.9 + 3 s + path estimate)
    assert h.a.stats.timeouts == 1
    h.run(10.0)
    assert [m for _, _, m in h.inbox_b] == ["first", "second"]
    assert h.a.pending_count() == 0 and h.loop.pending() == 0


def test_network_failure_cancels_the_ack_timer_of_that_attempt(monkeypatch):
    """An attempt that fails fast (receiver unreachable) moves on to its
    backoff; the ack timer it leaves behind must not count a timeout
    against the retry."""
    patch(monkeypatch, BASE_DELAY_S=2.5, JITTER_FRACTION=0.0)
    h = Harness()
    h.net.set_online(2, False)
    h.loop.schedule(1.0, lambda: h.net.set_online(2, True))
    h.a.send_reliable(2, "x", 100)
    h.run(0.8)  # the failure (0.7 s) is in: backing off until 3.2 s
    assert h.a.stats.retries == 1 and h.loop.pending() == 2  # backoff + set_online
    h.run(10.0)
    assert h.a.stats.acked == 1
    assert h.a.stats.timeouts == 0 and h.a.stats.retries == 1
    assert h.loop.pending() == 0


def test_duplicate_envelope_dropped_and_reacked():
    h = Harness()
    envelope = Envelope(msg_id=0, origin=1, attempt=0, payload="dup")
    h.b.handle_message(1, envelope)
    h.b.handle_message(1, envelope)
    assert [m for _, _, m in h.inbox_b] == ["dup"]
    assert h.b.stats.duplicates_dropped == 1
    # Both copies were acked (the origin may have missed the first ack).
    h.run(5.0)
    assert h.net.meters[2].total_sent() == 2 * ACK_BYTES


def test_envelope_carries_the_origins_lowest_pending_id():
    h = Harness()
    floors = []
    inner = h.net.send

    def spy(sender, receiver, message, size_bytes):
        if isinstance(message, Envelope):
            floors.append((message.msg_id, message.floor))
        inner(sender, receiver, message, size_bytes)

    h.net.send = spy
    h.net.set_online(2, False)  # msg 0 keeps failing and stays pending
    h.a.send_reliable(2, "stuck", 100)
    h.run(0.1)
    h.net.set_online(2, True)
    h.a.send_reliable(2, "next", 100)
    h.run(60.0)
    assert floors[:2] == [(0, 0), (1, 0)]  # msg 0 still pending: floor 0
    h.a.send_reliable(2, "later", 100)
    h.run(5.0)
    assert floors[-1] == (2, 2)  # both settled: the floor is the new id


def test_ledger_prune_keeps_every_id_the_origin_may_still_resend():
    ledger = _OriginLedger()
    # Msg 0 stays pending at the origin, so every envelope says floor 0:
    # however often the set doubles, no delivered id may be forgotten.
    assert all(ledger.admit(i, 0) for i in range(1, 100))
    assert not any(ledger.admit(i, 0) for i in range(1, 100))
    assert ledger.admit(0, 0) and not ledger.admit(0, 0)
    # Now each envelope's floor is its own id (everything older settled):
    # the next prunes forget the settled ids, stale copies stay dropped.
    assert all(ledger.admit(i, i) for i in range(100, 300))
    assert len(ledger.ids) <= 2 * _OriginLedger.MIN_PRUNE_AT
    assert not any(ledger.admit(i, 0) for i in range(300))


def test_receiver_state_stays_bounded_over_10k_acked_sends():
    """At-most-once needs only what the origin may still resend: after
    10,000 acked sends the receiver remembers a few dozen ids, not 10,000."""
    h = Harness()
    h.b.inner_handler = lambda sender, message: None
    n = 10_000
    for i in range(n):
        h.loop.schedule(i * 0.01, lambda i=i: h.a.send_reliable(2, i, 100))
    h.run(n * 0.01 + 5.0)
    assert h.a.stats.acked == n and h.b.stats.duplicates_dropped == 0
    assert list(h.b._delivered) == [1]
    ledger = h.b._delivered[1]
    # ~40 sends are in flight at a time (one every 10 ms, ~0.4 s round trip).
    assert len(ledger.ids) <= 128
    assert ledger.floor >= n - 64


def test_late_copy_of_a_given_up_send_is_dropped_not_applied(monkeypatch):
    """A copy that arrives after its origin gave up on the send is below
    the floor a later envelope announced: acked, counted as a duplicate,
    never handed to the inner handler."""
    patch(monkeypatch, MAX_ATTEMPTS=2, JITTER_FRACTION=0.0)
    h = Harness()
    h.net.set_extra_delay(100.0)  # both attempts arrive at t ≈ 100 s
    given_up = []
    h.a.send_reliable(2, "doomed", 100, on_giveup=lambda d, p, r: given_up.append(p))
    h.run(20.0)
    assert given_up == ["doomed"] and h.a.pending_count() == 0
    h.net.set_extra_delay(0.0)
    h.a.send_reliable(2, "second", 100)  # carries floor 1
    h.run(120.0)
    assert [m for _, _, m in h.inbox_b] == ["second"]
    assert h.b.stats.duplicates_dropped == 2
    assert h.a.stats.acked == 1  # the late copies' acks match nothing pending


def test_giveup_after_max_attempts_and_detector_declares_dead():
    h = Harness()
    h.net.set_online(2, False)
    given_up = []
    h.a.send_reliable(2, "doomed", 100, on_giveup=lambda d, p, r: given_up.append((d, p, r)))
    h.run(120.0)
    assert h.a.stats.give_ups == 1
    assert h.a.pending_count() == 0
    assert len(given_up) == 1
    dest, payload, reason = given_up[0]
    assert (dest, payload) == (2, "doomed")
    # Offline destinations fail fast via the network's failure handler.
    assert reason in ("unreachable", "ack-timeout")
    # Four failed attempts cross the default suspicion threshold of 3.
    assert h.a.detector.is_dead(2)


def test_open_circuit_blocks_sends(monkeypatch):
    # Long reset timeout so the breaker cannot drift to half-open here.
    patch(monkeypatch, FAILURE_THRESHOLD=3, RESET_TIMEOUT_S=1000.0)
    h = Harness()
    h.net.set_online(2, False)
    h.a.send_reliable(2, "first", 100)
    h.run(120.0)  # exhausts retries, opens the breaker
    assert h.a.breaker.state_of(2, h.loop.now) == OPEN
    given_up = []
    result = h.a.send_reliable(2, "second", 100, on_giveup=lambda d, p, r: given_up.append(r))
    assert result is None
    assert given_up == ["circuit-open"]
    assert h.a.stats.circuit_blocked == 1


def test_half_open_probe_recovers_after_outage():
    h = Harness()
    h.net.set_online(2, False)
    h.a.send_reliable(2, "first", 100)
    h.run(10.0)  # offline sends fail fast; retries exhaust within seconds
    # state_of without a clock never transitions lazily to half-open.
    assert h.a.breaker.state_of(2) == OPEN
    h.net.set_online(2, True)
    h.run(reliability.RESET_TIMEOUT_S + 1.0)  # open -> half-open
    h.a.send_reliable(2, "probe", 100)
    h.run(10.0)
    assert "probe" in [m for _, _, m in h.inbox_b]
    assert h.a.breaker.state_of(2) == CLOSED
    assert h.a.breaker.transitions["half-open->closed"] == 1


def test_plain_traffic_passes_through_and_marks_alive():
    h = Harness()
    h.a.detector.declare_dead(2)
    h.net.send(2, 1, "plain", 50)
    h.run(5.0)
    assert [(s, m) for _, s, m in h.inbox_a] == [(2, "plain")]
    assert not h.a.detector.is_dead(2)


def test_stray_ack_ignored():
    h = Harness()
    h.a.handle_message(2, Ack(msg_id=999))
    assert h.a.stats.acked == 0


def test_retry_timeline_is_deterministic_for_fixed_seed():
    """Same seed, same scenario: the full failure/retry timeline replays
    exactly (event times included)."""

    def timeline(seed):
        h = Harness(seed=seed)
        h.net.set_online(2, False)
        events = []
        h.a.send_reliable(2, "x", 100, on_giveup=lambda d, p, r: events.append(("giveup", h.loop.now)))
        h.loop.schedule(1.0, lambda: h.net.set_online(2, True))
        h.loop.schedule(1.2, lambda: h.net.set_online(2, False))
        h.run(120.0)
        events.extend(("sent", t) for t, _, _ in h.inbox_b)
        return events, h.a.stats.retries, h.a.stats.timeouts

    assert timeline(7) == timeline(7)
    assert retry_delays(7, 0) != retry_delays(8, 0)
