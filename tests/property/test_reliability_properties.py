"""Property-based tests for the reliability layer.

The central at-most-once claim: whatever the pattern of outages — ack
lost in flight, receiver dark at send time, sender crashing mid-exchange
— a reliably-sent payload is *applied* (delivered to the inner handler)
at most once.  Retries may duplicate envelopes on the wire; the dedup
layer must absorb every copy.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import reliability
from repro.network.events import EventLoop
from repro.network.reliability import Envelope, ReliableEndpoint, backoff_s
from repro.network.simnet import SimNetwork
from repro.network.transport import LinkSpec

LINK = LinkSpec(latency_s=0.1, upstream_bytes_per_s=1e9, downstream_bytes_per_s=1e9)

#: An outage blip: (node, start offset s, duration s).
blips_strategy = st.lists(
    st.tuples(
        st.sampled_from([1, 2]),
        st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False),
        st.floats(0.05, 5.0, allow_nan=False, allow_infinity=False),
    ),
    max_size=6,
)


@given(
    seed=st.integers(0, 1000),
    n_messages=st.integers(1, 5),
    blips=blips_strategy,
)
@settings(max_examples=40, deadline=None)
def test_reliable_delivery_never_applies_twice(seed, n_messages, blips):
    loop = EventLoop()
    net = SimNetwork(loop)
    applied = []
    sender = ReliableEndpoint(1, net, inner_handler=lambda s, m: None, seed=seed)
    receiver = ReliableEndpoint(
        2, net, inner_handler=lambda s, m: applied.append(m), seed=seed + 1
    )
    for node_id, endpoint in ((1, sender), (2, receiver)):
        net.register(
            node_id,
            endpoint.handle_message,
            link=LINK,
            on_failure=endpoint.handle_network_failure,
        )
    # Outage schedule: nodes wink out and return at arbitrary times, so
    # envelopes and acks are lost at every stage of the exchange.
    for node, start, duration in blips:
        loop.schedule(start, lambda n=node: net.set_online(n, False))
        loop.schedule(start + duration, lambda n=node: net.set_online(n, True))
    acked = []
    for index in range(n_messages):
        loop.schedule(
            index * 0.5,
            lambda i=index: sender.send_reliable(
                2, f"update-{i}", 200, on_ack=lambda d, p: acked.append(p)
            ),
        )
    loop.run_until(300.0)

    # At-most-once application, regardless of wire-level duplication.
    assert len(applied) == len(set(applied))
    assert set(applied) <= {f"update-{i}" for i in range(n_messages)}
    # An acked payload was applied exactly once (acks never lie).
    assert set(acked) <= set(applied)
    # Every send resolved: acked or given up, nothing leaks.
    assert sender.pending_count() == 0


@given(
    seed=st.integers(0, 10_000),
    key=st.integers(0, 100),
    max_attempts=st.integers(2, 6),
    jitter=st.floats(0.0, 0.5, exclude_max=True),
)
@settings(max_examples=60, deadline=None)
def test_retry_schedule_pure_and_bounded(seed, key, max_attempts, jitter):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reliability, "JITTER_FRACTION", jitter)
        first = [backoff_s(attempt, seed, key) for attempt in range(1, max_attempts)]
        assert first == [backoff_s(attempt, seed, key) for attempt in range(1, max_attempts)]
    for attempt, delay in enumerate(first, start=1):
        nominal = reliability.BASE_DELAY_S * reliability.BACKOFF_MULTIPLIER ** (attempt - 1)
        assert nominal * (1 - jitter) <= delay <= nominal * (1 + jitter)


class ChaoticNetwork(SimNetwork):
    """Duplicates envelopes and holds each copy back by a random delay, so
    copies of one send arrive out of order with copies of later sends and
    some arrive long after their origin settled them (acked or gave up)."""

    def __init__(self, loop, seed, max_copies, max_delay_s):
        super().__init__(loop)
        self.rng = random.Random(f"chaos/{seed}")
        self.max_copies = max_copies
        self.max_delay_s = max_delay_s

    def send(self, sender, receiver, message, size_bytes):
        if not isinstance(message, Envelope):
            super().send(sender, receiver, message, size_bytes)
            return
        for _ in range(self.rng.randint(1, self.max_copies)):
            delay = self.rng.uniform(0.0, self.max_delay_s)
            self.loop.schedule(
                delay,
                lambda: SimNetwork.send(self, sender, receiver, message, size_bytes),
            )


@given(
    seed=st.integers(0, 1000),
    n_messages=st.integers(1, 30),
    max_copies=st.integers(1, 4),
    max_delay_s=st.floats(0.0, 30.0, allow_nan=False, allow_infinity=False),
    max_attempts=st.integers(1, 4),
    blips=st.lists(
        st.tuples(
            st.sampled_from([1, 2, 3]),
            st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False),
            st.floats(0.05, 5.0, allow_nan=False, allow_infinity=False),
        ),
        max_size=6,
    ),
)
@settings(max_examples=60, deadline=None)
def test_at_most_once_under_duplicated_reordered_delayed_envelopes(
    seed, n_messages, max_copies, max_delay_s, max_attempts, blips
):
    """Two origins send to node 2 (node 1 also to node 3, so its floor is
    pinned by sends the receiver never sees) through a network that
    duplicates, reorders and delays envelopes; retries and give-ups
    happen.  Every payload is applied at most once, every ack is backed
    by an application, and every send resolves."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reliability, "MAX_ATTEMPTS", max_attempts)
        _at_most_once(seed, n_messages, max_copies, max_delay_s, blips)


def _at_most_once(seed, n_messages, max_copies, max_delay_s, blips):
    loop = EventLoop()
    net = ChaoticNetwork(loop, seed, max_copies, max_delay_s)
    applied = {2: [], 3: []}
    endpoints = {
        node: ReliableEndpoint(
            node, net, seed=seed + node,
            inner_handler=lambda s, m, node=node: applied.get(node, []).append(m),
        )
        for node in (1, 2, 3)
    }
    for node, endpoint in endpoints.items():
        net.register(
            node, endpoint.handle_message, link=LINK,
            on_failure=endpoint.handle_network_failure,
        )
    for node, start, duration in blips:
        loop.schedule(start, lambda n=node: net.set_online(n, False))
        loop.schedule(start + duration, lambda n=node: net.set_online(n, True))
    acked = {2: [], 3: []}
    sent = {2: set(), 3: set()}
    for index in range(n_messages):
        for origin, dest in ((1, 2), (3, 2), (1, 3)):
            payload = f"{origin}->{dest}:{index}"
            sent[dest].add(payload)
            loop.schedule(
                index * 0.3,
                lambda o=origin, d=dest, p=payload: endpoints[o].send_reliable(
                    d, p, 200, on_ack=lambda dd, pp: acked[dd].append(pp)
                ),
            )
    loop.run_until(400.0)

    for dest in (2, 3):
        assert len(applied[dest]) == len(set(applied[dest]))
        assert set(applied[dest]) <= sent[dest]
        assert set(acked[dest]) <= set(applied[dest])
    for endpoint in endpoints.values():
        assert endpoint.pending_count() == 0
