"""Property test for pooled networking.

The pooled-event :class:`repro.network.simnet.SimNetwork` delivers each
message at most once and never cross-wires recycled event payloads,
under arbitrary outage schedules.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.events import EventLoop
from repro.network.simnet import SimNetwork
from repro.network.transport import LinkSpec

# --- pooled SimNetwork: at-most-once, no payload cross-wiring -------------

LINK = LinkSpec(latency_s=0.05, upstream_bytes_per_s=1e9, downstream_bytes_per_s=1e9)

#: (sender, receiver, delay before send s) triples over a 3-node network.
sends_strategy = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(0, 2),
        st.floats(0.0, 5.0, allow_nan=False),
    ),
    min_size=1,
    max_size=30,
)

#: Outage blips: (node, start s, duration s).
blips_strategy = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.floats(0.0, 5.0, allow_nan=False),
        st.floats(0.01, 2.0, allow_nan=False),
    ),
    max_size=8,
)


@given(sends=sends_strategy, blips=blips_strategy)
@settings(max_examples=100, deadline=None)
def test_pooled_events_deliver_at_most_once_with_intact_payloads(sends, blips):
    loop = EventLoop()
    net = SimNetwork(loop)
    delivered = []
    failed = []

    def make_handler(node_id):
        return lambda sender, message: delivered.append((node_id, message))

    for node_id in range(3):
        net.register(
            node_id,
            make_handler(node_id),
            link=LINK,
            on_failure=lambda receiver, message, reason: failed.append(
                (receiver, message, reason)
            ),
        )

    for node_id, start, duration in blips:
        loop.schedule(start, lambda n=node_id: net.set_online(n, False))
        loop.schedule(start + duration, lambda n=node_id: net.set_online(n, True))

    sent = []
    for seq, (sender, receiver, delay) in enumerate(sends):
        if receiver == sender:
            receiver = (receiver + 1) % 3
        token = ("msg", seq, sender, receiver)
        sent.append(token)

        def do_send(s=sender, r=receiver, t=token):
            net.send(s, r, t, size_bytes=256)

        loop.schedule(delay, do_send)

    loop.run_until(100.0)

    # Every send is accounted for exactly once: delivered or failed.
    assert net.messages_delivered + net.messages_failed == len(sent)
    assert len(delivered) == net.messages_delivered
    # At-most-once, and pooled-event recycling never swaps payloads:
    # each token arrives intact, at its intended receiver, at most once.
    seen = set()
    for receiver_id, message in delivered:
        assert message in sent
        assert message not in seen
        seen.add(message)
        assert message[3] == receiver_id
    for _receiver_id, message, _reason in failed:
        assert message in sent
        assert message not in seen
