"""The live wire hands every handler exactly what the sender sent.

Two ``Cluster``\\ s run on a :class:`LiveTransport` that records every
message at :meth:`~LiveTransport.send` (a deep copy, taken before the frame
is encoded) and again where the transport hands it to a node's handler.
Per (sender, receiver) pair the handled messages must be the sent ones, in
send order, with only the frames the transport counted as failed missing.
A SOUP object must also keep the exact bytes its signature covers — an
``int`` timestamp stays an ``int`` — and the signature must still verify.

* 16 nodes with full RSA at 512 bits (the ``live_*`` benchmark's cluster)
  befriend, select mirrors, post, message, read, exchange experience sets,
  repair around a mirror that went dark and, when it returns, collect
  what its mirrors held for it;
* 8 nodes with 256-bit RSA keys and a :class:`LiveObservability`
  attached, so every frame also carries a trace context, which must
  arrive unchanged too.
"""

import asyncio
import copy
import random

from repro.core.objects import ObjectType, SoupObject
from repro.crypto import rsa
from repro.deploy.cluster import Cluster
from repro.deploy.live.transport import AsyncClock, LiveTransport
from repro.network.reliability import Envelope
from repro.node.profile import DataItem
from repro.obs.flight import LiveObservability


class RecordingTransport(LiveTransport):
    """Remembers what each pair sent and what each handler was given."""

    def __init__(self, clock: AsyncClock) -> None:
        super().__init__(clock)
        self.sent = {}
        self.handled = {}

    def register(self, node_id, handler, **options):
        def recording(sender, message):
            self.handled.setdefault((sender, node_id), []).append(message)
            handler(sender, message)

        super().register(node_id, recording, **options)

    def send(self, sender, receiver, message, size_bytes):
        self.sent.setdefault((sender, receiver), []).append(copy.deepcopy(message))
        super().send(sender, receiver, message, size_bytes)


class RecordingObservability(LiveObservability):
    """Remembers every trace context minted at send and seen at receive."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.minted = []
        self.received = []

    def on_send(self, sender, receiver, kind, size):
        ctx = super().on_send(sender, receiver, kind, size)
        self.minted.append(ctx)
        return ctx

    def on_receive(self, receiver, sender, ctx, kind):
        self.received.append(ctx)
        super().on_receive(receiver, sender, ctx, kind)


def same_message(sent, got) -> bool:
    """Equal, of the same types, and — for a SOUP object — over the same
    signed bytes."""
    if type(sent) is not type(got):
        return False
    if isinstance(sent, Envelope):
        return (sent.msg_id, sent.origin, sent.attempt, sent.floor) == (
            got.msg_id, got.origin, got.attempt, got.floor
        ) and same_message(sent.payload, got.payload)
    if isinstance(sent, SoupObject):
        return (
            sent == got
            and type(sent.timestamp) is type(got.timestamp)
            and sent.signing_bytes() == got.signing_bytes()
        )
    return sent == got


def soup_objects(message):
    if isinstance(message, Envelope):
        message = message.payload
    if isinstance(message, SoupObject):
        yield message


def check_wire(net: RecordingTransport, cluster: Cluster, failed_before: int) -> dict:
    """Match every handled message to its sent original; returns counts."""
    handled_total = 0
    for pair, got in net.handled.items():
        sent = iter(net.sent.get(pair, []))
        for message in got:
            # Frames the transport failed are skipped; order is kept.
            assert any(same_message(candidate, message) for candidate in sent), (
                pair, message,
            )
        handled_total += len(got)
    sent_total = sum(len(messages) for messages in net.sent.values())
    assert handled_total == net.messages_delivered
    assert sent_total == handled_total + net.messages_failed - failed_before

    kinds = {}
    verified = 0
    for got in net.handled.values():
        for message in got:
            kinds[type(message).__name__] = kinds.get(type(message).__name__, 0) + 1
            for obj in soup_objects(message):
                if obj.signature is None:
                    continue
                signer = cluster.nodes[obj.source]
                assert rsa.verify(obj.signing_bytes(), obj.signature, signer.keys.public)
                verified += 1
    return {"kinds": kinds, "verified": verified, "handled": handled_total}


async def settle(net: LiveTransport, cluster: Cluster, deadline_s: float = 30.0) -> None:
    """Wait until no frame is queued and no reliable send awaits its ack."""
    loop = asyncio.get_running_loop()
    started = loop.time()
    while True:
        await net.drain(0.0)
        if not any(node.reliability.pending_count() for node in cluster.users):
            await net.drain(0.02)
            return
        assert loop.time() - started < deadline_s, "cluster did not settle"


def post(node, net) -> None:
    node.post_item(DataItem.text(size_bytes=1_500, created_at=net.loop.now))


async def boot(net, cluster, n_nodes, extra_friends):
    for index in range(n_nodes):
        cluster.add(f"user{index:02d}")
    await net.start()
    cluster.join_all()
    cluster.befriend_ring(extra=extra_friends)
    for node in cluster.users:
        node.run_selection_round()
    for node in cluster.users:
        post(node, net)
    for node in cluster.users:
        node.run_selection_round()
    await settle(net, cluster)


def test_full_crypto_cluster_messages_cross_the_wire_unchanged():
    async def scenario():
        net = RecordingTransport(AsyncClock())
        cluster = Cluster(net, random.Random(26), key_bits=512)
        await boot(net, cluster, 16, extra_friends=1)
        users, order = cluster.users, cluster.order
        failed_before = net.messages_failed

        for index, node in enumerate(users):
            node.send_message(order[(index + 5) % 16], f"hello {index} ✓")
            node.request_profile(order[(index + 1) % 16])
            post(node, net)
        await settle(net, cluster)
        for node in users:
            node.exchange_experience_sets()
        await settle(net, cluster)

        # Repair: one mirror goes dark and every owner it served declares
        # it dead, reselects and pushes replicas to the replacements.
        victim_id = users[0].mirror_manager.announced_mirrors[0]
        cluster.nodes[victim_id].go_offline()
        owners = [
            node for node in users
            if victim_id in node.mirror_manager.announced_mirrors
        ]
        for node in owners:
            node.reliability.detector.declare_dead(victim_id)
        # A message to the dark node is stored at its mirrors instead.
        users[1 if users[1].node_id != victim_id else 2].send_message(victim_id, "later")
        for node in users:
            if node.online:
                post(node, net)
        await settle(net, cluster)
        # Back online, it asks its mirrors for what they held for it.
        cluster.nodes[victim_id].go_online()
        await settle(net, cluster)
        await net.close()
        return net, cluster, failed_before, owners, victim_id

    net, cluster, failed_before, owners, victim_id = asyncio.run(scenario())
    counts = check_wire(net, cluster, failed_before)
    assert owners and all(
        victim_id not in node.mirror_manager.announced_mirrors for node in owners
    )
    assert counts["kinds"].keys() == {"Ack", "Envelope", "SoupObject"}
    assert counts["verified"] > 100
    carried = {
        obj.object_type
        for got in net.handled.values()
        for message in got
        for obj in soup_objects(message)
    }
    assert {
        ObjectType.FRIEND_REQUEST, ObjectType.FRIEND_CONFIRM, ObjectType.UPDATE,
        ObjectType.REPLICA_PUSH, ObjectType.MESSAGE, ObjectType.PROFILE_RESPONSE,
        ObjectType.ES_EXCHANGE, ObjectType.UPDATE_COLLECT,
    } <= carried


def test_small_key_cluster_with_trace_contexts_crosses_the_wire_unchanged(tmp_path):
    async def scenario():
        net = RecordingTransport(AsyncClock())
        cluster = Cluster(net, random.Random(7), key_bits=256)
        for index in range(8):
            cluster.add(f"user{index:02d}")
        obs = RecordingObservability(str(tmp_path), cluster.order)
        net.observer = obs
        await net.start()
        cluster.join_all()
        cluster.befriend_ring(extra=1)
        for node in cluster.users:
            node.run_selection_round()
            post(node, net)
        for index, node in enumerate(cluster.users):
            node.send_message(cluster.order[(index + 3) % 8], "traced")
            node.request_profile(cluster.order[(index + 1) % 8])
        await settle(net, cluster)
        await net.close()
        obs.close()
        return net, cluster, obs

    net, cluster, obs = asyncio.run(scenario())
    counts = check_wire(net, cluster, 0)
    assert counts["verified"] > 0 and counts["kinds"].get("Ack", 0) > 0
    # Every delivered frame brought its context along, unchanged.
    assert len(obs.received) == counts["handled"]
    minted = set(obs.minted)
    assert all(ctx in minted for ctx in obs.received)
    assert all(
        type(msg_id) is str and type(lamport) is int and type(t_send) is float
        for msg_id, lamport, t_send in obs.received
    )
