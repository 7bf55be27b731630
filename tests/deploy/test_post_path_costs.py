"""What one post costs on the live wire, counted without a clock.

An owner's update goes to each of its mirrors in an envelope of its own.
Inside ``post_item`` the transport's fan-out scope encodes the update's
SOUP section once and every envelope reuses those bytes; the scope is
closed by the time ``post_item`` returns, so a retransmission encodes the
object afresh.  Every mirror must still receive the update unchanged.
"""

import asyncio
import random

from repro.core.objects import ObjectType, SoupObject
from repro.deploy.cluster import Cluster
from repro.deploy.live import transport_codec
from repro.deploy.live.transport import AsyncClock, LiveTransport
from repro.network import reliability
from repro.network.reliability import Envelope
from repro.node.profile import DataItem


class RecordingTransport(LiveTransport):
    """Remembers what each node's handler was given."""

    def __init__(self, clock: AsyncClock) -> None:
        super().__init__(clock)
        self.handled = {}

    def register(self, node_id, handler, **options):
        def recording(sender, message):
            self.handled.setdefault(node_id, []).append((sender, message))
            handler(sender, message)

        super().register(node_id, recording, **options)


async def settle(net: LiveTransport, cluster: Cluster) -> None:
    loop = asyncio.get_running_loop()
    started = loop.time()
    while any(node.reliability.pending_count() for node in cluster.users):
        await net.drain(0.01)
        assert loop.time() - started < 30.0, "cluster did not settle"
    await net.drain(0.02)


def updates_encoded(calls, owner_id):
    return [
        obj for obj in calls
        if obj.object_type is ObjectType.UPDATE and obj.source == owner_id
    ]


def test_a_post_encodes_its_update_once_and_a_retry_encodes_it_again(monkeypatch):
    calls = []
    encode = transport_codec._encode_soup

    def counting(*args):
        calls.extend(arg for arg in args if isinstance(arg, SoupObject))
        return encode(*args)

    monkeypatch.setattr(transport_codec, "_encode_soup", counting)

    async def scenario():
        net = RecordingTransport(AsyncClock())
        cluster = Cluster(net, random.Random(37), key_bits=256)
        for index in range(10):
            cluster.add(f"user{index:02d}")
        await net.start()
        cluster.join_all()
        cluster.befriend_ring(extra=2)
        for node in cluster.users:
            node.run_selection_round()
        await settle(net, cluster)

        owner = max(
            cluster.users, key=lambda node: len(node.mirror_manager.announced_mirrors)
        )
        mirrors = list(owner.mirror_manager.announced_mirrors)
        # Short timeouts and no backoff, so the forced retry comes at once.
        monkeypatch.setattr(reliability, "BASE_DELAY_S", 0.0)
        monkeypatch.setattr(reliability, "JITTER_FRACTION", 0.0)
        monkeypatch.setattr(reliability, "ATTEMPT_TIMEOUT_S", 0.05)
        net.handled.clear()
        calls.clear()

        owner.post_item(DataItem.text(size_bytes=1_500, created_at=net.loop.now))
        scope_after_post = getattr(net, "_fan_out", None)
        encoded_in_post = list(updates_encoded(calls, owner.node_id))
        pushes = [
            state.payload for state in owner.reliability._pending.values()
            if isinstance(state.payload, SoupObject)
        ]
        # The last mirror holds its frame unread, so its ack does not come
        # and the owner retransmits after the scope has closed.
        net.pause(mirrors[-1])
        loop = asyncio.get_running_loop()
        paused_at = loop.time()
        while not owner.reliability.stats.retries:
            await asyncio.sleep(0.01)
            assert loop.time() - paused_at < 10.0, "no retransmission"
        net.resume(mirrors[-1])
        await settle(net, cluster)
        await net.close()
        return (
            net, owner, mirrors, scope_after_post, encoded_in_post, pushes,
            updates_encoded(calls, owner.node_id),
        )

    net, owner, mirrors, scope_after_post, encoded_in_post, pushes, encoded = (
        asyncio.run(scenario())
    )
    assert len(mirrors) >= 3
    assert len(pushes) == len(mirrors)
    update = pushes[0]
    assert all(push is update for push in pushes)
    # One encoding for the whole fan-out, and the scope closed with it.
    assert encoded_in_post == [update]
    assert scope_after_post is None
    # The forced retransmission encoded the same object again.
    assert owner.reliability.stats.timeouts >= 1
    assert len(encoded) == 1 + owner.reliability.stats.retries
    assert all(obj is update for obj in encoded)
    # Every mirror received the update, equal over its signed bytes.
    for mirror_id in mirrors:
        received = [
            message.payload
            for sender, message in net.handled.get(mirror_id, [])
            if sender == owner.node_id and isinstance(message, Envelope)
        ]
        assert received, mirror_id
        for got in received:
            assert got == update
            assert got.signing_bytes() == update.signing_bytes()
    copies = [
        message for sender, message in net.handled[mirrors[-1]]
        if sender == owner.node_id and isinstance(message, Envelope)
    ]
    assert [envelope.attempt for envelope in copies][:2] == [0, 1]
