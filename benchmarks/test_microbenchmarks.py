"""Microbenchmarks of the hot protocol operations.

Not a paper experiment — these track the cost of the operations every node
runs continuously (Algorithm 1, Eq. (1) ingestion, DHT routing, ABE
encryption), so performance regressions in the core surface here.
Simulated-network delivery and RSA sign+verify are measured by nothing
else in the repo (``benchmarks/e2e`` runs them only inside the live
transport); the live frame codec and one post's fan-out to four mirrors
are timed here one step at a time.
"""

import asyncio
import random

import pytest

from repro.core.config import SoupConfig
from repro.core.experience import ExperienceReport, ExperienceSet
from repro.core.knowledge import KnowledgeBase
from repro.core.objects import ObjectType, SoupObject
from repro.core.ranking import RegularRanker
from repro.core.selection import select_mirrors
from repro.crypto import abe
from repro.crypto.abe import AbeAuthority
from repro.crypto.access import and_of, attr, or_of
from repro.crypto.keys import KeyPair
from repro.deploy.cluster import Cluster
from repro.deploy.live.transport import AsyncClock, LiveTransport
from repro.deploy.live.transport_codec import LENGTH, decode_frame, encode_frame
from repro.dht.pastry import PastryOverlay
from repro.network.events import EventLoop
from repro.network.reliability import ACK_BYTES, Ack, Envelope
from repro.network.simnet import SimNetwork
from repro.node.profile import DataItem
from repro.node.security_manager import SecurityManager

CONFIG = SoupConfig()

SEED = 5
SIMNET_NODES = 64
SIMNET_MESSAGES = 20_000
CRYPTO_BITS = 512
#: Enough objects for a 12-17 ms round (RSA runs its modular
#: exponentiations on OpenSSL's BN_mod_exp_mont, one Montgomery context
#: kept per key); a sub-millisecond round would be all jitter.
CRYPTO_OBJECTS = 240


def test_algorithm1_selection_speed(benchmark):
    rng = random.Random(0)
    ranking = [(i, rng.random()) for i in range(500)]
    friends = list(range(0, 100, 5))
    pool = list(range(500, 600))

    result = benchmark(
        lambda: select_mirrors(
            ranking, friends, CONFIG, random.Random(1), exploration_pool=pool
        )
    )
    assert result.mirrors


def test_eq1_ingestion_speed(benchmark):
    kb = KnowledgeBase(owner=0)
    ranker = RegularRanker(kb, CONFIG)
    rng = random.Random(0)
    reports = [
        ExperienceReport(
            reporter=rng.randrange(100),
            mirror=rng.randrange(50),
            observations=rng.randint(1, 3),
            availability=rng.random(),
        )
        for _ in range(300)
    ]
    benchmark(lambda: ranker.ingest_reports(reports))
    assert len(kb) > 0


def test_eq1_batch_ingestion_speed(benchmark):
    """What the epoch engine ingests: each friend's experience set handed
    over whole, one batch per friend (100 friends, 3 mirrors each, 1-3
    fetches per mirror — the shape of the report list above)."""
    kb = KnowledgeBase(owner=0)
    ranker = RegularRanker(kb, CONFIG)
    rng = random.Random(0)
    batches = []
    for reporter in range(100):
        es = ExperienceSet(observed_friend=0)
        for mirror in rng.sample(range(1, 50), 3):
            for _ in range(rng.randint(1, 3)):
                es.observe(mirror, rng.random() < 0.8)
        batches.append(es.hand_over(reporter))
    benchmark(lambda: ranker.ingest_reports(batches))
    assert len(kb) > 0


def test_dht_routing_speed(benchmark):
    rng = random.Random(0)
    overlay = PastryOverlay()
    ids = []
    for i in range(300):
        node_id = rng.getrandbits(64)
        overlay.join(node_id, bootstrap_id=ids[0] if ids else None)
        ids.append(node_id)

    def route_batch():
        for _ in range(50):
            overlay.route(rng.choice(ids), rng.getrandbits(64))

    benchmark(route_batch)


def test_abe_encrypt_decrypt_speed(benchmark):
    """The paper measures ~262 ms encryption at four attributes on 2014
    hardware; this tracks our simulation-grade substitute."""
    authority = AbeAuthority(master_secret=b"b" * 32)
    policy = and_of(attr("a"), or_of(attr("b"), attr("c")), attr("d"))
    key = authority.issue_key(["a", "b", "d"])
    payload = b"x" * 10_000

    def roundtrip():
        ciphertext = authority.encrypt(payload, policy)
        return abe.decrypt(ciphertext, key)

    assert benchmark(roundtrip) == payload


def test_simnet_message_rate(benchmark):
    """Raw SimNetwork delivery with pooled events."""

    def deliver_all():
        loop = EventLoop()
        net = SimNetwork(loop)
        received = [0]

        def handler(sender, message):
            received[0] += 1

        for node_id in range(SIMNET_NODES):
            net.register(node_id, handler)
        for i in range(SIMNET_MESSAGES):
            sender = i % SIMNET_NODES
            receiver = (i + 1 + i // SIMNET_NODES) % SIMNET_NODES
            if receiver == sender:
                receiver = (receiver + 1) % SIMNET_NODES
            net.send(sender, receiver, ("ping", i), size_bytes=512)
            # Drain in batches so the heap and the event pool stay hot but
            # bounded, the way the engine's epoch loop drives the network.
            if i % 1024 == 1023:
                loop.run_until(loop.now + 3600.0)
        loop.run_until(loop.now + 3600.0)
        return net.messages_delivered, received[0]

    assert benchmark(deliver_all) == (SIMNET_MESSAGES, SIMNET_MESSAGES)


def test_sign_verify_speed(benchmark):
    """RSA sign+verify of one SOUP object, the price of every update."""
    keys = KeyPair.generate(bits=CRYPTO_BITS, seed=SEED)
    manager = SecurityManager(keys)
    manager.learn_public_key(keys.soup_id, keys.public)

    def sign_and_verify():
        for i in range(CRYPTO_OBJECTS):
            obj = SoupObject(
                source=keys.soup_id,
                dest=keys.soup_id,
                object_type=ObjectType.MESSAGE,
                payload={"seq": i},
            )
            manager.sign_object(obj)
            assert manager.verify_object(obj)

    benchmark(sign_and_verify)


def _signed_update_envelope():
    keys = KeyPair.generate(bits=CRYPTO_BITS, seed=SEED)
    update = SoupObject(
        source=keys.soup_id,
        dest=keys.soup_id,
        object_type=ObjectType.UPDATE,
        payload={"action": "post_item", "item_id": 42, "kind": "text", "size": 2000},
        timestamp=12.5,
    )
    SecurityManager(keys).sign_object(update)
    return keys.soup_id, Envelope(msg_id=42, origin=keys.soup_id, attempt=0, payload=update, floor=40)


@pytest.mark.parametrize(
    "step", ["ack-encode", "ack-decode", "update-encode", "update-decode"]
)
def test_frame_codec_speed(benchmark, step):
    """One live frame: an ack (the fixed 31-byte layout) or a signed
    ``UPDATE`` in its envelope, encoded by the sender or decoded by the
    receiver."""
    sender, envelope = _signed_update_envelope()
    message, size = (Ack(9), ACK_BYTES) if step.startswith("ack") else (envelope, 4_048)
    body = memoryview(encode_frame(sender, size, message))[LENGTH.size:]
    if step.endswith("encode"):
        frame = benchmark(lambda: encode_frame(sender, size, message))
        assert frame[LENGTH.size:] == body
    else:
        got = benchmark(lambda: decode_frame(body))
        assert got[:2] == (sender, size) and type(got[2]) is type(message)


FAN_OUT_MIRRORS = 4


async def _live_owner(mirrors: int):
    """A 10-node live cluster and a node that has ``mirrors`` mirrors."""
    net = LiveTransport(AsyncClock())
    cluster = Cluster(net, random.Random(SEED), key_bits=CRYPTO_BITS)
    for index in range(10):
        cluster.add(f"user{index:02d}")
    await net.start()
    cluster.join_all()
    cluster.befriend_ring(extra=2)
    for node in cluster.users:
        node.run_selection_round()
    await net.drain(0.05)
    owners = [
        node for node in cluster.users
        if len(node.mirror_manager.announced_mirrors) == mirrors
    ]
    return net, owners[0] if owners else None


async def _acked(net: LiveTransport, owner) -> None:
    while owner.reliability.pending_count():
        await asyncio.sleep(0)


def test_post_item_fan_out_speed(benchmark):
    """One ``post_item`` on the live transport until every mirror has
    acked: sign once, encode the update once for all four envelopes, four
    frames out, four acks back."""
    loop = asyncio.new_event_loop()
    net, owner = loop.run_until_complete(_live_owner(FAN_OUT_MIRRORS))
    try:
        assert owner is not None, f"no node with {FAN_OUT_MIRRORS} mirrors"
        acked_before = owner.reliability.stats.acked

        def post_and_collect_acks():
            owner.post_item(DataItem.text(size_bytes=2_000, created_at=net.loop.now))
            loop.run_until_complete(_acked(net, owner))

        benchmark(post_and_collect_acks)
        acks = owner.reliability.stats.acked - acked_before
        assert acks > 0 and acks % FAN_OUT_MIRRORS == 0
    finally:
        loop.run_until_complete(net.close())
        loop.close()
