"""Hostile input to store-and-forward: ``UPDATE_COLLECT`` and held messages.

A mirror drains a queue only for the node that signed the request, sent it
itself, addressed it to this mirror and has not sent it before; it holds a
message only if that message verifies, arrives from its origin (or from
one of the receiver's own mirrors returning it) and is addressed to a node
whose directory entry names the mirror or an owner whose replica it stores.
Every other input ends in a counted, traced refusal — never in a drained
queue, an inbox entry or an exception.
"""

import io
import json
import random

import pytest
from hypothesis import given, strategies as st

from repro.core.objects import ObjectType, SoupObject
from repro.deploy.cluster import Cluster
from repro.network.events import EventLoop
from repro.network.simnet import SimNetwork
from repro.node.sync import PendingUpdate
from repro.obs import tracing, validate_event


@pytest.fixture(scope="module")
def world():
    cluster = Cluster(SimNetwork(EventLoop()), random.Random(0), key_bits=256)
    cluster.overlay.set_liveness(None)
    for index in range(30):
        cluster.add(f"u{index}", seed=40 + index)
    cluster.join_all()
    for a in cluster.users:
        for b in cluster.users:
            if a is not b:
                a.contact(b.node_id)
    for node in cluster.users:
        node.run_selection_round()
    cluster.network.loop.run_until(cluster.network.loop.now + 5)
    owner = cluster.users[0]
    mirror = cluster.nodes[owner.mirror_manager.announced_mirrors[0]]
    strangers = [
        node for node in cluster.users
        if node is not owner and node is not mirror
        and node.node_id not in mirror.mirror_manager.announced_mirrors
    ]
    # A destination this mirror may not hold for: neither its entry nor
    # any mirror it names is served here.
    unheld = [
        node for node in cluster.users
        if node is not mirror
        and mirror.node_id not in node.mirror_manager.announced_mirrors
        and not any(
            mirror.mirror_manager.store.stores_for(m)
            for m in node.mirror_manager.announced_mirrors
        )
    ]
    assert len(strangers) >= 2
    return cluster, owner, mirror, strangers, unheld


def signed(node, dest, object_type, payload=None, source=None):
    obj = SoupObject(
        source=node.node_id if source is None else source,
        dest=dest,
        object_type=object_type,
        payload=payload,
        timestamp=node.network.loop.now,
    )
    return node.security.sign_object(obj)


def hold_something(mirror, owner, origin):
    message = signed(origin, owner.node_id, ObjectType.MESSAGE, {"text": "held"})
    mirror.mirror_manager.update_buffer.add(
        PendingUpdate(
            owner.node_id, origin.node_id, message.timestamp, message.sequence,
            message, message.size_bytes(),
        )
    )


FAULTS = [
    ("collect", "forged-signer", "bad-signature"),
    ("collect", "source-not-sender", "not-sender"),
    ("collect", "replayed", "replay"),
    ("collect", "not-addressed", "not-addressed"),
    ("message", "forged-signer", "bad-signature"),
    ("message", "source-not-sender", "not-sender"),
    ("message", "unheld-dest", "not-held-here"),
]


@given(
    fault=st.sampled_from(FAULTS),
    pick=st.integers(min_value=0, max_value=1_000),
)
def test_every_hostile_input_is_a_counted_traced_refusal(world, fault, pick):
    cluster, owner, mirror, strangers, unheld = world
    kind, how, reason = fault
    mallory = strangers[pick % len(strangers)]
    sender = owner.node_id if kind == "collect" else mallory.node_id
    hold_something(mirror, owner, mallory)

    if kind == "collect":
        dest = mirror.node_id
        if how == "not-addressed":
            dest = mallory.node_id
        request = signed(owner, dest, ObjectType.UPDATE_COLLECT)
        if how == "forged-signer":
            request = signed(
                mallory, mirror.node_id, ObjectType.UPDATE_COLLECT, source=owner.node_id
            )
        elif how == "source-not-sender":
            sender = mallory.node_id
        elif how == "replayed":
            mirror._handle_network(sender, request)  # served once
            hold_something(mirror, owner, mallory)
        hostile = request
    else:
        dest = owner.node_id
        if how == "unheld-dest":
            dest = unheld[pick % len(unheld)].node_id if unheld else 2**63 + pick
        # Signed by its origin, sent by the origin or relayed by mallory,
        # who is not one of the mirror's own mirrors.
        origin = strangers[(pick + 1) % len(strangers)]
        hostile = signed(origin, dest, ObjectType.MESSAGE, {"text": "hostile"})
        if how == "forged-signer":
            hostile = signed(
                mallory, dest, ObjectType.MESSAGE, {"text": "x"}, source=origin.node_id
            )
        if how != "source-not-sender":
            sender = origin.node_id

    pending = mirror.mirror_manager.update_buffer.pending_count()
    dropped = mirror.dropped_objects
    inbox = len(mirror.applications.inbox)
    trace = io.StringIO()
    with tracing(trace, strict=True):
        mirror._handle_network(sender, hostile)

    assert mirror.dropped_objects == dropped + 1
    assert mirror.mirror_manager.update_buffer.pending_count() == pending
    assert len(mirror.applications.inbox) == inbox
    events = [json.loads(line) for line in trace.getvalue().splitlines()]
    refused = [event for event in events if event["event"] == "object_refused"]
    assert [event["reason"] for event in refused] == [reason]
    assert refused[0]["node"] == mirror.node_id and refused[0]["sender"] == sender
    assert all(validate_event(event) is None for event in events)


def test_a_valid_collect_drains_only_the_signers_queue(world):
    cluster, owner, mirror, strangers, unheld = world
    other = strangers[0]
    hold_something(mirror, owner, other)
    mirror.mirror_manager.update_buffer.add(
        PendingUpdate(other.node_id, owner.node_id, 0.0, 10**9, None, 100)
    )
    dropped = mirror.dropped_objects
    request = signed(owner, mirror.node_id, ObjectType.UPDATE_COLLECT)
    mirror._handle_network(owner.node_id, request)
    assert mirror.dropped_objects == dropped
    assert mirror.mirror_manager.update_buffer.pending_count(owner.node_id) == 0
    assert mirror.mirror_manager.update_buffer.pending_count(other.node_id) == 1
