"""A selection round pushes one whole encrypted profile to each new mirror."""

import io
import json

import pytest

from repro.core.objects import ObjectType
from repro.node.profile import DataItem
from repro.obs import tracing, use_registry


@pytest.fixture()
def world(cluster):
    peers = [cluster.add(f"p{i}", seed=10 + i) for i in range(9)]
    owner = cluster.add("owner", seed=99)
    cluster.join_all()
    for other in peers:
        owner.contact(other.node_id)
    return cluster.network.loop, owner


def _pushes_of(owner, monkeypatch):
    """Record every replica push the owner hands to its interface."""
    pushes = []
    send = owner.interface.send_bytes_reliable

    def recording_send(dest, obj, size_bytes, **callbacks):
        if obj.object_type is ObjectType.REPLICA_PUSH:
            pushes.append((dest, size_bytes))
        return send(dest, obj, size_bytes, **callbacks)

    monkeypatch.setattr(owner.interface, "send_bytes_reliable", recording_send)
    return pushes


def _round(owner, loop):
    buf = io.StringIO()
    with use_registry() as registry, tracing(buf):
        accepted = owner.run_selection_round()
        loop.run_until(loop.now + 60)
    traced = [
        (event["mirror"], event["bytes"])
        for event in map(json.loads, buf.getvalue().splitlines())
        if event["event"] == "replica_pushed"
    ]
    return accepted, registry.counter("node.replicas.pushed").value, traced


@pytest.mark.parametrize(
    "item",
    [DataItem.text(2_000, created_at=0.0), DataItem.video(9_000_000, created_at=0.0)],
    ids=["text", "9 MB video"],
)
def test_one_whole_push_per_new_mirror_and_none_to_a_holder(world, monkeypatch, item):
    loop, owner = world
    owner.post_item(item)
    size = owner.replica_size_bytes()
    assert size > item.size_bytes
    pushes = _pushes_of(owner, monkeypatch)

    first, counted, traced = _round(owner, loop)
    assert first
    expected = [(mirror, size) for mirror in first]
    assert pushes == traced == expected
    assert counted == len(first)

    pushes.clear()
    second, counted, traced = _round(owner, loop)
    assert set(second) & set(first)  # mirrors that already hold the replica
    fresh = [mirror for mirror in second if mirror not in first]
    expected = [(mirror, size) for mirror in fresh]
    assert pushes == traced == expected
    assert counted == len(fresh)
