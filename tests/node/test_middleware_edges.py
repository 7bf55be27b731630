"""Edge-case tests for middleware paths not covered elsewhere."""

import io
import json
import random

import pytest

from repro.core.config import SoupConfig
from repro.deploy.cluster import Cluster
from repro.network.events import EventLoop
from repro.network.simnet import SimNetwork
from repro.node.profile import DataItem
from repro.node.sync import PendingUpdate
from repro.obs import tracing, use_registry


@pytest.fixture()
def world(cluster):
    def make(name, seed, **kwargs):
        return cluster.add(name, seed=seed, **kwargs)

    boot = make("boot", 1)
    users = [make(f"u{i}", 10 + i) for i in range(8)]
    cluster.join_all()
    for a in cluster.users:
        for b in cluster.users:
            if a is not b:
                a.contact(b.node_id)
    return cluster.network.loop, cluster.network, cluster.nodes, boot, users, make


def test_offline_node_selection_round_is_noop(world):
    loop, network, nodes, boot, users, make = world
    node = users[0]
    node.run_selection_round()
    before = list(node.mirror_manager.announced_mirrors)
    node.go_offline()
    assert node.run_selection_round() == before


def test_go_online_is_idempotent(world):
    loop, network, nodes, boot, users, make = world
    node = users[1]
    node.go_online()  # already online: no-op
    assert node.online
    node.go_offline()
    node.go_offline()  # double offline: no-op
    assert not node.online


def test_withdrawn_mirror_loses_replica_and_log(world):
    loop, network, nodes, boot, users, make = world
    owner = users[2]
    accepted = owner.run_selection_round()
    owner.post_item(DataItem.text(1000, created_at=loop.now))
    mirror = nodes[accepted[0]]
    assert mirror.mirror_manager.store.stores_for(owner.node_id)
    assert mirror.mirror_manager.update_log_for(owner.node_id) is not None
    mirror.mirror_manager.handle_withdraw(owner.node_id)
    assert not mirror.mirror_manager.store.stores_for(owner.node_id)
    assert mirror.mirror_manager.update_log_for(owner.node_id) is None


def test_befriend_offline_target_fails(world):
    loop, network, nodes, boot, users, make = world
    a, b = users[3], users[4]
    b.go_offline()
    assert not a.befriend(b.node_id)
    assert not a.social.is_friend(b.node_id)
    b.go_online()


def test_republishing_bumps_entry_version(world):
    loop, network, nodes, boot, users, make = world
    node = users[5]
    node.publish_entry()
    first = boot.lookup_user(node.node_id).version
    node.publish_entry()
    assert boot.lookup_user(node.node_id).version == first + 1


def test_exchange_without_observations_sends_nothing(world):
    loop, network, nodes, boot, users, make = world
    a, b = users[6], users[7]
    a.befriend(b.node_id)
    assert a.exchange_experience_sets() == 0  # nothing observed yet


def test_profile_request_observes_only_for_friends(world):
    loop, network, nodes, boot, users, make = world
    owner = users[0]
    stranger = users[6]
    owner.run_selection_round()
    owner.go_offline()
    stranger.request_profile(owner.node_id)
    es = stranger.mirror_manager.experience_sets.get(owner.node_id)
    assert es is None or len(es) == 0  # strangers record no experience
    owner.go_online()


def test_sync_unknown_device_rejected(world):
    loop, network, nodes, boot, users, make = world
    with pytest.raises(LookupError):
        users[0].sync_device("ghost-device")


def test_blacklisting_in_an_exchange_evicts_the_owner_at_the_mirror():
    """A dropping score driven past θ by experience exchanges drops the
    owner's update log at the mirror, and counts and traces the eviction."""
    cluster = Cluster(
        SimNetwork(EventLoop()), random.Random(3), config=SoupConfig(theta=2.0),
        key_bits=256,
    )
    cluster.overlay.set_liveness(None)
    mirror, friend, owner = (cluster.add(f"u{i}", seed=30 + i) for i in range(3))
    cluster.join_all()
    mirror.befriend(friend.node_id)
    for holder in (mirror, friend):
        assert holder.mirror_manager.handle_store_request(
            owner.node_id, is_friend=False
        ).accepted
    mirror.mirror_manager.record_owner_update(
        owner.node_id, PendingUpdate(owner.node_id, owner.node_id, 0.0, 1, None)
    )
    buf = io.StringIO()
    with use_registry() as registry, tracing(buf):
        mirror.exchange_experience_sets()  # the owner also stores at the friend: +1
        assert mirror.mirror_manager.update_log_for(owner.node_id) is not None
        mirror.exchange_experience_sets()  # +1 reaches θ
    store = mirror.mirror_manager.store
    assert store.is_blacklisted(owner.node_id)
    assert not store.stores_for(owner.node_id)
    assert mirror.mirror_manager.update_log_for(owner.node_id) is None
    assert registry.counter("node.replicas.evicted").value == 1
    drops = [
        json.loads(line) for line in buf.getvalue().splitlines()
        if '"replica_dropped"' in line
    ]
    assert [(d["owner"], d["mirror"], d["reason"]) for d in drops] == [
        (owner.node_id, mirror.node_id, "blacklisted")
    ]
