"""Integration-level tests for SoupNode middleware."""

import random

import pytest

from repro.deploy.cluster import Cluster
from repro.network.events import EventLoop
from repro.network.simnet import SimNetwork
from repro.node.profile import DataItem


def settle(net, seconds=5.0):
    loop = net.network.loop
    loop.run_until(loop.now + seconds)


@pytest.fixture(scope="module")
def net():
    """A small SOUP network, six desktops and two phones, shared by the
    module: later tests build on friendships formed by earlier ones."""
    cluster = Cluster(SimNetwork(EventLoop()), random.Random(5), key_bits=256)
    cluster.overlay.set_liveness(None)  # offline nodes stay parked in the ring
    for i in range(8):
        cluster.add(f"u{i}", seed=5 + i, is_mobile=i >= 6)
    cluster.join_all()
    settle(cluster, 1)
    return cluster


def test_all_nodes_join_and_publish(net):
    for node in net.users:
        entry = net.users[0].lookup_user(node.node_id)
        assert entry is not None
        assert entry.name == node.name


def test_mobile_nodes_not_in_overlay(net):
    for node in net.users:
        if node.is_mobile:
            assert node.node_id not in net.overlay
        else:
            assert node.node_id in net.overlay


def test_mobile_node_lookup_via_gateway(net):
    mobile = next(n for n in net.users if n.is_mobile)
    entry = mobile.lookup_user(net.users[1].node_id)
    assert entry is not None
    # The relay leg shows up on the gateway's control meter.
    gateway_meter = net.network.control_meter(mobile.interface.gateway_id)
    assert gateway_meter.total_sent() > 0


def test_befriending_exchanges_attribute_keys(net):
    a, b = net.users[1], net.users[2]
    assert a.befriend(b.node_id)
    assert a.social.is_friend(b.node_id)
    assert b.social.is_friend(a.node_id)
    assert a.security.can_decrypt_from(b.node_id)
    assert b.security.can_decrypt_from(a.node_id)


def test_friend_can_decrypt_profile_replica(net):
    a, b = net.users[1], net.users[2]
    if not a.social.is_friend(b.node_id):
        a.befriend(b.node_id)
    ciphertext = a.security.encrypt_replica(b"profile bytes")
    assert b.security.decrypt_from(a.node_id, ciphertext) == b"profile bytes"


def test_selection_round_places_replicas(net):
    node = net.users[3]
    for other in net.users:
        if other is not node:
            node.contact(other.node_id)
    accepted = node.run_selection_round()
    assert accepted
    for mirror_id in accepted:
        assert net.nodes[mirror_id].mirror_manager.store.stores_for(node.node_id)
    # The directory entry announces the accepted set.
    entry = net.users[0].lookup_user(node.node_id)
    assert set(entry.mirror_ids) == set(accepted)


def test_mobile_never_selected_as_mirror(net):
    """Mobile devices disable mirroring (Sec. 7)."""
    mobile_ids = {n.node_id for n in net.users if n.is_mobile}
    node = net.users[4]
    for other in net.users:
        if other is not node:
            node.contact(other.node_id)
    for _ in range(3):
        accepted = node.run_selection_round()
    assert not set(accepted) & mobile_ids


def test_message_to_online_friend(net):
    a, b = net.users[1], net.users[3]
    count_before = len(b.applications.messages_received())
    assert a.send_message(b.node_id, "hello")
    settle(net)
    assert len(b.applications.messages_received()) == count_before + 1


def test_message_to_offline_friend_via_mirrors(net):
    a, b = net.users[2], net.users[4]
    # b needs mirrors first.
    for other in net.users:
        if other is not b:
            b.contact(other.node_id)
    b.run_selection_round()
    b.go_offline()
    assert a.send_message(b.node_id, "offline msg")
    settle(net)
    count_before = len(b.applications.messages_received())
    b.go_online()
    settle(net)
    received = b.applications.messages_received()
    assert len(received) > count_before
    assert any(
        (o.payload or {}).get("text") == "offline msg" for o in received
    )


def test_request_profile_from_mirrors_when_owner_offline(net):
    owner = net.users[5]
    requester = net.users[1]
    if not requester.social.is_friend(owner.node_id):
        requester.befriend(owner.node_id)
    for other in net.users:
        if other is not owner:
            owner.contact(other.node_id)
    owner.post_item(DataItem.text(2000))
    owner.run_selection_round()
    owner.go_offline()
    assert requester.request_profile(owner.node_id)
    owner.go_online()


def test_experience_exchange_feeds_friend(net):
    a, b = net.users[1], net.users[2]
    # a records observations about b's mirrors, then exchanges.
    for other in net.users:
        if other is not b:
            b.contact(other.node_id)
    b.run_selection_round()
    a.request_profile(b.node_id)
    sent = a.exchange_experience_sets()
    assert sent >= 1
    assert b.mirror_manager.pending_reports
    b.mirror_manager.ingest_pending_reports()
    assert b.mirror_manager.has_experience


def test_double_join_rejected(net):
    with pytest.raises(RuntimeError):
        net.users[0].join()


def test_mobile_cannot_bootstrap(net):
    mobile = next(n for n in net.users if n.is_mobile)
    with pytest.raises(ValueError):
        mobile.make_bootstrap_node()
