"""Tests for the Fig. 2 update-forwarding chain.

"As u is offline, updates for u have to be stored at u's mirrors, v and w.
Mirror v itself is also offline, so that updates for u ... have to be
further passed on to v's mirrors x and y."
"""

import pytest


def _build(cluster, n_users):
    boot = cluster.add("boot", seed=1)
    users = [cluster.add(f"u{i}", seed=10 + i) for i in range(n_users)]
    cluster.join_all()
    for a in cluster.users:
        for b in cluster.users:
            if a is not b:
                a.contact(b.node_id)
    return cluster.network.loop, cluster.network, cluster.nodes, boot, users


@pytest.fixture()
def world(cluster):
    return _build(cluster, 10)


@pytest.fixture()
def chain_world(cluster):
    """Boot + 30 users: enough nodes that the target's mirrors have
    mirrors of their own outside the target's set."""
    return _build(cluster, 30)


def texts_of(node):
    return [(o.payload or {}).get("text") for o in node.applications.messages_received()]


def test_update_forwarded_to_mirrors_mirrors(chain_world):
    loop, network, nodes, boot, users = chain_world
    target = users[0]
    sender = users[1]
    for user in [boot] + users:
        user.run_selection_round()
    loop.run_until(loop.now + 5)

    target_mirrors = list(target.mirror_manager.announced_mirrors)
    assert target_mirrors and sender.node_id not in target_mirrors

    # The target AND all of its mirrors go offline — the paper's worst
    # case — so only the mirrors' own mirrors can hold the message.
    target.go_offline()
    for mirror_id in target_mirrors:
        nodes[mirror_id].go_offline()
    assert sender.send_message(target.node_id, "deep store-and-forward")
    loop.run_until(loop.now + 5)
    holders = [
        node.node_id for node in nodes.values()
        if node.mirror_manager.update_buffer.pending_count()
    ]
    assert holders and not set(holders) & set(target_mirrors)

    # The mirrors return and collect it from their own mirrors; then the
    # target returns and collects it from them.
    for mirror_id in target_mirrors:
        nodes[mirror_id].go_online()
    loop.run_until(loop.now + 5)
    target.go_online()
    loop.run_until(loop.now + 5)
    assert texts_of(target).count("deep store-and-forward") == 1
    buffers = [node.mirror_manager.update_buffer for node in nodes.values()]
    assert not any(buffer.pending_count() for buffer in buffers)


def test_held_message_reaches_no_inbox_but_the_addressee(world):
    loop, network, nodes, boot, users = world
    target = users[4]
    for user in users:
        user.run_selection_round()
    loop.run_until(loop.now + 5)

    target.go_offline()
    assert users[5].send_message(target.node_id, "for the target only")
    loop.run_until(loop.now + 5)
    target.go_online()
    loop.run_until(loop.now + 5)
    filed = [
        node.name for node in nodes.values()
        if "for the target only" in texts_of(node)
    ]
    assert filed == [target.name]
    assert all(node.dropped_objects == 0 for node in nodes.values())


def test_duplicate_updates_deduplicated_across_mirrors(world):
    loop, network, nodes, boot, users = world
    target = users[2]
    sender = users[3]
    for user in users:
        user.run_selection_round()
    loop.run_until(loop.now + 5)

    target.go_offline()
    assert sender.send_message(target.node_id, "only once")
    loop.run_until(loop.now + 5)
    target.go_online()
    loop.run_until(loop.now + 5)
    texts = [
        (o.payload or {}).get("text")
        for o in target.applications.messages_received()
    ]
    # Delivered to several mirrors, applied exactly once.
    assert texts.count("only once") == 1
