"""Tests for erasure-coded replication in the middleware (Sec. 8)."""

import pytest

from repro.node.profile import DataItem


@pytest.fixture()
def world(cluster):
    def make(name, seed, coding_k=0, threshold=1_000_000):
        return cluster.add(
            name, seed=seed, coding_k=coding_k, coding_threshold_bytes=threshold
        )

    boot = make("boot", seed=1)
    peers = [make(f"p{i}", seed=10 + i) for i in range(9)]
    cluster.join_all()
    return cluster.network.loop, cluster.network, cluster.nodes, make, boot, peers


def _spread_knowledge(owner, peers, boot):
    for other in peers + [boot]:
        if other is not owner:
            owner.contact(other.node_id)


def test_large_profile_uses_fragments(world):
    loop, network, nodes, make, boot, peers = world
    owner = make("owner", seed=99, coding_k=3, threshold=1_000_000)
    owner.join()
    _spread_knowledge(owner, peers, boot)
    owner.post_item(DataItem.video(9_000_000, created_at=loop.now))

    sent_before = network.meters[owner.node_id].total_sent()
    accepted = owner.run_selection_round()
    loop.run_until(loop.now + 60)
    sent = network.meters[owner.node_id].total_sent() - sent_before

    plan = owner.mirror_manager.coded_plan
    assert plan is not None
    assert plan.k == 3
    assert plan.holders() == accepted
    # Fragments, not full copies: total push is ~n/k profiles, far below
    # n full replicas.
    full_cost = len(accepted) * owner.replica_size_bytes()
    assert sent < 0.6 * full_cost
    assert plan.fragment_bytes == pytest.approx(owner.replica_size_bytes() / 3, rel=0.01)


def test_small_profile_stays_fully_replicated(world):
    loop, network, nodes, make, boot, peers = world
    owner = make("owner2", seed=98, coding_k=3, threshold=1_000_000)
    owner.join()
    _spread_knowledge(owner, peers, boot)
    owner.post_item(DataItem.text(2_000, created_at=loop.now))
    owner.run_selection_round()
    assert owner.mirror_manager.coded_plan is None


def test_coding_disabled_by_default(world):
    loop, network, nodes, make, boot, peers = world
    owner = make("owner3", seed=97)  # coding_k=0
    owner.join()
    _spread_knowledge(owner, peers, boot)
    owner.post_item(DataItem.video(9_000_000, created_at=loop.now))
    owner.run_selection_round()
    assert owner.mirror_manager.coded_plan is None


def test_coded_profile_needs_k_online_holders(world):
    loop, network, nodes, make, boot, peers = world
    owner = make("owner4", seed=96, coding_k=3, threshold=1_000_000)
    owner.join()
    _spread_knowledge(owner, peers, boot)
    owner.post_item(DataItem.video(9_000_000, created_at=loop.now))
    accepted = owner.run_selection_round()
    loop.run_until(loop.now + 60)
    owner.go_offline()

    reader = peers[0]
    assert reader.request_profile(owner.node_id)

    # Knock holders offline until fewer than k remain.
    plan = owner.mirror_manager.coded_plan
    for mirror_id in plan.holders()[: len(plan.holders()) - 2]:
        nodes[mirror_id].go_offline()
    assert not reader.request_profile(owner.node_id)
