"""Wiring tests: the reliability layer inside the middleware stack.

The unit behaviour of retries/breakers/detectors lives in
``tests/network/test_reliability.py``; here we assert the *hookup* — a
failure-detector verdict immediately repairs the mirror set, revivals
re-admit the peer, and failed directory publishes back off.
"""

import pytest

from repro.dht.pastry import PastryOverlay
from repro.dht.storage import DirectoryEntry
from repro.network.events import EventLoop
from repro.network.simnet import SimNetwork
from repro.node.interface_manager import InterfaceManager


@pytest.fixture()
def harness(cluster):
    for i in range(8):
        cluster.add(f"u{i}", seed=11 + i)
    cluster.join_all()
    settle(cluster, 1)
    return cluster


def settle(harness, seconds=30.0):
    loop = harness.network.loop
    loop.run_until(loop.now + seconds)


def mirrored_node(harness):
    node = harness.users[3]
    for other in harness.users:
        if other is not node:
            node.contact(other.node_id)
    accepted = node.run_selection_round()
    settle(harness)
    assert accepted
    return node, accepted


def test_replica_pushes_are_acknowledged(harness):
    node, accepted = mirrored_node(harness)
    assert node.reliability.stats.acked >= len(accepted)
    assert node.reliability.pending_count() == 0


def test_dead_mirror_triggers_immediate_repair(harness):
    node, accepted = mirrored_node(harness)
    victim = accepted[0]
    node.reliability.detector.declare_dead(victim)
    # Repair ran synchronously off the detector verdict — no waiting for
    # the next periodic selection round.
    assert node.mirror_manager.repairs_triggered == 1
    assert victim in node.mirror_manager.dead_mirrors
    assert victim not in node.mirror_manager.announced_mirrors
    # The verdict sticks across later rounds.
    assert victim not in node.run_selection_round()


def test_revived_mirror_becomes_eligible_again(harness):
    node, accepted = mirrored_node(harness)
    victim = accepted[0]
    node.reliability.detector.declare_dead(victim)
    assert victim in node.mirror_manager.dead_mirrors
    node.reliability.detector.record_success(victim)
    assert victim not in node.mirror_manager.dead_mirrors


def test_repair_degrades_to_partial_set_when_pool_exhausted(harness):
    node, accepted = mirrored_node(harness)
    # Every known candidate is declared dead: repair cannot rebuild a
    # full set and must degrade to a (tracked) partial one, not stall.
    for other in harness.users:
        if other is not node:
            node.reliability.detector.declare_dead(other.node_id)
    assert node.mirror_manager.announced_mirrors == []
    assert node.mirror_manager.has_partial_set()
    assert node.mirror_manager.last_estimated_error is not None


# --- directory republish backoff ------------------------------------------


def overlay_with(members):
    overlay = PastryOverlay()
    members = sorted(members)
    for index, node_id in enumerate(members):
        overlay.join(node_id, bootstrap_id=members[0] if index else None)
    return overlay


def test_publish_backoff_defers_until_window_expires():
    loop = EventLoop()
    net = SimNetwork(loop)
    members = [0x1000, 0x8000, 0xF000]
    overlay = overlay_with(members)
    interface = InterfaceManager(0x1000, net, overlay)
    entry = DirectoryEntry(soup_id=0x8001, name="victim")
    home = overlay.route(0x1000, entry.soup_id).responsible
    overlay.set_liveness(lambda n: n != home)

    first = interface.publish_entry(entry)
    assert first is not None and not first.delivered
    # Inside the backoff window further attempts never touch the overlay.
    assert interface.publish_entry(entry) is None
    assert interface.publishes_deferred == 1
    unreachable_before = overlay.publishes_unreachable

    loop.run_until(6.0)  # base backoff is 5 s
    second = interface.publish_entry(entry)
    assert second is not None and not second.delivered
    assert overlay.publishes_unreachable == unreachable_before + 1

    # Consecutive failures double the window: 10 s now.
    loop.run_until(12.0)
    assert interface.publish_entry(entry) is None

    loop.run_until(17.0)
    overlay.set_liveness(None)
    final = interface.publish_entry(entry)
    assert final is not None and final.delivered
    # Success resets the backoff: the next publish goes straight out.
    assert interface.publish_entry(entry).delivered
