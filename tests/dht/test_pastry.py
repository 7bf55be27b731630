"""Tests for the Pastry overlay: join, routing, leave, entry shifting."""

import random

import pytest

from repro.dht.pastry import DhtError, PastryOverlay
from repro.dht.storage import DirectoryEntry
from repro.sim.invariants import InvariantViolation, check_overlay, overlay_violations


def build_overlay(n, seed=42):
    rng = random.Random(seed)
    overlay = PastryOverlay()
    ids = []
    for i in range(n):
        node_id = rng.getrandbits(64)
        overlay.join(node_id, bootstrap_id=ids[0] if ids else None)
        ids.append(node_id)
    return overlay, ids, rng


def test_first_join_is_trivial():
    overlay = PastryOverlay()
    route = overlay.join(123)
    assert route.responsible == 123
    assert len(overlay) == 1


def test_duplicate_join_rejected():
    overlay = PastryOverlay()
    overlay.join(1)
    with pytest.raises(DhtError):
        overlay.join(1)


def test_routing_reaches_responsible_node():
    overlay, ids, rng = build_overlay(100)
    for _ in range(50):
        key = rng.getrandbits(64)
        start = rng.choice(ids)
        route = overlay.route(start, key)
        assert route.responsible == overlay._responsible_node(key)


def test_routing_hop_count_logarithmic():
    overlay, ids, rng = build_overlay(150)
    hops = []
    for _ in range(100):
        route = overlay.route(rng.choice(ids), rng.getrandbits(64))
        hops.append(route.hops)
    # Pastry routes in O(log16 N): ~2 for 150 nodes; allow generous slack.
    assert sum(hops) / len(hops) < 6


def test_publish_then_lookup_from_any_node():
    overlay, ids, rng = build_overlay(80)
    key = rng.getrandbits(64)
    entry = DirectoryEntry(soup_id=key, name="alice", mirror_ids=(1, 2))
    overlay.publish(ids[0], key, entry)
    found, route = overlay.lookup(ids[-1], key)
    assert found is not None
    assert found.name == "alice"
    assert found.mirror_ids == (1, 2)


def test_lookup_missing_key_returns_none():
    overlay, ids, rng = build_overlay(20)
    found, _ = overlay.lookup(ids[0], rng.getrandbits(64))
    assert found is None


def test_stale_version_does_not_overwrite():
    overlay, ids, rng = build_overlay(20)
    key = rng.getrandbits(64)
    overlay.publish(ids[0], key, DirectoryEntry(soup_id=key, name="v2", version=2))
    overlay.publish(ids[1], key, DirectoryEntry(soup_id=key, name="v1", version=1))
    found, _ = overlay.lookup(ids[2], key)
    assert found.name == "v2"


def test_entries_stay_at_responsible_nodes():
    overlay, ids, rng = build_overlay(60)
    for _ in range(40):
        key = rng.getrandbits(64)
        overlay.publish(rng.choice(ids), key, DirectoryEntry(soup_id=key))
    assert overlay.misplaced_entries() == []


def test_join_shifts_entries():
    overlay, ids, rng = build_overlay(30)
    keys = [rng.getrandbits(64) for _ in range(50)]
    for key in keys:
        overlay.publish(ids[0], key, DirectoryEntry(soup_id=key))
    overlay.transfer_log.clear()
    # New joins keep entries at their responsible nodes.
    for _ in range(10):
        overlay.join(rng.getrandbits(64), bootstrap_id=ids[0])
    assert overlay.misplaced_entries() == []


def test_leave_hands_over_entries():
    overlay, ids, rng = build_overlay(30)
    keys = [rng.getrandbits(64) for _ in range(60)]
    for key in keys:
        overlay.publish(ids[0], key, DirectoryEntry(soup_id=key))
    victim = overlay._responsible_node(keys[0])
    overlay.leave(victim)
    assert overlay.misplaced_entries() == []
    found, _ = overlay.lookup(ids[1] if ids[1] != victim else ids[2], keys[0])
    assert found is not None  # survived the handover


def test_fail_loses_entries_until_republished():
    overlay, ids, rng = build_overlay(30)
    key = rng.getrandbits(64)
    overlay.publish(ids[0], key, DirectoryEntry(soup_id=key, name="x"))
    holder = overlay._responsible_node(key)
    overlay.fail(holder)
    start = next(i for i in overlay.node_ids())
    found, _ = overlay.lookup(start, key)
    assert found is None  # abrupt failure: no handover
    # Republishing restores availability.
    overlay.publish(start, key, DirectoryEntry(soup_id=key, name="x2"))
    found, _ = overlay.lookup(start, key)
    assert found.name == "x2"


def test_routing_still_works_after_heavy_churn():
    overlay, ids, rng = build_overlay(100)
    alive = list(ids)
    for _ in range(40):
        victim = rng.choice(alive)
        alive.remove(victim)
        overlay.leave(victim)
    for _ in range(30):
        key = rng.getrandbits(64)
        route = overlay.route(rng.choice(alive), key)
        assert route.responsible == overlay._responsible_node(key)


def test_operations_on_unknown_node_rejected():
    overlay = PastryOverlay()
    overlay.join(1)
    with pytest.raises(DhtError):
        overlay.route(999, 5)
    with pytest.raises(DhtError):
        overlay.leave(999)


def test_stale_remembered_route_trips_the_invariant():
    overlay, ids, rng = build_overlay(40)
    key = rng.getrandbits(64)
    route = overlay.route(ids[0], key)
    wrong = next(node_id for node_id in ids if node_id != route.responsible)
    overlay._route_memo[ids[0], key, frozenset()] = (wrong, (ids[0], wrong))
    with pytest.raises(InvariantViolation) as raised:
        check_overlay(overlay)
    assert [v.invariant for v in raised.value.violations] == ["route-memo-current"]
    # A route remembered from a start node that has since left is stale too.
    overlay._route_memo.clear()
    overlay._route_memo[123, key, frozenset()] = (route.responsible, (123,))
    assert [v.invariant for v in overlay_violations(overlay)] == ["route-memo-current"]
