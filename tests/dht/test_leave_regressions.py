"""Regression tests for ``PastryOverlay.leave`` entry re-homing.

The seed implementation re-homed only the departing node's own entries,
leaving entries misplaced when a departure shifted *surviving* nodes'
responsibility regions (and leaf sets could go stale when full).  These
tests pin the failure modes the fix addressed: batches of concurrent
departures, adjacent-node departures, bootstrap-node departure, and a
publish whose responsible node departs immediately afterwards.
"""

import random

import pytest

from repro.dht.pastry import PastryOverlay
from repro.dht.storage import DirectoryEntry
from repro.sim.invariants import check_overlay


def build_overlay(n, seed=42):
    rng = random.Random(seed)
    overlay = PastryOverlay()
    ids = []
    for _ in range(n):
        node_id = rng.getrandbits(64)
        while node_id in overlay:
            node_id = rng.getrandbits(64)
        overlay.join(node_id, bootstrap_id=ids[0] if ids else None)
        ids.append(node_id)
    return overlay, ids, rng


def publish_keys(overlay, ids, rng, count):
    keys = []
    for _ in range(count):
        key = rng.getrandbits(64)
        overlay.publish(rng.choice(ids), key, DirectoryEntry(soup_id=key, name=str(key)))
        keys.append(key)
    return keys


def assert_all_reachable(overlay, ids, keys):
    assert overlay.misplaced_entries() == []
    survivors = [nid for nid in ids if nid in overlay]
    for key in keys:
        entry, _ = overlay.lookup(survivors[0], key)
        assert entry is not None, f"lost key {key:#x}"
        assert entry.name == str(key)
    check_overlay(overlay)  # now with the lookups' routes remembered


@pytest.mark.parametrize("seed", [0, 1, 7, 1337])
def test_batch_departures_rehome_every_entry(seed):
    """Several simultaneous departures leave no entry misplaced or lost."""
    overlay, ids, rng = build_overlay(40, seed=seed)
    keys = publish_keys(overlay, ids, rng, 30)
    for departing in rng.sample(ids, 10):
        overlay.leave(departing)
    check_overlay(overlay)
    assert_all_reachable(overlay, ids, keys)


def test_adjacent_nodes_departing_back_to_back():
    """Departure of ring-adjacent nodes shifts responsibility transitively."""
    overlay, ids, rng = build_overlay(30, seed=3)
    keys = publish_keys(overlay, ids, rng, 25)
    by_ring = sorted(nid for nid in ids)
    # Remove a contiguous run of four ring neighbours one after the other.
    start = len(by_ring) // 2
    for departing in by_ring[start : start + 4]:
        overlay.leave(departing)
        assert overlay.misplaced_entries() == []
    check_overlay(overlay)
    assert_all_reachable(overlay, ids, keys)


def test_bootstrap_node_departure():
    """The overlay survives losing the node everyone bootstrapped through."""
    overlay, ids, rng = build_overlay(25, seed=11)
    keys = publish_keys(overlay, ids, rng, 20)
    overlay.leave(ids[0])  # every later join used ids[0] as bootstrap
    check_overlay(overlay)
    assert_all_reachable(overlay, ids, keys)
    # The overlay must still accept and route new publishes.
    key = rng.getrandbits(64)
    overlay.publish(ids[-1], key, DirectoryEntry(soup_id=key, name="post"))
    entry, _ = overlay.lookup(ids[1], key)
    assert entry is not None and entry.name == "post"


def test_responsible_node_departs_right_after_publish():
    """A publish 'in flight' survives the responsible node's departure."""
    overlay, ids, rng = build_overlay(30, seed=5)
    for _ in range(20):
        key = rng.getrandbits(64)
        publisher = rng.choice([nid for nid in ids if nid in overlay])
        route = overlay.publish(
            publisher, key, DirectoryEntry(soup_id=key, name=str(key))
        )
        if route.responsible == publisher or len(overlay) <= 2:
            continue
        # The node that just accepted the entry departs before anyone reads.
        overlay.leave(route.responsible)
        reader = next(nid for nid in ids if nid in overlay)
        entry, _ = overlay.lookup(reader, key)
        assert entry is not None, f"publish to departing node lost key {key:#x}"
        assert entry.name == str(key)
    check_overlay(overlay)


def test_departures_interleaved_with_joins():
    """Churn (leave/join interleaving) keeps placement and routing exact."""
    overlay, ids, rng = build_overlay(20, seed=9)
    keys = publish_keys(overlay, ids, rng, 15)
    for step in range(15):
        live = [nid for nid in ids if nid in overlay]
        if step % 3 != 2 and len(live) > 4:
            overlay.leave(rng.choice(live))
        else:
            node_id = rng.getrandbits(64)
            while node_id in overlay:
                node_id = rng.getrandbits(64)
            overlay.join(node_id, bootstrap_id=live[0])
            ids.append(node_id)
        assert overlay.misplaced_entries() == []
    check_overlay(overlay)
    assert_all_reachable(overlay, ids, keys)
