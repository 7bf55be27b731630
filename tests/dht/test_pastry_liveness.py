"""Tests for the overlay's liveness-aware directory operations.

With no liveness oracle installed every member counts as reachable (the
historical behaviour).  With one installed — as the deployment emulation
does — publish refuses to store at an unreachable home, and lookup
retries via alternate next-hops around dead responsibles.
"""

import pytest

from repro.dht.node_state import ring_distance
from repro.dht.pastry import PastryOverlay
from repro.dht.storage import DirectoryEntry


def build_overlay(members):
    overlay = PastryOverlay()
    members = sorted(members)
    for index, node_id in enumerate(members):
        overlay.join(node_id, bootstrap_id=members[0] if index else None)
    return overlay


MEMBERS = [0x1000, 0x3000, 0x5000, 0x9000, 0xC000, 0xF000]


def entry_for(key):
    return DirectoryEntry(soup_id=key, name=f"user-{key:x}")


def test_no_oracle_preserves_historical_behaviour():
    overlay = build_overlay(MEMBERS)
    key = 0x5005
    route = overlay.publish(0x1000, key, entry_for(key))
    assert route.delivered
    entry, lookup_route = overlay.lookup(0xF000, key)
    assert entry is not None and lookup_route.delivered
    assert overlay.lookup_retries == 0
    assert overlay.publishes_unreachable == 0


def test_publish_to_unreachable_home_is_not_stored_elsewhere():
    overlay = build_overlay(MEMBERS)
    key = 0x5005
    home = overlay.route(0x1000, key).responsible
    overlay.set_liveness(lambda n: n != home)
    route = overlay.publish(0x1000, key, entry_for(key))
    assert not route.delivered
    assert overlay.publishes_unreachable == 1
    # Storing at an alternate would misplace the entry — nobody holds it.
    for member in MEMBERS:
        assert key not in overlay.entries_at(member)
    assert overlay.misplaced_entries() == []


def test_publish_succeeds_after_home_revives():
    overlay = build_overlay(MEMBERS)
    key = 0x5005
    home = overlay.route(0x1000, key).responsible
    alive = {m: m != home for m in MEMBERS}
    overlay.set_liveness(lambda n: alive[n])
    assert not overlay.publish(0x1000, key, entry_for(key)).delivered
    alive[home] = True
    route = overlay.publish(0x1000, key, entry_for(key))
    assert route.delivered
    assert key in overlay.entries_at(home)


def test_lookup_retries_alternates_when_home_dead():
    overlay = build_overlay(MEMBERS)
    key = 0x5005
    home = overlay.route(0x1000, key).responsible
    overlay.publish(0x1000, key, entry_for(key))
    overlay.set_liveness(lambda n: n != home)
    entry, route = overlay.lookup(0xF000, key)
    # Only the dead home holds the entry: the retry reaches a *live*
    # alternate that answers authoritatively ("not found"), which is a
    # delivered miss — not an unreachable result.
    assert entry is None
    assert route.delivered
    assert overlay.lookup_retries >= 1
    assert route.responsible != home


def test_lookup_finds_entry_rehomed_to_alternate():
    overlay = build_overlay(MEMBERS)
    key = 0x5005
    home = overlay.route(0x1000, key).responsible
    alternate = overlay.route(0x1000, key, avoid=frozenset({home})).responsible
    # Place the replica where an incomplete churn repair would leave it:
    # at the next-closest node rather than the structural home.
    overlay._nodes[alternate].entries[key] = entry_for(key)
    overlay.set_liveness(lambda n: n != home)
    entry, route = overlay.lookup(0xF000, key)
    assert entry is not None
    assert entry.name == f"user-{key:x}"
    assert route.responsible == alternate
    assert overlay.lookup_alternate_hits == 1


def test_lookup_gives_up_when_all_alternates_dead():
    overlay = build_overlay(MEMBERS)
    key = 0x5005
    overlay.publish(0x1000, key, entry_for(key))
    overlay.set_liveness(lambda n: False)
    entry, route = overlay.lookup(0xF000, key)
    assert entry is None
    assert not route.delivered
    assert overlay.lookup_retries <= overlay.lookup_max_alternates


def test_clearing_oracle_restores_structural_routing():
    overlay = build_overlay(MEMBERS)
    key = 0x5005
    home = overlay.route(0x1000, key).responsible
    overlay.publish(0x1000, key, entry_for(key))
    overlay.set_liveness(lambda n: n != home)
    assert overlay.lookup(0xF000, key)[0] is None
    overlay.set_liveness(None)
    entry, route = overlay.lookup(0xF000, key)
    assert entry is not None and route.delivered


def _closest_first(members, key):
    return sorted(members, key=lambda n: (ring_distance(n, key), n))


def _recording_oracle(overlay, alive):
    """Install a liveness oracle over ``alive`` that records every probe."""
    probed = []

    def liveness(node_id):
        probed.append(node_id)
        return node_id in alive

    overlay.set_liveness(liveness)
    return probed


def test_lookup_asks_the_last_alternate_it_routes_to():
    """Regression: with ``lookup_max_alternates = 3`` the lookup routed to
    the third alternate, billed the route, and returned it undelivered
    without ever asking whether it was up."""
    members = [0x1000 * i for i in range(1, 13)]
    overlay = build_overlay(members)
    key = 0x5005
    by_distance = _closest_first(members, key)
    fourth = by_distance[overlay.lookup_max_alternates]
    overlay._nodes[fourth].entries[key] = entry_for(key)
    probed = _recording_oracle(overlay, alive={fourth})
    entry, route = overlay.lookup(0xC000, key)
    assert probed == by_distance[:4]
    assert route.responsible == fourth
    assert route.delivered
    assert entry is not None and entry.name == f"user-{key:x}"
    assert overlay.lookup_retries == overlay.lookup_max_alternates
    assert overlay.lookup_alternate_hits == 1


def test_lookup_probes_every_route_it_computes_when_all_are_dead(monkeypatch):
    members = [0x1000 * i for i in range(1, 13)]
    overlay = build_overlay(members)
    key = 0x5005
    routed = []
    route = overlay._route

    def recording_route(start_id, key, avoid):
        result = route(start_id, key, avoid)
        routed.append(result.responsible)
        return result

    monkeypatch.setattr(overlay, "_route", recording_route)
    probed = _recording_oracle(overlay, alive=set())
    entry, result = overlay.lookup(0xC000, key)
    assert entry is None and not result.delivered
    assert probed == routed == _closest_first(members, key)[:4]
    assert overlay.lookup_retries == overlay.lookup_max_alternates

    # The same lookup again, ring unchanged: every route, alternates
    # included, comes from the memo, and each call gets its own result.
    probed.clear()
    entry, again = overlay.lookup(0xC000, key)
    assert entry is None and not again.delivered and again is not result
    assert probed == routed == _closest_first(members, key)[:4]
    assert overlay.lookup_retries == 2 * overlay.lookup_max_alternates
    assert overlay.route(0xC000, key).delivered
