"""Property-based tests for the Pastry overlay.

The leaf set and the overlay answer "who is closest to this key" from a
sorted ring index; the oracles in this file answer it by scanning every
member, the way the code did before the index existed.  They must agree
everywhere, including where a bisect is easiest to get wrong: ids 0 and
2**64 - 1, exact antipodes, and two candidates at equal distance.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht import pastry
from repro.dht.node_state import (
    ID_DIGITS,
    ID_SPACE,
    LeafSet,
    closest_on_ring,
    digit_at,
    ring_distance,
    shared_prefix_length,
)
from repro.dht.pastry import PastryOverlay
from repro.dht.storage import DirectoryEntry
from repro.sim.invariants import overlay_violations

ids_strategy = st.integers(0, ID_SPACE - 1)

#: Ids within a few steps of the four quarter points of the ring: drawn
#: together they wrap around 0, sit at exact antipodes of each other and
#: tie at equal distance from a key far more often than uniform ids do.
ring_corner_ids = st.builds(
    lambda quarter, offset: (quarter * (ID_SPACE // 4) + offset) % ID_SPACE,
    st.integers(0, 3),
    st.integers(-3, 3),
)
edge_heavy_ids = st.one_of(ring_corner_ids, ids_strategy)


def scan_distance(a, b):
    d = abs(a - b)
    return min(d, ID_SPACE - d)


def scan_closest(ids, key):
    return min(ids, key=lambda nid: (scan_distance(nid, key), nid))


class ScanLeafSet:
    """The leaf set without an index: every answer is a scan or a sort."""

    def __init__(self, owner, half_size):
        self.owner = owner
        self.half_size = half_size
        self.members = set()

    def _cw(self, node_id):
        return (node_id - self.owner) % ID_SPACE

    def consider(self, node_id):
        if node_id == self.owner:
            return
        self.members.add(node_id)
        if len(self.members) > 2 * self.half_size:
            by_cw = sorted(self.members, key=self._cw)
            self.members = set(by_cw[: self.half_size]) | set(
                by_cw[::-1][: self.half_size]
            )

    def covers(self, key):
        if not self.members:
            return False
        succ_span = pred_span = 0
        for member in self.members:
            cw = self._cw(member)
            ccw = ID_SPACE - cw
            if cw <= ccw:
                succ_span = max(succ_span, cw)
            else:
                pred_span = max(pred_span, ccw)
        key_cw = self._cw(key)
        key_ccw = (ID_SPACE - key_cw) % ID_SPACE
        return (0 < key_cw <= succ_span) or (0 < key_ccw <= pred_span) or key_cw == 0

    def closest_to(self, key):
        return scan_closest(list(self.members) + [self.owner], key)


@given(a=ids_strategy, b=ids_strategy)
def test_ring_distance_symmetric_and_bounded(a, b):
    assert ring_distance(a, b) == ring_distance(b, a)
    assert 0 <= ring_distance(a, b) <= 1 << 63


@given(a=ids_strategy)
def test_ring_distance_identity(a):
    assert ring_distance(a, a) == 0


@given(a=ids_strategy, b=ids_strategy)
def test_shared_prefix_consistent_with_digits(a, b):
    length = shared_prefix_length(a, b)
    for position in range(length):
        assert digit_at(a, position) == digit_at(b, position)
    if length < ID_DIGITS:
        assert digit_at(a, length) != digit_at(b, length)


@given(
    membership=st.sets(ids_strategy, min_size=2, max_size=40),
    keys=st.lists(ids_strategy, min_size=1, max_size=10),
    seed=st.integers(0, 100),
)
@settings(max_examples=25, deadline=None)
def test_publish_lookup_always_agrees(membership, keys, seed):
    """Routing from any member reaches the entry published from any other."""
    rng = random.Random(seed)
    members = sorted(membership)
    overlay = PastryOverlay()
    for index, node_id in enumerate(members):
        overlay.join(node_id, bootstrap_id=members[0] if index else None)
    for key in keys:
        publisher = rng.choice(members)
        overlay.publish(publisher, key, DirectoryEntry(soup_id=key, name=str(key)))
        reader = rng.choice(members)
        entry, _ = overlay.lookup(reader, key)
        assert entry is not None
        assert entry.name == str(key)
    assert overlay.misplaced_entries() == []


@given(
    membership=st.sets(ids_strategy, min_size=5, max_size=30),
    departures=st.integers(1, 3),
    seed=st.integers(0, 100),
)
@settings(max_examples=20, deadline=None)
def test_leave_preserves_entry_placement(membership, departures, seed):
    rng = random.Random(seed)
    members = sorted(membership)
    overlay = PastryOverlay()
    for index, node_id in enumerate(members):
        overlay.join(node_id, bootstrap_id=members[0] if index else None)
    keys = [rng.getrandbits(64) for _ in range(5)]
    for key in keys:
        overlay.publish(members[0], key, DirectoryEntry(soup_id=key))
    alive = list(members)
    for _ in range(min(departures, len(alive) - 2)):
        victim = rng.choice(alive)
        alive.remove(victim)
        overlay.leave(victim)
    assert overlay.misplaced_entries() == []
    for key in keys:
        entry, _ = overlay.lookup(alive[0], key)
        assert entry is not None


leaf_set_ops = st.lists(
    st.one_of(
        st.tuples(st.just("consider"), edge_heavy_ids),
        st.tuples(st.just("consider_all"), st.lists(edge_heavy_ids, max_size=8)),
        st.tuples(st.just("remove"), edge_heavy_ids),
        # Removing a current member (a uniform id almost never is one).
        st.tuples(st.just("remove_member"), st.integers(0, 1 << 16)),
    ),
    max_size=30,
)


@given(a=edge_heavy_ids, b=edge_heavy_ids)
def test_ring_distance_is_the_shorter_arc(a, b):
    assert ring_distance(a, b) == scan_distance(a, b)


@given(
    members=st.sets(edge_heavy_ids, min_size=1, max_size=24),
    keys=st.lists(edge_heavy_ids, min_size=1, max_size=12),
)
def test_closest_on_ring_matches_scan(members, keys):
    ordered = sorted(members)
    for key in keys + ordered:
        assert closest_on_ring(ordered, key) == scan_closest(members, key)


@given(
    owner=edge_heavy_ids,
    half_size=st.sampled_from([1, 2, 4, 8]),
    ops=leaf_set_ops,
    keys=st.lists(edge_heavy_ids, min_size=1, max_size=6),
)
@settings(deadline=None)
def test_indexed_leaf_set_matches_scan_oracle(owner, half_size, ops, keys):
    """Queried after *every* operation, so an index that survives a
    membership change it should not have is caught on the next step."""
    leaf = LeafSet(owner, half_size)
    oracle = ScanLeafSet(owner, half_size)
    for op, arg in ops:
        if op == "consider":
            leaf.consider(arg)
            oracle.consider(arg)
        elif op == "consider_all":
            leaf.consider_all(arg)
            for node_id in arg:
                oracle.consider(node_id)
        else:
            if op == "remove_member":
                if not oracle.members:
                    continue
                arg = sorted(oracle.members)[arg % len(oracle.members)]
            leaf.remove(arg)
            oracle.members.discard(arg)
        assert leaf.members() == sorted(oracle.members)
        assert len(leaf) == len(oracle.members)
        probes = keys + [owner] + leaf.members()
        probes += [(member + ID_SPACE // 2) % ID_SPACE for member in leaf.members()]
        for key in probes:
            assert leaf.covers(key) == oracle.covers(key), key
            assert leaf.closest_to(key) == oracle.closest_to(key), key


@given(
    pool=st.lists(edge_heavy_ids, min_size=3, max_size=24, unique=True),
    ops=st.lists(
        st.tuples(st.sampled_from(["join", "leave", "fail"]), st.integers(0, 1 << 16)),
        max_size=30,
    ),
    keys=st.lists(edge_heavy_ids, min_size=1, max_size=6),
    leaf_half_size=st.sampled_from([2, 8]),
)
@settings(max_examples=30, deadline=None)
def test_responsible_node_matches_scan_under_churn(pool, ops, keys, leaf_half_size):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pastry, "LEAF_HALF_SIZE", leaf_half_size)
        overlay = PastryOverlay()
        outside = list(pool)
        members = []

        def join():
            node_id = outside.pop()
            overlay.join(node_id, members[0] if members else None)
            members.append(node_id)

        join()
        for op, pick in ops:
            if op == "join":
                if not outside:
                    continue
                join()
            else:
                if len(members) < 2:
                    continue
                victim = members.pop(pick % len(members))
                outside.append(victim)
                getattr(overlay, op)(victim)
            assert sorted(overlay.node_ids()) == sorted(members)
            for key in keys + members:
                assert overlay._responsible_node(key) == scan_closest(members, key)
                # With repaired leaf sets, routing agrees with the ground truth.
                assert overlay.route(members[0], key).responsible == scan_closest(
                    members, key
                )


class CountingPolicy:
    """A routing policy stub: offers a fixed slice of the pool as shortcuts
    and counts how often the overlay asks."""

    def __init__(self, pool):
        self.pool = sorted(pool)
        self.calls = 0

    def extra_candidates(self, node_id, key):
        self.calls += 1
        return self.pool[key % 3 :: 3]


@given(
    pool=st.lists(edge_heavy_ids, min_size=3, max_size=16, unique=True),
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["join", "leave", "fail", "route", "lookup", "publish", "policy"]
            ),
            st.integers(0, 1 << 16),
            st.integers(0, 1 << 16),
            edge_heavy_ids,
        ),
        max_size=40,
    ),
    leaf_half_size=st.sampled_from([2, 8]),
)
@settings(max_examples=40, deadline=None)
def test_remembered_routes_match_the_unremembered_route(pool, ops, leaf_half_size):
    """Two overlays take the same churn and traffic; ``oracle`` computes
    every route afresh (as before routes were remembered).  Routes,
    lookups, counters and routing-policy calls must agree throughout."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pastry, "LEAF_HALF_SIZE", leaf_half_size)
        overlay = PastryOverlay()
        oracle = PastryOverlay()
        oracle._remembered_route = oracle._route
        both = (overlay, oracle)
        policies = {}
        outside = list(pool)
        members = []

        def join():
            node_id = outside.pop()
            for ring in both:
                ring.join(node_id, members[0] if members else None)
            members.append(node_id)

        join()
        for op, pick, mask, key in ops:
            start = members[pick % len(members)]
            avoid = frozenset(m for i, m in enumerate(members) if mask >> i & 1)
            if op == "join":
                if outside:
                    join()
            elif op in ("leave", "fail"):
                if len(members) > 1:
                    victim = members.pop(pick % len(members))
                    outside.append(victim)
                    for ring in both:
                        getattr(ring, op)(victim)
            elif op == "policy":
                if policies:
                    policies = {}
                else:
                    policies = {ring: CountingPolicy(pool) for ring in both}
                for ring in both:
                    ring.set_routing_policy(policies.get(ring))
            elif op == "route":
                routed = overlay.route(start, key, avoid)
                assert routed == oracle.route(start, key, avoid)
                routed.delivered = False
                routed.path.append(key)
                assert overlay.route(start, key, avoid) == oracle.route(start, key, avoid)
            elif op == "publish":
                entry = DirectoryEntry(soup_id=key, version=mask)
                assert overlay.publish(start, key, entry) == oracle.publish(start, key, entry)
            else:
                for ring in both:
                    ring.set_liveness(lambda node_id, dead=avoid: node_id not in dead)
                assert overlay.lookup(start, key) == oracle.lookup(start, key)
            if policies:
                assert policies[overlay].calls == policies[oracle].calls
            assert overlay_violations(overlay) == []
        for counter in ("lookup_retries", "lookup_alternate_hits", "publishes_unreachable"):
            assert getattr(overlay, counter) == getattr(oracle, counter)
