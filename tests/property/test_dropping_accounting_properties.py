"""Property-based tests for ``ReplicaStore``'s incremental accounting.

The store skips the blacklist scan while a running upper bound of the
scores is below θ.  The oracle below does not: it scans every score after
every score change.  Under any sequence of storage requests (refreshes
included), withdrawals, experience exchanges and published-mirror checks
the two must agree on every decision, every score, the blacklist and the
*order* of the owners each call reports as removed (it becomes the order of
trace events).

An ``exchange_round`` is one node's experience exchange with several
friends: the store learns every friend's stored owners in one round, the
oracle one friend at a time.

Every replica is one whole profile; capacities are multiples of 1/4 from
1/2 up, so some stores cannot hold even one.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import SoupConfig
from repro.core.dropping import ReplicaStore

ME = 999
#: Low θ and c so that blacklisting fires within a short operation sequence.
CONFIG = SoupConfig(theta=3.0, mismatch_penalty=1.5)


class ScanEverythingStore:
    """Protective dropping with no incremental state (the test's oracle)."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.replicas = {}  # owner -> is_friend, insertion-ordered
        self.scores = {}
        self.blacklist = set()

    def used(self):
        return len(self.replicas)

    def request_store(self, owner, is_friend):
        if owner in self.blacklist:
            return (False, None)
        if 1 > self.capacity:
            return (False, None)
        held = 1 if owner in self.replicas else 0
        dropped = None
        while self.used() - held + 1 > self.capacity:
            victims = [
                (-self.scores.get(other, 0.0), other)
                for other, friend in self.replicas.items()
                if not friend and other != owner
            ]
            if not victims:
                return (False, None)
            dropped = min(victims)[1]
            del self.replicas[dropped]
        self.replicas[owner] = is_friend
        return (True, dropped)

    def remove(self, owner):
        return self.replicas.pop(owner, None) is not None

    def learn_friend_storage(self, stored_at_friend):
        for owner, is_friend in self.replicas.items():
            if owner in stored_at_friend:
                self.scores[owner] = self.scores.get(owner, 0.0) + 1.0
            if is_friend:
                self.scores[owner] = self.scores.get(owner, 0.0) - 1.0 / CONFIG.beta
        return self.scan()

    def observe_published_mirrors(self, owner, announced):
        if owner not in self.replicas:
            return []
        if ME not in announced:
            self.scores[owner] = self.scores.get(owner, 0.0) + CONFIG.mismatch_penalty
        return self.scan()

    def scan(self):
        removed = []
        for owner, score in self.scores.items():
            if owner not in self.blacklist and score >= CONFIG.theta:
                self.blacklist.add(owner)
                if self.replicas.pop(owner, None) is not None:
                    removed.append(owner)
        return removed


owners = st.integers(1, 6)
operations = st.one_of(
    st.tuples(st.just("store"), owners, st.booleans()),
    st.tuples(st.just("remove"), owners),
    st.tuples(st.just("learn"), st.frozensets(owners, max_size=4)),
    st.tuples(
        st.just("exchange_round"),
        st.lists(st.frozensets(owners, max_size=4), min_size=1, max_size=6),
    ),
    st.tuples(st.just("observe"), owners, st.sampled_from([(ME, 3), (3, 4), ()])),
)


@given(
    capacity=st.integers(2, 24).map(lambda quarters: quarters / 4),
    ops=st.lists(operations, min_size=20, max_size=80),
)
@settings(max_examples=200)
# A friend, two non-friends; owner 3 is first scored at the round's third
# view and owner 2 reaches θ at its fourth, so blacklisting fires mid-round.
@example(
    capacity=6.0,
    ops=[
        ("store", 1, True),
        ("store", 2, False),
        ("store", 3, False),
        ("exchange_round", [frozenset({2}), frozenset(), frozenset({3, 2}),
                            frozenset({2, 3, 1}), frozenset({2, 3})]),
    ] + [("remove", 6)] * 16,
)
def test_store_agrees_with_scan_everything_oracle(capacity, ops):
    store = ReplicaStore(owner=ME, capacity_profiles=capacity, config=CONFIG)
    oracle = ScanEverythingStore(capacity)
    for op in ops:
        if op[0] == "store":
            decision = store.request_store(op[1], is_friend=op[2])
            assert (decision.accepted, decision.dropped_owner) == oracle.request_store(
                op[1], op[2]
            )
        elif op[0] == "remove":
            assert store.remove(op[1]) == oracle.remove(op[1])
        elif op[0] == "learn":
            assert store.learn_friend_storage(op[1]) == oracle.learn_friend_storage(op[1])
        elif op[0] == "exchange_round":
            removed = store.learn_friend_storage(*op[1])
            expected = []
            for view in op[1]:
                expected += oracle.learn_friend_storage(view)
            assert removed == expected
        else:
            assert store.observe_published_mirrors(
                op[1], op[2]
            ) == oracle.observe_published_mirrors(op[1], op[2])

        assert store.stored_owners() == list(oracle.replicas)
        assert store.replica_count() == oracle.used()
        assert store.replica_count() <= capacity
        assert store.blacklisted_owners() == oracle.blacklist
        # Same scores, inserted in the same order (the order of `removed`).
        assert list(store._scores.items()) == list(oracle.scores.items())
        live = [s for o, s in oracle.scores.items() if o not in oracle.blacklist]
        assert all(store._ceiling >= score for score in live)
