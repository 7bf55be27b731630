"""Tests for protective dropping (Sec. 4.6)."""

import pytest

from repro.core.config import SoupConfig
from repro.core.dropping import ReplicaStore


@pytest.fixture()
def config():
    return SoupConfig()


def make_store(capacity=5.0, config=None):
    return ReplicaStore(owner=999, capacity_profiles=capacity, config=config or SoupConfig())


def test_store_within_capacity(config):
    store = make_store(3.0, config)
    assert store.request_store(1).accepted
    assert store.request_store(2).accepted
    assert store.stores_for(1)
    assert store.replica_count() == 2


def test_no_self_storage(config):
    store = make_store()
    with pytest.raises(ValueError):
        store.request_store(999)


def test_restore_is_idempotent(config):
    store = make_store(2.0, config)
    assert store.request_store(1).accepted
    decision = store.request_store(1)
    assert decision.accepted
    assert decision.reason == "already stored"
    assert store.replica_count() == 1


def test_oversized_replica_rejected(config):
    store = make_store(0.5, config)
    decision = store.request_store(1)
    assert not decision.accepted
    assert decision.reason == "larger than capacity"
    assert store.replica_count() == 0


# --- refresh of an already stored replica ------------------------------------


def test_refresh_at_a_full_store_takes_no_room_and_evicts_nothing(config):
    store = make_store(3.0, config)
    store.request_store(1)
    store.request_store(2)
    store.request_store(3)
    store.learn_friend_storage([3])  # 3 has the highest dropping score
    decision = store.request_store(1)
    assert decision.accepted
    assert decision.reason == "already stored"
    assert decision.dropped_owner is None
    assert store.stored_owners() == [1, 2, 3]
    assert store.replica_count() == 3


def test_refresh_updates_friendship_in_place(config):
    store = make_store(2.0, config)
    store.request_store(1)
    store.request_store(2)
    store.learn_friend_storage([1])  # 1 has the highest dropping score
    assert store.request_store(1, is_friend=True).accepted
    decision = store.request_store(3)
    assert decision.dropped_owner == 2  # the friend is protected
    assert store.stored_owners() == [1, 3]


def test_eviction_picks_highest_dropping_score(config):
    store = make_store(2.0, config)
    store.request_store(1)
    store.request_store(2)
    # Owner 2 also stores everywhere: its score rises via exchanges.
    store.learn_friend_storage([2])
    store.learn_friend_storage([2])
    decision = store.request_store(3)
    assert decision.accepted
    assert decision.dropped_owner == 2
    assert store.stores_for(1)
    assert not store.stores_for(2)


def test_friends_protected_from_eviction(config):
    store = make_store(2.0, config)
    store.request_store(1, is_friend=True)
    store.request_store(2, is_friend=True)
    decision = store.request_store(3)
    assert not decision.accepted
    assert decision.reason == "storage exhausted"


def test_friend_scores_decrease(config):
    store = make_store(5.0, config)
    store.request_store(1, is_friend=True)
    store.learn_friend_storage([])
    assert store.dropping_score(1) == pytest.approx(-1.0 / config.beta)


def test_mismatch_penalty_and_three_strikes(config):
    store = make_store(5.0, config)
    store.request_store(1)
    # Two mismatches: score 200 < theta.
    store.observe_published_mirrors(1, announced=[5, 6])
    store.observe_published_mirrors(1, announced=[5])
    assert not store.is_blacklisted(1)
    # Third strike blacklists and evicts.
    removed = store.observe_published_mirrors(1, announced=[])
    assert removed == [1]
    assert store.is_blacklisted(1)
    assert not store.stores_for(1)


def test_honest_announcement_no_penalty(config):
    store = make_store(5.0, config)
    store.request_store(1)
    store.observe_published_mirrors(1, announced=[999, 5])
    assert store.dropping_score(1) == 0.0


def test_mismatch_for_unstored_owner_ignored(config):
    store = make_store(5.0, config)
    store.observe_published_mirrors(42, announced=[])
    assert store.dropping_score(42) == 0.0


def test_blacklisted_owner_rejected(config):
    store = make_store(5.0, config)
    store.request_store(1)
    for _ in range(3):
        store.observe_published_mirrors(1, announced=[])
    decision = store.request_store(1)
    assert not decision.accepted
    assert decision.reason == "blacklisted"
    assert store.blacklisted_owners() == {1}


def test_flooder_scores_rise_via_exchange(config):
    store = make_store(10.0, config)
    store.request_store(7)
    # Every exchanged friend also stores 7's data: the flooding signal.
    for _ in range(5):
        store.learn_friend_storage([7])
    assert store.dropping_score(7) == pytest.approx(5.0)


def test_remove_withdrawn_replica(config):
    store = make_store(5.0, config)
    store.request_store(1)
    assert store.remove(1)
    assert not store.remove(1)
    assert store.replica_count() == 0


def test_capacity_validation(config):
    with pytest.raises(ValueError):
        ReplicaStore(owner=1, capacity_profiles=0.0, config=config)


def test_eviction_tie_breaks_toward_the_lowest_owner_id(config):
    store = make_store(3.0, config)
    for owner in (3, 1, 2):
        store.request_store(owner)
    decision = store.request_store(4)
    assert decision.accepted
    assert decision.dropped_owner == 1
    assert store.stored_owners() == [3, 2, 4]


# --- threshold boundary behaviour (θ, c, 1/β exact values) -----------------


def test_blacklist_triggers_exactly_at_theta(config):
    """d_w ≥ θ blacklists: a score of exactly θ is already over the line."""
    store = make_store(5.0, config)
    store.request_store(1)
    store._set_score(1, config.theta - 1e-9)
    assert store.observe_published_mirrors(1, [999]) == []
    assert not store.is_blacklisted(1)
    store._set_score(1, float(config.theta))
    assert store.observe_published_mirrors(1, [999]) == [1]
    assert store.is_blacklisted(1)
    assert not store.stores_for(1)


def test_theta_boundary_reachable_by_unit_increments(config):
    """θ unit (+1) co-storage observations — not θ−1, not θ+1 — blacklist."""
    store = make_store(500.0, config)
    store.request_store(1)
    for _ in range(int(config.theta) - 1):
        assert store.learn_friend_storage([1]) == []
    assert store.dropping_score(1) == pytest.approx(config.theta - 1)
    assert not store.is_blacklisted(1)
    assert store.learn_friend_storage([1]) == [1]
    assert store.dropping_score(1) == pytest.approx(config.theta)


def test_friend_discount_is_exactly_one_over_beta(config):
    store = make_store(5.0, config)
    store.request_store(1, is_friend=True)
    store.learn_friend_storage([])
    assert store.dropping_score(1) == pytest.approx(-1.0 / config.beta)
    # A co-storage observation nets +1 − 1/β for a friend.
    store.learn_friend_storage([1])
    assert store.dropping_score(1) == pytest.approx(2 * (-1.0 / config.beta) + 1.0)


def test_friend_discount_offsets_slow_flooding(config):
    """A friend co-stored every exchange gains only 1 − 1/β per round, so
    it takes β/(β−1) ≈ 5× longer to blacklist a friend than a stranger."""
    stranger_rounds = int(config.theta)
    friend_net = 1.0 - 1.0 / config.beta
    friend_rounds = int(config.theta / friend_net)
    assert friend_rounds > stranger_rounds
    store = make_store(500.0, config)
    store.request_store(1, is_friend=True)
    for _ in range(stranger_rounds):
        store.learn_friend_storage([1])
    assert not store.is_blacklisted(1)


def test_mismatch_penalty_is_exactly_c(config):
    store = make_store(5.0, config)
    store.request_store(1)
    store.observe_published_mirrors(1, announced=[777])
    assert store.dropping_score(1) == pytest.approx(config.mismatch_penalty)


def test_strikes_to_blacklist_matches_theta_over_c(config):
    """θ=300, c=100: the third announced/real mismatch blacklists."""
    strikes = -(-int(config.theta) // int(config.mismatch_penalty))  # ceil
    assert strikes == 3
    store = make_store(5.0, config)
    store.request_store(1)
    for strike in range(strikes - 1):
        assert store.observe_published_mirrors(1, announced=[]) == []
        assert not store.is_blacklisted(1), f"blacklisted after strike {strike + 1}"
    assert store.observe_published_mirrors(1, announced=[]) == [1]
    assert store.is_blacklisted(1)
