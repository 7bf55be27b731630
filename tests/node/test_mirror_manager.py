"""Tests for the Mirror Manager."""

import random

import pytest

from repro.core.config import SoupConfig
from repro.core.experience import ExperienceReport
from repro.core.ranking import BOOTSTRAP_PRIOR, Recommendation, candidate_ranking
from repro.node.mirror_manager import MirrorManager
from repro.sim.invariants import check_mirror_manager


@pytest.fixture()
def manager():
    return MirrorManager(
        owner_id=1,
        config=SoupConfig(),
        capacity_profiles=10.0,
        rng=random.Random(0),
    )


def test_learn_node_and_friends(manager):
    manager.learn_node(2)
    manager.set_friend(3)
    assert 2 in manager.knowledge
    assert [n for n in manager.knowledge if manager.knowledge.is_friend(n)] == [3]


def test_learn_self_is_noop(manager):
    manager.learn_node(1)
    assert 1 not in manager.knowledge


def test_recommendations_only_in_bootstrap_mode(manager):
    manager.receive_recommendations([Recommendation(9, mirror=5, quality=0.8)])
    assert manager.bootstrap.recommendation_count == 1
    manager.has_experience = True
    manager.receive_recommendations([Recommendation(9, mirror=6, quality=0.8)])
    assert manager.bootstrap.recommendation_count == 1  # ignored now


def test_recommendations_for_requester_excludes_requester(manager):
    manager.announced_mirrors = [5, 6]
    recs = manager.recommendations_for(requester=5)
    assert [r.mirror for r in recs] == [6]
    assert all(r.recommender == 1 for r in recs)


def test_observation_and_drain(manager):
    manager.observe_mirror(friend=2, mirror=5, success=True)
    manager.observe_mirror(friend=2, mirror=5, success=False)
    reports = manager.hand_over(2).reports(manager.config.o_max)
    assert len(reports) == 1
    assert reports[0].availability == 0.5
    assert manager.hand_over(2) is None


def test_ingest_pending_reports_transitions_mode(manager):
    assert not manager.has_experience
    manager.receive_reports(
        [ExperienceReport(reporter=2, mirror=5, observations=3, availability=1.0)]
    )
    assert manager.ingest_pending_reports() == 1
    assert manager.has_experience
    assert manager.knowledge.experience_of(5) > 0


def test_build_ranking_layers(manager):
    # Experience beats recommendations beats the prior.
    manager.receive_recommendations([Recommendation(9, mirror=6, quality=0.9)])
    manager.learn_node(7)
    manager.receive_reports(
        [ExperienceReport(reporter=2, mirror=5, observations=3, availability=1.0)]
        * 5
    )
    manager.ingest_pending_reports()
    ranking = dict(
        candidate_ranking(manager.knowledge, manager.bootstrap, BOOTSTRAP_PRIOR)[0]
    )
    assert set(ranking) >= {5, 6, 7}
    assert ranking[5] > ranking[6] > ranking[7] or ranking[5] > ranking[7]


def test_run_selection_uses_ranking(manager):
    for node in range(2, 30):
        manager.learn_node(node)
    result = manager.run_selection()
    assert len(result.mirrors) > 0
    assert manager.selected_mirrors == result.mirrors
    assert 1 not in result.mirrors


def test_run_selection_respects_exclusions(manager):
    for node in range(2, 10):
        manager.learn_node(node)
    result = manager.run_selection(exclude=range(2, 8))
    assert all(m in (8, 9) for m in result.mirrors)


def test_commit_mirrors_updates_knowledge(manager):
    manager.learn_node(5)
    manager.commit([5], 0)
    assert manager.announced_mirrors == [5]
    assert manager.knowledge.is_mirror(5)


def test_store_request_handling(manager):
    decision = manager.handle_store_request(owner=9, is_friend=False)
    assert decision.accepted
    assert manager.store.stores_for(9)
    assert manager.handle_withdraw(9)


def test_store_request_refresh_cannot_bypass_capacity(manager):
    """A replica is one whole profile: at a full mirror (10 profiles here)
    a stored owner's refresh takes no room and a new owner evicts one."""
    for owner in range(10, 20):
        assert manager.handle_store_request(owner=owner, is_friend=False).accepted
    for owner in range(10, 20):
        decision = manager.handle_store_request(owner=owner, is_friend=True)
        assert (decision.accepted, decision.dropped_owner) == (True, None)
    assert manager.store.replica_count() == 10
    assert not manager.handle_store_request(owner=9, is_friend=False).accepted
    check_mirror_manager(manager)


def test_mirroring_disabled_rejects_storage():
    mobile = MirrorManager(
        owner_id=1,
        config=SoupConfig(),
        capacity_profiles=10.0,
        rng=random.Random(0),
        mirroring_enabled=False,
    )
    decision = mobile.handle_store_request(owner=9, is_friend=False)
    assert not decision.accepted
    assert decision.reason == "mirroring disabled"
    # But the mobile node still selects mirrors for its own data.
    mobile.learn_node(2)
    assert len(mobile.run_selection().mirrors) > 0
