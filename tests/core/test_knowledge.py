"""Tests for the knowledge base."""

import pytest

from repro.core.knowledge import KBEntry, KnowledgeBase


@pytest.fixture()
def kb():
    return KnowledgeBase(owner=100, default_ttl=3)


def test_add_and_contains(kb):
    kb.add_node(1)
    assert 1 in kb
    assert 2 not in kb
    assert len(kb) == 1


def test_no_self_entry(kb):
    with pytest.raises(ValueError):
        kb.add_node(100)


def test_friend_upgrade_preserved(kb):
    kb.add_node(1)
    kb.add_node(1, is_friend=True)
    assert kb.get(1).is_friend
    # Re-adding without the flag does not downgrade.
    kb.add_node(1)
    assert kb.get(1).is_friend


def _view(kb):
    ranked, friends, unranked, _ = kb.selection_view()
    return ranked, friends, unranked


def test_friends_listing(kb):
    kb.add_node(1, is_friend=True)
    kb.add_node(2)
    kb.set_friend(3)
    assert sorted(_view(kb)[1]) == [1, 3]


def test_experience_recording_and_clamping(kb):
    kb.set_experience(1, 0.7)
    assert kb.experience_of(1) == pytest.approx(0.7)
    kb.set_experience(1, 1.5)
    assert kb.experience_of(1) == 1.0
    kb.set_experience(1, -0.5)
    assert kb.experience_of(1) == 0.0


def test_experience_of_unknown_is_zero(kb):
    assert kb.experience_of(42) == 0.0


def test_ranked_candidates_sorted(kb):
    kb.set_experience(1, 0.2)
    kb.set_experience(2, 0.9)
    kb.set_experience(3, 0.5)
    assert [node for node, _ in _view(kb)[0]] == [2, 3, 1]


def test_unranked_nodes(kb):
    kb.add_node(1)
    kb.set_experience(2, 0.4)
    assert _view(kb)[2] == [1]


def test_ttl_decay_prunes_strangers(kb):
    kb.add_node(1)  # stranger, ttl=3
    for _ in range(2):
        assert kb.end_selection_round([]) == []
    assert kb.end_selection_round([]) == [1]
    assert 1 not in kb


def test_friends_never_expire(kb):
    kb.add_node(1, is_friend=True)
    for _ in range(10):
        kb.end_selection_round([])
    assert 1 in kb


def test_mirrors_refresh_ttl(kb):
    kb.add_node(1)
    for _ in range(10):
        kb.end_selection_round(iter([1]))
    assert 1 in kb and kb.get(1).is_mirror
    # De-selecting restarts the countdown.
    for _ in range(2):
        kb.end_selection_round(iter([]))
    assert not kb.get(1).is_mirror
    assert kb.end_selection_round([]) == [1]


def test_set_experience_refreshes_ttl(kb):
    kb.add_node(1)
    kb.end_selection_round([])
    kb.end_selection_round([])
    kb.set_experience(1, 0.3)
    assert kb.end_selection_round([]) == []  # countdown restarted


def test_entry_validation():
    with pytest.raises(ValueError):
        KBEntry(node_id=1, experience=1.5)


def test_iteration_yields_entries(kb):
    kb.add_node(1)
    kb.add_node(2, is_friend=True)
    ids = {entry.node_id for entry in kb}
    assert ids == {1, 2}


def test_add_friends_is_add_node_as_friend_for_each(kb):
    kb.add_node(2)
    kb.set_experience(3, 0.4)
    kb.add_friends([5, 2, 3, 5])
    one_by_one = KnowledgeBase(owner=100, default_ttl=3)
    one_by_one.add_node(2)
    one_by_one.set_experience(3, 0.4)
    for node_id in [5, 2, 3, 5]:
        one_by_one.add_node(node_id, is_friend=True)
    assert list(kb) == list(one_by_one)  # entries, order, flags, TTLs
    assert all(entry.is_friend for entry in kb)
    with pytest.raises(ValueError):
        kb.add_friends([7, 100])


def test_entries_have_slots_and_keyword_construction():
    entry = KBEntry(node_id=4, is_friend=True, ttl=2)
    assert not hasattr(entry, "__dict__")
    assert entry == KBEntry(4, True, 0.0, 2, False)
    assert entry != KBEntry(node_id=4, ttl=2)
    assert repr(entry) == (
        "KBEntry(node_id=4, is_friend=True, experience=0.0, ttl=2, is_mirror=False)"
    )
