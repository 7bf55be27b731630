"""Tests for the knowledge base."""

import gc
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import knowledge
from repro.core.knowledge import KnowledgeBase
from repro.graphs.datasets import generate_dataset
from tests.core.kb_oracles import rows


@pytest.fixture()
def kb(monkeypatch):
    monkeypatch.setattr(knowledge, "STRANGER_TTL", 3)
    return KnowledgeBase(owner=100)


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
    assert kb.is_friend(1)
    # Re-adding without the flag does not downgrade.
    kb.add_node(1)
    assert kb.is_friend(1)
    assert kb.ttl_of(1) is None  # a friend has no countdown


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
    assert 1 in kb and kb.is_mirror(1)
    # De-selecting restarts the countdown.
    for _ in range(2):
        kb.end_selection_round(iter([]))
    assert not kb.is_mirror(1)
    assert kb.end_selection_round([]) == [1]


def test_set_experience_refreshes_ttl(kb):
    kb.add_node(1)
    kb.end_selection_round([])
    kb.end_selection_round([])
    kb.set_experience(1, 0.3)
    assert kb.end_selection_round([]) == []  # countdown restarted


def test_iteration_yields_node_ids(kb):
    kb.add_node(2, is_friend=True)
    kb.add_node(1)
    assert list(kb) == [2, 1]  # KB order


def test_friend_turned_stranger_restarts_its_countdown(kb):
    kb.add_node(1)
    kb.add_node(2)
    kb.end_selection_round([])
    kb.set_friend(1)  # at 2 rounds left
    for _ in range(5):
        kb.end_selection_round([])
    assert 2 not in kb and 1 in kb
    kb.set_friend(1, False)
    assert (kb.is_friend(1), kb.ttl_of(1)) == (False, 3)
    assert [kb.end_selection_round([]) for _ in range(3)] == [[], [], [1]]


def test_add_friends_is_add_node_as_friend_for_each(kb):
    kb.add_node(2)
    kb.set_experience(3, 0.4)
    kb.add_friends([5, 2, 3, 5])
    one_by_one = KnowledgeBase(owner=100)
    one_by_one.add_node(2)
    one_by_one.set_experience(3, 0.4)
    for node_id in [5, 2, 3, 5]:
        one_by_one.add_node(node_id, is_friend=True)
    assert rows(kb) == rows(one_by_one)  # nodes, order, flags, TTLs
    assert all(kb.is_friend(node_id) for node_id in kb)
    with pytest.raises(ValueError):
        kb.add_friends([7, 100])
    empty = KnowledgeBase(owner=100)
    empty.add_friends(iter([5, 2, 3, 5]))  # the one-call start-up form
    assert rows(empty) == [(5, True, 0.0, None, False), (2, True, 0.0, None, False),
                           (3, True, 0.0, None, False)]
    with pytest.raises(ValueError):
        KnowledgeBase(owner=100).add_friends([7, 100])


class RowKnowledgeBase:
    """The knowledge base kept as one mutable row per known node,
    ``[is_friend, experience, ttl, is_mirror]``: the form the per-id
    knowledge base replaced, with the same semantics, except that a friend
    turned back into a stranger restarts its countdown (the row form kept
    whatever TTL the row had)."""

    def __init__(self, owner, default_ttl):
        self.owner = owner
        self.default_ttl = default_ttl
        self.rows = {}

    def add_node(self, node_id, is_friend=False):
        if node_id == self.owner:
            raise ValueError("a node does not keep a KB entry about itself")
        row = self.rows.get(node_id)
        if row is None:
            row = self.rows[node_id] = [is_friend, 0.0, self.default_ttl, False]
        elif is_friend:
            row[0] = True
        return row

    def add_friends(self, node_ids):
        for node_id in node_ids:
            self.add_node(node_id, is_friend=True)

    def set_friend(self, node_id, is_friend=True):
        row = self.add_node(node_id)
        if row[0] and not is_friend:
            row[2] = self.default_ttl
        row[0] = is_friend

    def set_experiences(self, values):
        for node_id, experience in values:
            row = self.add_node(node_id)
            row[1] = max(0.0, min(1.0, experience))
            row[2] = self.default_ttl

    def end_selection_round(self, mirrors):
        mirror_set = set(mirrors)
        pruned = []
        for node_id, row in self.rows.items():
            row[3] = node_id in mirror_set
            if row[3]:
                row[2] = self.default_ttl
            elif not row[0]:
                row[2] -= 1
                if row[2] <= 0:
                    pruned.append(node_id)
        for node_id in pruned:
            del self.rows[node_id]
        return pruned

    def selection_view(self):
        ranked = sorted(
            ((node_id, row[1]) for node_id, row in self.rows.items() if row[1] > 0.0),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return (
            ranked,
            [node_id for node_id, row in self.rows.items() if row[0]],
            [node_id for node_id, row in self.rows.items() if row[1] == 0.0],
            list(self.rows),
        )


known_ids = st.integers(1, 12)
kb_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add_node"), known_ids, st.booleans()),
        st.tuples(st.just("add_friends"), st.lists(known_ids, max_size=5)),
        st.tuples(st.just("set_friend"), known_ids, st.booleans()),
        st.tuples(
            st.just("set_experiences"),
            st.lists(
                st.tuples(known_ids, st.sampled_from([-0.5, 0.0, 0.2, 0.5, 0.5, 1.0, 1.5])),
                max_size=4,
            ),
        ),
        st.tuples(st.just("end_selection_round"), st.lists(known_ids, max_size=3)),
    ),
    max_size=60,
)


@given(operations=kb_operations)
def test_per_id_knowledge_base_equals_the_row_per_node_model(operations):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(knowledge, "STRANGER_TTL", 2)
        _replay_against_the_row_model(operations)


def _replay_against_the_row_model(operations):
    kb = KnowledgeBase(owner=0)
    model = RowKnowledgeBase(owner=0, default_ttl=2)
    for name, *arguments in operations:
        result = getattr(kb, name)(*arguments)
        expected = getattr(model, name)(*arguments)
        if name == "end_selection_round":
            assert result == expected  # the pruned ids, in KB order
        assert kb.selection_view() == model.selection_view()
        assert list(kb.experience_values().items()) == [
            (node_id, row[1]) for node_id, row in model.rows.items()
        ]
        for node_id in range(13):
            row = model.rows.get(node_id)
            assert kb.is_friend(node_id) == (row is not None and row[0])
            assert kb.is_mirror(node_id) == (row is not None and row[3])
            assert kb.ttl_of(node_id) == (
                row[2] if row is not None and not row[0] else None
            )


def test_knowledge_bases_of_a_facebook_graph_hold_under_64_bytes_per_friendship():
    """What ``SoupSimulation.__init__`` builds per node, measured alone:
    the 4,513 knowledge bases of ``facebook`` at scale 0.05.  A row object
    per friendship took about 116 B; a dict slot takes about 51 B."""
    graph = generate_dataset("facebook", 0.05, 1)
    friend_lists = [sorted(graph.neighbors(node)) for node in range(graph.number_of_nodes())]
    friendships = sum(map(len, friend_lists))
    assert (len(friend_lists), friendships) == (4513, 2 * graph.number_of_edges())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        knowledge = []
        for node, friends in enumerate(friend_lists):
            kb = KnowledgeBase(owner=node)
            kb.add_friends(friends)
            knowledge.append(kb)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / friendships < 64, f"{held / friendships:.1f} B per friendship"
