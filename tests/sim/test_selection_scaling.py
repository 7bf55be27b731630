"""A selecting node's work must not grow with the population.

A deterministic guard (allocation sizes, no timing): on graphs of the same
degree, one ``_select_and_place`` call may allocate about the same at N and
at 8 N nodes.  It used to materialise "everyone unreachable right now" as a
set of its own three times per call, so its peak grew with N — O(N²) per
selection round, the superlinear term behind ROADMAP "Flatten the scale
curve".

A second guard counts calls: a participant's experience exchange learns
its dropping scores in one ``learn_friend_storage`` call, not one per
friend.  A third measures allocation again: the exchange hands each
friend the experience set's counts as they are, so what it allocates does
not grow with the number of mirrors the sets name.
"""

import tracemalloc

import networkx as nx

from repro.core.dropping import ReplicaStore
from repro.sim.engine import SoupSimulation
from repro.sim.scenario import ScenarioConfig

DEGREE = 6
#: Last epoch of the join day: most of the population has appeared.
EPOCH = 23


def _peak_bytes_of_one_selection(n_nodes: int) -> int:
    graph = nx.circulant_graph(n_nodes, range(1, DEGREE // 2 + 1))
    sim = SoupSimulation(graph, ScenarioConfig(n_days=1, seed=4))
    for node in sim.nodes:
        node.joined = True
    sim._col_joined[:] = True
    # What every node selecting in this epoch shares is built on first use;
    # it is not part of one node's cost.
    assert len(sim._unreachable_at(EPOCH)) > n_nodes // 4
    sim._online_flags_at(EPOCH)

    online = sim.online_matrix[:, EPOCH]
    node = next(n for n in sim.nodes if online[n.node_id] and online[n.friends].any())
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        sim._select_and_place(node, EPOCH)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert node.selected_mirrors, "the call under test selected nothing"
    return peak - before


def test_select_and_place_peak_allocation_independent_of_population():
    small = _peak_bytes_of_one_selection(500)
    large = _peak_bytes_of_one_selection(4000)
    assert large < 2 * small, (small, large)


def test_exchange_learns_dropping_scores_once_per_participant(monkeypatch):
    graph = nx.circulant_graph(120, range(1, DEGREE // 2 + 1))
    sim = SoupSimulation(graph, ScenarioConfig(n_days=2, seed=4))
    learn = ReplicaStore.learn_friend_storage
    exchange = SoupSimulation._exchange_experience
    per_exchange = []
    views = []

    def counting_learn(store, *stored_at_friends):
        per_exchange[-1] += 1
        views.append(len(stored_at_friends))
        return learn(store, *stored_at_friends)

    def counting_exchange(self, node, epoch=0):
        per_exchange.append(0)
        exchange(self, node, epoch)

    monkeypatch.setattr(ReplicaStore, "learn_friend_storage", counting_learn)
    monkeypatch.setattr(SoupSimulation, "_exchange_experience", counting_exchange)
    sim.run()
    assert max(per_exchange) == 1
    # One call per active friendship would have entered it this many times.
    assert sum(views) > 3 * sum(per_exchange), (sum(views), sum(per_exchange))


def _peak_bytes_of_one_exchange(mirrors_per_friend: int) -> int:
    graph = nx.circulant_graph(60, range(1, DEGREE // 2 + 1))
    sim = SoupSimulation(graph, ScenarioConfig(n_days=1, seed=4))
    for node in sim.nodes:
        node.joined = True
    node = sim.nodes[0]
    for friend_id in node.friends:
        es = node.experience_set_for(friend_id)
        for mirror in range(10, 10 + mirrors_per_friend):
            es.observe(mirror, True)
            es.observe(mirror, mirror % 2 == 0)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        sim._exchange_experience(node, EPOCH)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(sim.nodes[f].pending_reports for f in node.friends), "nothing was sent"
    return peak - before


def test_exchange_allocation_independent_of_mirrors_per_friend():
    two = _peak_bytes_of_one_exchange(2)
    eight = _peak_bytes_of_one_exchange(8)
    assert eight == two, (two, eight)
