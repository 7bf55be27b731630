"""Tests for graph statistics."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graphs.datasets import generate_dataset
from repro.graphs.friendship import FriendshipGraph
from repro.graphs.stats import degree_ccdf, graph_stats


def test_stats_on_known_graph():
    graph = FriendshipGraph.from_networkx(nx.complete_graph(5))
    stats = graph_stats(graph)
    assert stats.nodes == 5
    assert stats.edges == 10
    assert stats.average_degree == 4.0
    assert stats.median_degree == 4.0
    assert stats.max_degree == 4
    assert stats.degree_gini == pytest.approx(0.0, abs=1e-9)
    assert stats.clustering_sample == 1.0


def test_gini_detects_heterogeneity():
    star = graph_stats(FriendshipGraph.from_networkx(nx.star_graph(20)))
    ring = graph_stats(FriendshipGraph.from_networkx(nx.cycle_graph(21)))
    assert star.degree_gini > ring.degree_gini


def test_as_row_matches_table3_view():
    graph = FriendshipGraph.from_networkx(nx.complete_graph(4))
    assert graph_stats(graph).as_row() == (4, 6, 3.0)


def test_clustering_sampled_for_large_graphs():
    graph = generate_dataset("epinions", scale=0.02, seed=0)
    stats = graph_stats(graph, clustering_sample_size=100, seed=1)
    assert 0.0 <= stats.clustering_sample <= 1.0
    nodes = np.random.default_rng(1).choice(
        np.arange(graph.number_of_nodes()), size=100, replace=False
    )
    expected = nx.average_clustering(graph.to_networkx(), nodes=list(nodes))
    assert stats.clustering_sample == expected


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 24))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    drawn = draw(st.lists(pairs, max_size=4 * n))
    edges = list(dict.fromkeys((min(e), max(e)) for e in drawn if e[0] != e[1]))
    return FriendshipGraph.from_edges(n, edges)


@given(graph=graphs(), sample_size=st.integers(1, 30), seed=st.integers(0, 3))
def test_clustering_equals_networkx_average_clustering(graph, sample_size, seed):
    """The same sample draw, per-node values and summation order as
    networkx: equal to the last bit, with a sample and without one."""
    n = graph.number_of_nodes()
    reference = graph.to_networkx()
    if n > sample_size:
        nodes = np.random.default_rng(seed).choice(
            np.arange(n), size=sample_size, replace=False
        )
        expected = nx.average_clustering(reference, nodes=list(nodes))
    else:
        expected = nx.average_clustering(reference)
    stats = graph_stats(graph, clustering_sample_size=sample_size, seed=seed)
    assert stats.clustering_sample == expected


def test_degree_ccdf_monotone():
    graph = generate_dataset("epinions", scale=0.005, seed=0)
    ccdf = degree_ccdf(graph)
    fractions = [f for _, f in ccdf]
    assert fractions == sorted(fractions, reverse=True)
    assert fractions[0] == 1.0


def test_degree_ccdf_empty_graph():
    assert degree_ccdf(FriendshipGraph.from_edges(0, [])) == []
