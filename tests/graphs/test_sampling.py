"""Tests for graph down-sampling."""

import networkx as nx
import pytest

from repro.graphs.datasets import generate_dataset
from repro.graphs.friendship import FriendshipGraph
from repro.graphs.sampling import largest_component, sample_subgraph


def test_sample_reaches_target_size():
    graph = generate_dataset("epinions", scale=0.02, seed=0)
    sample = sample_subgraph(graph, target_nodes=300, seed=1)
    assert 150 <= sample.number_of_nodes() <= 300


def test_sample_is_connected():
    graph = generate_dataset("facebook", scale=0.01, seed=0)
    sample = sample_subgraph(graph, target_nodes=200, seed=1)
    assert nx.is_connected(sample.to_networkx())


def test_sample_preserves_hubs():
    """Random-walk sampling is hub-biased: the sample keeps high-degree
    structure a uniform node sample would destroy."""
    graph = generate_dataset("facebook", scale=0.02, seed=0)
    sample = sample_subgraph(graph, target_nodes=400, seed=1)
    sample_max = sample.degrees().max()
    sample_mean = 2 * sample.number_of_edges() / sample.number_of_nodes()
    assert sample_max > 3 * sample_mean


def test_oversized_target_returns_whole_graph():
    graph = generate_dataset("epinions", scale=0.005, seed=0)
    sample = sample_subgraph(graph, target_nodes=10**6, seed=1)
    assert sample.number_of_nodes() == largest_component(graph).number_of_nodes()


def test_deterministic_per_seed():
    graph = generate_dataset("epinions", scale=0.01, seed=0)
    a = sample_subgraph(graph, 100, seed=5)
    b = sample_subgraph(graph, 100, seed=5)
    assert set(a.edges()) == set(b.edges())


def test_invalid_target_rejected():
    graph = FriendshipGraph.from_networkx(nx.path_graph(10))
    with pytest.raises(ValueError):
        sample_subgraph(graph, 0)


def test_largest_component_relabels():
    graph = FriendshipGraph.from_networkx(nx.Graph([(0, 1), (5, 6), (6, 7)]))
    component = largest_component(graph)
    assert component.number_of_nodes() == 3
    assert set(component.nodes()) == {0, 1, 2}


def test_largest_component_of_empty_graph():
    assert largest_component(FriendshipGraph.from_edges(0, [])).number_of_nodes() == 0
