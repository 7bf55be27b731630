"""``FriendshipGraph`` reads as the networkx ``Graph`` built from the same edges.

networkx is the oracle: for any simple edge stream, the graph
``add_nodes_from(range(n))`` + ``add_edges_from(stream)`` builds must have
the same node count, edge count, degrees, neighbour orders and ``edges``
order as ``FriendshipGraph.from_edges(n, stream)``, and converting either
way must lose nothing.  A tracemalloc guard pins what the type is for: a
``sim_scale``-sized graph held in under 2 MB (13.6 MB as networkx dicts).
"""

import gc
import pickle
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graphs.datasets import generate_dataset
from repro.graphs.friendship import FriendshipGraph


@st.composite
def edge_streams(draw):
    """``(n, edges)``: a simple graph's edges in any order and orientation."""
    n = draw(st.integers(0, 25))
    if n < 2:
        return n, []
    node = st.integers(0, n - 1)
    edge = st.tuples(node, node).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(edge, unique_by=frozenset, max_size=80))
    return n, edges


def _networkx(n, edges):
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return graph


def _reads(graph):
    """Everything the simulator and the golden digests read of a graph."""
    if isinstance(graph, FriendshipGraph):
        return (
            graph.number_of_nodes(),
            graph.number_of_edges(),
            list(graph.nodes()),
            [graph.neighbors(node) for node in graph.nodes()],
            list(graph.edges()),
            graph.degrees().tolist(),
            graph.graph,
        )
    return (
        graph.number_of_nodes(),
        graph.number_of_edges(),
        list(graph.nodes),
        [list(graph.neighbors(node)) for node in graph.nodes],
        list(graph.edges),
        [degree for _, degree in graph.degree()],
        graph.graph,
    )


@given(edge_streams())
def test_every_read_equals_networkx(stream):
    n, edges = stream
    assert _reads(FriendshipGraph.from_edges(n, edges)) == _reads(_networkx(n, edges))


@given(edge_streams(), st.sampled_from([np.int32, np.int64, np.uint32]))
def test_from_edges_reads_an_edge_array_as_its_pairs(stream, dtype):
    n, edges = stream
    array = np.array(edges, dtype=dtype).reshape(-1, 2)
    assert FriendshipGraph.from_edges(n, array) == FriendshipGraph.from_edges(n, edges)


@given(edge_streams())
def test_sorted_neighbor_lists_sort_every_row(stream):
    n, edges = stream
    graph = FriendshipGraph.from_edges(n, edges)
    lists = graph.sorted_neighbor_lists()
    assert lists == [sorted(graph.neighbors(node)) for node in graph.nodes()]


def test_sorted_neighbor_lists_hold_one_int_object_per_node():
    """Ids above 256 are not cached by the interpreter: each must still be
    one object, however many lists it appears in."""
    lists = generate_dataset("facebook", scale=0.004, seed=3).sorted_neighbor_lists()
    friends = [friend for row in lists for friend in row]
    assert max(friends) > 256
    assert len({id(friend) for friend in friends}) == len(set(friends))


@given(edge_streams())
def test_to_networkx_and_back_round_trips(stream):
    n, edges = stream
    graph = FriendshipGraph.from_edges(n, edges, graph={"dataset": "stream"})
    converted = graph.to_networkx()
    oracle = _networkx(n, edges)
    oracle.graph["dataset"] = "stream"
    assert _reads(converted) == _reads(oracle)
    assert FriendshipGraph.from_networkx(converted) == graph


@given(edge_streams(), st.data())
def test_from_networkx_keeps_orders_after_removals(stream, data):
    """Removing an edge and adding it back moves it to the end of both
    lists; every order networkx can reach still converts exactly."""
    n, edges = stream
    oracle = _networkx(n, edges)
    moved = st.lists(st.sampled_from(edges), max_size=10) if edges else st.just([])
    for u, v in data.draw(moved):
        oracle.remove_edge(u, v)
        oracle.add_edge(v, u)
    graph = FriendshipGraph.from_networkx(oracle)
    assert _reads(graph) == _reads(oracle)
    assert _reads(graph.to_networkx()) == _reads(oracle)


def test_from_networkx_relabels_in_node_order():
    graph = FriendshipGraph.from_networkx(nx.Graph([("b", "a"), ("c", "b")]))
    assert list(graph.edges()) == [(0, 1), (0, 2)]
    assert graph.neighbors(0) == [1, 2]


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 0)], "self-loop"),
        ([(0, 1), (1, 0)], "twice"),
        ([(0, 1), (0, 1)], "twice"),
        ([(0, 3)], "outside"),
        ([(-1, 0)], "outside"),
    ],
)
def test_from_edges_rejects_what_is_not_a_simple_graph(edges, message):
    with pytest.raises(ValueError, match=message):
        FriendshipGraph.from_edges(3, edges)


@pytest.mark.parametrize(
    "array",
    [np.zeros((2, 3), dtype=np.int32), np.zeros(4, dtype=np.int32), np.zeros((2, 2))],
)
def test_from_edges_rejects_an_array_that_is_not_pairs_of_integers(array):
    with pytest.raises(ValueError, match="edge array"):
        FriendshipGraph.from_edges(3, array)


def test_from_networkx_rejects_directed_and_self_loops():
    with pytest.raises(TypeError):
        FriendshipGraph.from_networkx(nx.DiGraph([(0, 1)]))
    with pytest.raises(ValueError, match="self-loop"):
        FriendshipGraph.from_networkx(nx.Graph([(0, 0)]))


def test_unknown_node_raises():
    graph = FriendshipGraph.from_edges(2, [(0, 1)])
    for node in (-1, 2):
        with pytest.raises(KeyError):
            graph.neighbors(node)


def test_arrays_are_read_only_also_after_pickling():
    graph = FriendshipGraph.from_edges(2, [(0, 1)], graph={"dataset": "pair"})
    copy = pickle.loads(pickle.dumps(graph))
    assert copy == graph
    for held in (graph, copy):
        with pytest.raises(ValueError):
            held.targets[0] = 1
        with pytest.raises(ValueError):
            held.offsets[0] = 1


def test_sim_scale_graph_is_held_in_under_2_mb():
    """The ``sim_scale`` graph (4,513 nodes, 91,167 edges) costs 13.6 MB
    as networkx dicts; its two arrays cost 0.74 MB."""
    generate_dataset("facebook", scale=0.004, seed=1)  # first-call imports
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = generate_dataset("facebook", scale=0.05, seed=1)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert graph.number_of_nodes() == 4_513
    assert held < 2_000_000, held
