"""Tests for the edge-list loader."""

import gzip
import random

import networkx as nx
import pytest

from repro.graphs.friendship import FriendshipGraph
from repro.graphs.loader import load_edge_list


def test_load_plain_edge_list(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# comment line\n0 1\n1 2\n2 0\n")
    graph = load_edge_list(path)
    assert graph.number_of_nodes() == 3
    assert graph.number_of_edges() == 3


def test_load_gzipped_edge_list(tmp_path):
    path = tmp_path / "edges.txt.gz"
    with gzip.open(path, "wt") as handle:
        handle.write("0 1\n1 2\n")
    graph = load_edge_list(path)
    assert graph.number_of_edges() == 2


def test_directed_edges_symmetrized(tmp_path):
    path = tmp_path / "trust.txt"
    path.write_text("0 1\n1 0\n")  # both directions collapse to one edge
    graph = load_edge_list(path)
    assert graph.number_of_edges() == 1


def test_self_loops_dropped(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 0\n0 1\n")
    graph = load_edge_list(path)
    assert graph.number_of_edges() == 1


def test_relabeled_to_contiguous_integers(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("1000 2000\n2000 50\n")
    graph = load_edge_list(path)
    assert set(graph.nodes()) == {0, 1, 2}


def test_same_graph_as_the_networkx_loader(tmp_path):
    """Repeats, reversed repeats and self-loops included, the graph equals
    the one ``add_edge`` + ``convert_node_labels_to_integers`` built."""
    rng = random.Random(5)
    lines = [(rng.randrange(1000, 1030), rng.randrange(1000, 1030)) for _ in range(200)]
    path = tmp_path / "edges.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in lines))
    oracle = nx.Graph()
    for u, v in lines:
        if u != v:
            oracle.add_edge(u, v)
    oracle = nx.convert_node_labels_to_integers(oracle)
    oracle.graph.update(dataset="edges", scale=1.0)
    assert load_edge_list(path) == FriendshipGraph.from_networkx(oracle)


def test_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        load_edge_list("/nonexistent/file.txt")


def test_malformed_line_raises(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("justonetoken\n")
    with pytest.raises(ValueError):
        load_edge_list(path)
