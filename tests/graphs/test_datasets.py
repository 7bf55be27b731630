"""Tests for the synthetic dataset generators (Table 3)."""

import pytest

from repro.graphs import datasets
from repro.graphs.datasets import (
    DATASET_SPECS,
    generate_dataset,
    table3_rows,
)


def test_specs_match_table3():
    assert DATASET_SPECS["facebook"].nodes == 90_269
    assert DATASET_SPECS["facebook"].edges == 3_646_662
    assert DATASET_SPECS["epinions"].nodes == 75_879
    assert DATASET_SPECS["epinions"].edges == 508_837
    assert DATASET_SPECS["slashdot"].nodes == 82_169
    assert DATASET_SPECS["slashdot"].edges == 948_464


def test_average_degrees_match_table3():
    assert DATASET_SPECS["facebook"].average_degree == pytest.approx(40.40, abs=0.01)
    assert DATASET_SPECS["epinions"].average_degree == pytest.approx(6.71, abs=0.01)
    assert DATASET_SPECS["slashdot"].average_degree == pytest.approx(11.54, abs=0.01)


@pytest.mark.parametrize("name", sorted(DATASET_SPECS))
def test_generated_graph_matches_scaled_counts(name):
    spec = DATASET_SPECS[name]
    graph = generate_dataset(name, scale=0.01, seed=3)
    assert graph.number_of_nodes() == round(spec.nodes * 0.01)
    assert graph.number_of_edges() == round(spec.undirected_edges * 0.01)


def test_degree_heterogeneity_preserved():
    """Epinions must be much sparser than Facebook (the paper's reason for
    choosing it: 17 % of Facebook's average degree)."""
    fb = generate_dataset("facebook", scale=0.01, seed=0)
    ep = generate_dataset("epinions", scale=0.01, seed=0)
    fb_deg = 2 * fb.number_of_edges() / fb.number_of_nodes()
    ep_deg = 2 * ep.number_of_edges() / ep.number_of_nodes()
    assert ep_deg / fb_deg == pytest.approx(6.71 / 40.40, rel=0.15)


def test_heavy_tailed_degrees():
    graph = generate_dataset("facebook", scale=0.01, seed=1)
    degrees = sorted(graph.degrees().tolist(), reverse=True)
    # Hubs exist: the max degree is far above the mean.
    mean = sum(degrees) / len(degrees)
    assert degrees[0] > 4 * mean


def test_deterministic_per_seed():
    a = generate_dataset("epinions", scale=0.005, seed=9)
    b = generate_dataset("epinions", scale=0.005, seed=9)
    assert set(a.edges()) == set(b.edges())
    c = generate_dataset("epinions", scale=0.005, seed=10)
    assert set(a.edges()) != set(c.edges())


def test_metadata_attached():
    graph = generate_dataset("slashdot", scale=0.005, seed=0)
    assert graph.graph["dataset"] == "slashdot"
    assert graph.graph["scale"] == 0.005


def test_no_isolated_nodes_from_trimming(monkeypatch):
    """Slashdot's Holme–Kim graph (m = 6, up to 6(n - 6) edges) overshoots
    the Table-3 target, so ``_adjust_edge_count`` trims; Epinions' (m = 3)
    falls short and is only topped up."""
    counts = []
    adjust = datasets._adjust_edge_count

    def spy(adjacency, target_edges, rng):
        before = sum(map(len, adjacency)) // 2
        adjust(adjacency, target_edges, rng)
        counts.append((before, sum(map(len, adjacency)) // 2, target_edges))

    monkeypatch.setattr(datasets, "_adjust_edge_count", spy)
    graph = generate_dataset("slashdot", scale=0.01, seed=2)
    [(before, after, target)] = counts
    assert before > after == target == graph.number_of_edges()
    assert graph.degrees().min() >= 1


def test_unknown_dataset_rejected():
    with pytest.raises(KeyError):
        generate_dataset("myspace")


def test_invalid_scale_rejected():
    with pytest.raises(ValueError):
        generate_dataset("facebook", scale=0.0)
    with pytest.raises(ValueError):
        generate_dataset("facebook", scale=1.5)


def test_table3_rows_full_scale():
    rows = table3_rows(scale=1.0)
    by_name = {row[0]: row for row in rows}
    assert by_name["facebook"] == ("facebook", 90_269, 3_646_662, 40.40)
    assert by_name["epinions"][3] == 6.71


def test_table3_rows_scaled_measures_generated_graphs():
    rows = table3_rows(scale=0.01, seed=1)
    by_name = {row[0]: row for row in rows}
    # Directed-edge convention: reported degree ~ the full-scale value.
    assert by_name["facebook"][3] == pytest.approx(40.4, rel=0.05)
    assert by_name["epinions"][3] == pytest.approx(6.71, rel=0.1)
