"""The Holme–Kim growth behind ``generate_dataset`` is networkx's, draw for draw.

``repro.graphs.datasets._holme_kim`` replaces the per-neighbour ``has_edge``
scan of ``nx.powerlaw_cluster_graph``'s triangle step with a count and an
index map.  networkx's generator stays here as the oracle: for any small
``n``, any ``m`` in ``[1, n - 1]`` and any ``p`` in ``[0, 1]``, both must
produce the same adjacency, neighbour order included, and leave the random
stream in the same state (so the edge adjustment that follows draws the
same numbers too).
"""

import random

import networkx as nx
from hypothesis import given
from hypothesis import strategies as st

from repro.graphs.datasets import _edges, _holme_kim


@st.composite
def growth_params(draw):
    n = draw(st.integers(2, 60))
    m = draw(st.integers(1, n - 1))
    p = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, m, p, seed


@given(growth_params())
def test_growth_equals_networkx_powerlaw_cluster_graph(params):
    n, m, p, seed = params
    oracle_rng, rng = random.Random(seed), random.Random(seed)
    oracle = nx.powerlaw_cluster_graph(n, m, p, seed=oracle_rng)
    adjacency = _holme_kim(n, m, p, rng)
    assert list(oracle.nodes) == list(range(n))
    assert [list(neighbours) for neighbours in adjacency] == [
        list(oracle.adj[node]) for node in oracle.nodes
    ]
    assert list(_edges(adjacency)) == list(oracle.edges)
    assert rng.getstate() == oracle_rng.getstate()


def test_triangle_heavy_growth_equals_networkx_at_hub_degrees():
    """One larger case where every step tries a triangle and hubs have
    hundreds of neighbours, so the index map skips many positions."""
    oracle_rng, rng = random.Random(11), random.Random(11)
    oracle = nx.powerlaw_cluster_graph(1_500, 12, 0.9, seed=oracle_rng)
    adjacency = _holme_kim(1_500, 12, 0.9, rng)
    assert max(map(len, adjacency)) > 200
    assert [list(neighbours) for neighbours in adjacency] == [
        list(oracle.adj[node]) for node in oracle.nodes
    ]
    assert rng.getstate() == oracle_rng.getstate()
