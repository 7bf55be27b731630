"""Graph down-sampling for laptop-scale experiment runs.

Random-node induced subgraphs destroy the degree distribution's tail, so
:func:`sample_subgraph` uses a random-walk (respondent-driven) sampler that
preferentially keeps hubs, preserving the heavy-tailed shape the mirror
selection exploits.  All samples are reduced to their largest connected
component so every node can learn about others through contacts.

Components and induced subgraphs are networkx's, on the graph's
:meth:`~repro.graphs.friendship.FriendshipGraph.to_networkx` copy.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.graphs.friendship import FriendshipGraph

if TYPE_CHECKING:
    import networkx as nx


def _largest_component(graph: nx.Graph) -> FriendshipGraph:
    import networkx as nx

    component = max(nx.connected_components(graph), key=len)
    sub = nx.convert_node_labels_to_integers(graph.subgraph(component).copy())
    return FriendshipGraph.from_networkx(sub)


def largest_component(graph: FriendshipGraph) -> FriendshipGraph:
    """The induced subgraph on the largest connected component, relabeled."""
    if graph.number_of_nodes() == 0:
        return FriendshipGraph.from_edges(0, [], graph=dict(graph.graph))
    return _largest_component(graph.to_networkx())


def sample_subgraph(
    graph: FriendshipGraph,
    target_nodes: int,
    seed: int = 0,
    restart_probability: float = 0.15,
) -> FriendshipGraph:
    """Random-walk sample of ``target_nodes`` nodes from ``graph``.

    A walk with restarts visits nodes proportionally to degree (hub-biased),
    collecting distinct nodes until the target is reached; the induced
    subgraph's largest component is returned.  Deterministic for a fixed
    ``seed``.
    """
    if target_nodes <= 0:
        raise ValueError(f"target_nodes must be positive, got {target_nodes}")
    if target_nodes >= graph.number_of_nodes():
        return largest_component(graph)

    rng = random.Random(seed)
    nodes = graph.nodes()
    start = rng.choice(nodes)
    visited = {start}
    current = start
    stall_budget = 50 * target_nodes  # bail out on pathological graphs
    steps = 0
    while len(visited) < target_nodes and steps < stall_budget:
        steps += 1
        neighbors = graph.neighbors(current)
        if not neighbors or rng.random() < restart_probability:
            current = rng.choice(nodes)
        else:
            current = rng.choice(neighbors)
        visited.add(current)

    sample = graph.to_networkx().subgraph(visited).copy()
    sample.graph["sampled_from"] = graph.number_of_nodes()
    return _largest_component(sample)
