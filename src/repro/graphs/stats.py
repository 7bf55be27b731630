"""Graph statistics used for dataset validation and reporting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

from repro.graphs.friendship import FriendshipGraph


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a friendship graph."""

    nodes: int
    edges: int
    average_degree: float
    median_degree: float
    max_degree: int
    degree_gini: float
    clustering_sample: float

    def as_row(self) -> Tuple[int, int, float]:
        """The Table-3 view: (nodes, edges, average degree)."""
        return (self.nodes, self.edges, round(self.average_degree, 2))


def _gini(values: np.ndarray) -> float:
    """Gini coefficient — our scalar proxy for degree heavy-tailedness."""
    if len(values) == 0:
        return 0.0
    sorted_values = np.sort(values.astype(float))
    n = len(sorted_values)
    cumulative = np.cumsum(sorted_values)
    if cumulative[-1] == 0:
        return 0.0
    return float((n + 1 - 2 * np.sum(cumulative) / cumulative[-1]) / n)


def _clustering(graph: FriendshipGraph, nodes: Iterable[int]) -> float:
    """networkx's ``average_clustering(graph, nodes)``, read off the CSR
    arrays: the same per-node values, summed in the same order.

    A node's value is ``t / (d (d - 1))``, where ``t`` counts each
    triangle through it twice: once from each of its two other corners,
    as a neighbour whose own friends include the third corner.
    """
    offsets, targets = graph.offsets, graph.targets
    is_friend = np.zeros(graph.number_of_nodes(), dtype=bool)
    values = []
    for node in nodes:
        friends = targets[offsets[node] : offsets[node + 1]]
        degree = len(friends)
        starts = offsets[friends]
        lengths = offsets[friends + 1] - starts
        # Every friend's own friend list, end to end.
        shifts = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        second = targets[np.arange(int(lengths.sum())) + shifts]
        is_friend[friends] = True
        triangles = int(np.count_nonzero(is_friend[second]))
        is_friend[friends] = False
        values.append(0 if triangles == 0 else triangles / (degree * (degree - 1)))
    return sum(values) / len(values)


def graph_stats(
    graph: FriendshipGraph, clustering_sample_size: int = 500, seed: int = 0
) -> GraphStats:
    """Compute :class:`GraphStats`; clustering is estimated on a node sample
    because exact clustering on 90k-node graphs is needlessly slow."""
    degrees = graph.degrees()
    rng = np.random.default_rng(seed)
    clustering = 0.0
    n = graph.number_of_nodes()
    if n > clustering_sample_size:
        sample_nodes = rng.choice(np.arange(n), size=clustering_sample_size, replace=False)
        clustering = _clustering(graph, sample_nodes.tolist())
    elif n > 0:
        clustering = _clustering(graph, range(n))
    return GraphStats(
        nodes=graph.number_of_nodes(),
        edges=graph.number_of_edges(),
        average_degree=float(degrees.mean()) if len(degrees) else 0.0,
        median_degree=float(np.median(degrees)) if len(degrees) else 0.0,
        max_degree=int(degrees.max()) if len(degrees) else 0,
        degree_gini=_gini(degrees),
        clustering_sample=float(clustering),
    )


def degree_ccdf(graph: FriendshipGraph) -> List[Tuple[int, float]]:
    """Complementary CDF of the degree distribution, for tail inspection."""
    degrees = sorted(graph.degrees().tolist(), reverse=True)
    n = len(degrees)
    if n == 0:
        return []
    ccdf = []
    unique = sorted(set(degrees))
    degrees_array = np.array(degrees)
    for k in unique:
        ccdf.append((k, float(np.mean(degrees_array >= k))))
    return ccdf
