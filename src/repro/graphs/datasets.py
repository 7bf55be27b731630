"""Synthetic stand-ins for the paper's three evaluation datasets.

Table 3 of the paper:

========== ======== =========== ===========
Dataset    Nodes    Edges       Avg. degree
========== ======== =========== ===========
Facebook   90,269   3,646,662   40.40
Epinions   75,879     508,837    6.71
Slashdot   82,169     948,464   11.54
========== ======== =========== ===========

Table 3 follows the SNAP convention of counting *directed* edges: the
average degree column equals ``edges / nodes`` (e.g. 508,837 / 75,879 =
6.71), and friendship being mutual means each social link contributes two
directed edges.  The simulator works on undirected friendship graphs, so the
generators target ``edges / 2`` undirected links — giving every node the
Table-3 average *friend count* — via the Holme–Kim power-law cluster model,
then top up / trim random edges to hit the exact target.  ``scale`` shrinks
both counts proportionally (average degree is preserved), which is how the
default benchmarks stay laptop-sized; ``scale=1.0`` regenerates the
full-size graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

import networkx as nx
import numpy as np


@dataclass(frozen=True)
class DatasetSpec:
    """Shape of one evaluation dataset."""

    name: str
    nodes: int
    #: Directed edge count as published in Table 3 (SNAP convention).
    edges: int
    #: Triangle-closure probability for the Holme-Kim generator; higher for
    #: the friendship graph (Facebook) than for the trust/interaction graphs.
    triangle_probability: float

    @property
    def average_degree(self) -> float:
        """Table 3's average degree: directed edges per node (= friend count)."""
        return self.edges / self.nodes

    @property
    def undirected_edges(self) -> int:
        """The number of mutual friendship links the generator targets."""
        return self.edges // 2


DATASET_SPECS: Dict[str, DatasetSpec] = {
    "facebook": DatasetSpec("facebook", 90_269, 3_646_662, 0.30),
    "epinions": DatasetSpec("epinions", 75_879, 508_837, 0.10),
    "slashdot": DatasetSpec("slashdot", 82_169, 948_464, 0.10),
}


def _adjust_edge_count(graph: nx.Graph, target_edges: int, rng: random.Random) -> None:
    """Add or remove random edges until the graph has exactly the target.

    Removal never disconnects degree-1 nodes (every user keeps at least one
    friend, matching the connected crawls the paper uses).
    """
    nodes = list(graph.nodes)
    # Track the edge count locally: graph.number_of_edges() is O(E) in
    # networkx, which made this loop quadratic at full WOSN scale
    # (3.6M edges).  The RNG draw sequence is unchanged.
    edge_count = graph.number_of_edges()
    while edge_count < target_edges:
        u, v = rng.sample(nodes, 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
            edge_count += 1
    if edge_count > target_edges:
        removable = [
            (u, v)
            for u, v in graph.edges
            if graph.degree[u] > 1 and graph.degree[v] > 1
        ]
        rng.shuffle(removable)
        for u, v in removable:
            if edge_count <= target_edges:
                break
            if graph.degree[u] > 1 and graph.degree[v] > 1:
                graph.remove_edge(u, v)
                edge_count -= 1


def generate_dataset(name: str, scale: float = 1.0, seed: int = 0) -> nx.Graph:
    """Generate the synthetic graph for dataset ``name`` at ``scale``.

    The result is relabeled to contiguous integer node ids ``0..n-1`` and
    carries ``graph.graph["dataset"]`` / ``["scale"]`` metadata.
    """
    spec = DATASET_SPECS.get(name)
    if spec is None:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(DATASET_SPECS)}"
        )
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")

    n = max(20, round(spec.nodes * scale))
    target_edges = max(n, round(spec.undirected_edges * scale))
    # Holme-Kim attaches m edges per new node, so total edges ~ m * n:
    # m ~ undirected average degree / 2 = Table-3 average degree / 2.
    m = max(1, min(n - 1, round(spec.average_degree / 2.0)))

    rng = random.Random(seed)
    graph = nx.powerlaw_cluster_graph(
        n=n, m=m, p=spec.triangle_probability, seed=rng.randrange(2**32)
    )
    _adjust_edge_count(graph, target_edges, rng)

    graph = nx.convert_node_labels_to_integers(graph)
    graph.graph["dataset"] = spec.name
    graph.graph["scale"] = scale
    return graph


def generate_scale_free(
    n: int, avg_degree: float = 12.0, seed: int = 0
) -> np.ndarray:
    """Deterministic Barabási–Albert scale-free edge list.

    The Table-3 generators go through networkx's Holme–Kim model, whose
    per-node Python objects cap out far below the roadmap's 1M-node
    target.  This generator keeps pure preferential attachment but works
    on preallocated int64 arrays — ~16 bytes per edge, no graph objects —
    so a million-node graph is a seconds-scale operation
    (``benchmarks/test_microbenchmarks.py`` tracks the rate).

    Returns an ``(E, 2)`` int64 array of undirected edges over nodes
    ``0..n-1``; every new node attaches ``m = round(avg_degree / 2)``
    edges to endpoints sampled proportionally to their current degree.
    Same ``(n, avg_degree, seed)`` → byte-identical edge array.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if avg_degree <= 0:
        raise ValueError(f"avg_degree must be positive, got {avg_degree}")
    m = max(1, min(n - 1, round(avg_degree / 2.0)))
    rng = random.Random(seed)

    n_new = n - m
    edges = np.empty((m * n_new, 2), dtype=np.int64)
    #: Flat endpoint pool: every edge contributes both endpoints, so a
    #: uniform draw from the pool IS degree-proportional sampling.
    pool = np.empty(2 * m * n_new, dtype=np.int64)
    targets = np.arange(m, dtype=np.int64)
    pool_len = 0
    edge_count = 0
    for source in range(m, n):
        edges[edge_count : edge_count + m, 0] = source
        edges[edge_count : edge_count + m, 1] = targets
        edge_count += m
        pool[pool_len : pool_len + m] = targets
        pool_len += m
        pool[pool_len : pool_len + m] = source
        pool_len += m
        if source + 1 == n:
            break
        chosen: set = set()
        while len(chosen) < m:
            chosen.add(int(pool[rng.randrange(pool_len)]))
        # Sorted for determinism: set iteration order is hash-dependent.
        targets = np.fromiter(sorted(chosen), dtype=np.int64, count=m)
    return edges[:edge_count]


def table3_rows(scale: float = 1.0, seed: int = 0) -> List[Tuple[str, int, int, float]]:
    """Regenerate Table 3: (dataset, nodes, edges, average degree).

    Edge counts and average degrees follow the paper's directed-edge
    convention (edges = 2 × mutual links; average degree = edges / nodes).
    At ``scale=1.0`` the spec numbers are reported directly (the generators
    hit them by construction); at smaller scales the generated graphs are
    measured so the row reflects what the experiments actually use.
    """
    rows = []
    for name, spec in sorted(DATASET_SPECS.items()):
        if scale == 1.0:
            rows.append((spec.name, spec.nodes, spec.edges, round(spec.average_degree, 2)))
        else:
            graph = generate_dataset(name, scale=scale, seed=seed)
            directed_edges = 2 * graph.number_of_edges()
            rows.append(
                (
                    spec.name,
                    graph.number_of_nodes(),
                    directed_edges,
                    round(directed_edges / graph.number_of_nodes(), 2),
                )
            )
    return rows
