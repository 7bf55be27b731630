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

The Holme–Kim growth runs over plain adjacency dicts and reproduces
networkx's Holme–Kim generator draw for draw: the same random numbers
in the same order, the same edges, the same neighbour order.  Only the
triangle step's cost differs — O(m) per draw instead of a scan of the
target's whole adjacency — so generation costs the same per edge at any
scale (``tests/graphs/test_generation_scaling.py``), where networkx's hub
scans grew with the graph.  The growth calls ``rng._randbelow`` directly
where networkx calls ``rng.choice(seq)``: ``choice`` is
``seq[self._randbelow(len(seq))]`` on every supported Python, so the same
draw picks the same element, without a ``choice`` frame or a ``range``
per draw.  ``tests/graphs/test_holme_kim_oracle.py`` checks
the equality against networkx's generator, random state included, and
``tests/graphs/test_golden_graphs.py`` pins every order the engine reads to
digests recorded from the networkx pipeline.  ``generate_dataset`` packs the
grown adjacency into a :class:`~repro.graphs.friendship.FriendshipGraph`
(two flat integer arrays) from an edge array that numpy builds out of the
neighbour dicts, so neither the growth nor its result needs networkx, and
no tuple per edge is made.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.graphs.friendship import FriendshipGraph


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


#: Per node, its neighbours in insertion order (networkx's adjacency order),
#: each mapped to its position in that order while edges are only added.
Adjacency = List[Dict[int, int]]


def _holme_kim(n: int, m: int, p: float, rng: random.Random) -> Adjacency:
    """networkx's Holme–Kim generator over plain adjacency: the graph it
    grows from ``(n, m, p, seed)``, drawing from ``rng`` exactly what
    networkx draws from ``random.Random(seed)``.

    networkx's triangle step lists the last target's neighbours that are
    neither ``source`` nor linked to it — one ``has_edge`` per neighbour,
    so a hub costs its degree — and draws ``choice(list)``.  Here the
    eligible neighbours are counted instead: the excluded ones are
    ``source`` and the ≤ m nodes ``source`` links to, so their insertion
    positions in the target's order are known in O(m).  ``choice(seq)`` is
    ``seq[rng._randbelow(len(seq))]``, so one ``_randbelow(count)`` draws
    what ``choice(list)`` draws, and the drawn index maps to a neighbour by
    stepping over the excluded positions that precede it.
    """
    adjacency: Adjacency = [{} for _ in range(n)]
    #: order[u][i] is u's i-th neighbour: adjacency[u] read by position.
    order: List[List[int]] = [[] for _ in range(n)]
    # Every node once per incident edge, so a uniform draw is preferential.
    repeated_nodes = list(range(m))
    repeat = repeated_nodes.append
    # What ``rng.choice`` calls, bound once: the same draws, no frame each.
    randbelow = rng._randbelow
    uniform = rng.random

    for source in range(m, n):
        # networkx's _random_subset: the same set built the same way, so
        # set.pop() hands out the targets in the same order.
        targets = set()
        add_target = targets.add
        size = len(repeated_nodes)
        while len(targets) < m:
            add_target(repeated_nodes[randbelow(size)])
        linked = adjacency[source]
        source_order = order[source]
        # Each new edge is appended at both ends, as ``nx.Graph.add_edge``
        # appends it.
        target = targets.pop()
        linked[target] = len(source_order)
        source_order.append(target)
        target_neighbours = adjacency[target]
        target_neighbours[source] = len(target_neighbours)
        order[target].append(source)
        repeat(target)
        count = 1
        while count < m:
            if uniform() < p:
                target_neighbours = adjacency[target]
                excluded = sorted(
                    [target_neighbours[source]]
                    + [target_neighbours[v] for v in linked if v in target_neighbours]
                )
                eligible = len(target_neighbours) - len(excluded)
                if eligible:
                    index = randbelow(eligible)
                    for position in excluded:
                        if position > index:
                            break
                        index += 1
                    neighbour = order[target][index]
                    linked[neighbour] = len(source_order)
                    source_order.append(neighbour)
                    neighbours = adjacency[neighbour]
                    neighbours[source] = len(neighbours)
                    order[neighbour].append(source)
                    repeat(neighbour)
                    count += 1
                    continue
            target = targets.pop()
            # A target the triangle step already linked adds no edge.
            if target not in linked:
                linked[target] = len(source_order)
                source_order.append(target)
                target_neighbours = adjacency[target]
                target_neighbours[source] = len(target_neighbours)
                order[target].append(source)
            repeat(target)
            count += 1
        repeated_nodes.extend([source] * m)
    return adjacency


def _edges(adjacency: Adjacency) -> Iterator[Tuple[int, int]]:
    """``nx.Graph.edges`` order over nodes ``0..n-1``: each edge once, from
    its lower end, in that end's neighbour order."""
    for u, neighbours in enumerate(adjacency):
        for v in neighbours:
            if v > u:
                yield u, v


def _edge_array(adjacency: Adjacency) -> np.ndarray:
    """:func:`_edges` as an ``(m, 2)`` array, built from the neighbour
    lists in C: every adjacency slot as ``(node, neighbour)`` in node then
    neighbour order, and the slots seen from their lower end kept."""
    degrees = np.fromiter(map(len, adjacency), dtype=np.int64, count=len(adjacency))
    neighbours = np.fromiter(
        chain.from_iterable(adjacency), dtype=np.int32, count=int(degrees.sum())
    )
    nodes = np.repeat(np.arange(len(adjacency), dtype=np.int32), degrees)
    lower = nodes < neighbours
    return np.column_stack((nodes[lower], neighbours[lower]))


def _adjust_edge_count(
    adjacency: Adjacency, target_edges: int, rng: random.Random
) -> None:
    """Add or remove random edges until the graph has exactly the target.

    Removal never disconnects degree-1 nodes (every user keeps at least one
    friend, matching the connected crawls the paper uses).
    """
    nodes = range(len(adjacency))
    edge_count = sum(map(len, adjacency)) // 2
    while edge_count < target_edges:
        u, v = rng.sample(nodes, 2)
        if v not in adjacency[u]:
            adjacency[u][v] = len(adjacency[u])
            adjacency[v][u] = len(adjacency[v])
            edge_count += 1
    if edge_count > target_edges:
        removable = [
            (u, v)
            for u, v in _edges(adjacency)
            if len(adjacency[u]) > 1 and len(adjacency[v]) > 1
        ]
        rng.shuffle(removable)
        for u, v in removable:
            if edge_count <= target_edges:
                break
            if len(adjacency[u]) > 1 and len(adjacency[v]) > 1:
                del adjacency[u][v]
                del adjacency[v][u]
                edge_count -= 1


def generate_dataset(name: str, scale: float = 1.0, seed: int = 0) -> FriendshipGraph:
    """Generate the synthetic graph for dataset ``name`` at ``scale``.

    Nodes are the contiguous integers ``0..n-1``; the graph carries
    ``graph.graph["dataset"]`` / ``["scale"]`` metadata.
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
    growth_rng = random.Random(rng.randrange(2**32))
    adjacency = _holme_kim(n, m, spec.triangle_probability, growth_rng)
    _adjust_edge_count(adjacency, target_edges, rng)

    # Edges in ``edges`` order, each appended at both ends: the node, edge
    # and neighbour orders networkx's relabelled copy of the graph had.
    edges = _edge_array(adjacency)
    # The dicts go before packing allocates, so the two never peak together.
    del adjacency
    return FriendshipGraph.from_edges(
        n, edges, graph={"dataset": spec.name, "scale": scale}
    )


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
