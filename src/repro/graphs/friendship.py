"""The friendship graph the simulator reads: two flat integer arrays.

The simulator asks a graph for two things only, its node count and each
node's friends.  A networkx ``Graph`` answers them from a dict per node
and a dict per edge end — about 156 bytes per edge, 13.6 MB for the
91,167 edges of ``facebook`` at ``scale=0.05`` — and importing networkx
costs a process 18 MB before it builds anything.  :class:`FriendshipGraph`
keeps the adjacency in compressed sparse row form over nodes ``0..n-1``:
node ``u``'s friends are ``targets[offsets[u]:offsets[u + 1]]``, 4 bytes
per edge end (0.74 MB for the graph above).

Every order reads as networkx's does.  :meth:`FriendshipGraph.from_edges`
appends each edge at both of its ends, as ``Graph.add_edges_from`` does,
so a neighbour list keeps the order its edges arrived in, and
:meth:`~FriendshipGraph.edges` lists each edge once, from its lower end,
as ``Graph.edges`` does.  networkx is imported only by
:meth:`~FriendshipGraph.to_networkx` and
:meth:`~FriendshipGraph.from_networkx`, for the analyses that run one of
its algorithms and for tests.
"""

from __future__ import annotations

from itertools import chain
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:
    import networkx as nx


class FriendshipGraph:
    """An undirected simple graph over nodes ``0..n-1`` in CSR form.

    ``offsets`` (``n + 1`` int64) and ``targets`` (``2 m`` int32) are
    read-only; ``graph`` is the metadata dict (networkx's ``Graph.graph``).
    Build one with :meth:`from_edges` or :meth:`from_networkx`.
    """

    __slots__ = ("offsets", "targets", "graph")

    def __init__(
        self, offsets: np.ndarray, targets: np.ndarray, graph: Optional[Dict] = None
    ) -> None:
        offsets.flags.writeable = False
        targets.flags.writeable = False
        self.offsets = offsets
        self.targets = targets
        self.graph: Dict = {} if graph is None else graph

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Union[np.ndarray, Iterable[Tuple[int, int]]],
        graph: Optional[Dict] = None,
    ) -> FriendshipGraph:
        """The graph ``add_nodes_from(range(n))`` + ``add_edges_from(edges)``
        builds in networkx.  ``edges`` is an iterable of pairs or an
        ``(m, 2)`` integer array of them, and must be simple: no self-loop
        and no edge twice, in either direction."""
        if n < 0:
            raise ValueError(f"node count must be non-negative, got {n}")
        if isinstance(edges, np.ndarray):
            if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
                raise ValueError(
                    f"an edge array holds (m, 2) integers, not {edges.dtype} {edges.shape}"
                )
            pairs = edges
        else:
            pairs = np.fromiter(chain.from_iterable(edges), dtype=np.int64).reshape(-1, 2)
        if len(pairs):
            if pairs.min() < 0 or pairs.max() >= n:
                raise ValueError(f"an edge end lies outside 0..{n - 1}")
            low, high = pairs.min(axis=1), pairs.max(axis=1)
            if (low == high).any():
                raise ValueError("a self-loop is not a friendship")
            keys = np.sort(low.astype(np.int64) * n + high)
            if (keys[1:] == keys[:-1]).any():
                raise ValueError("an edge appears twice")
        # Edge k is listed at its first end (entry 2k) and at its second
        # (entry 2k + 1); a stable sort by the listing node keeps each
        # node's entries in the order their edges arrived.
        listed_at = pairs.ravel()
        order = np.argsort(listed_at, kind="stable")
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(listed_at, minlength=n), out=offsets[1:])
        targets = pairs[:, ::-1].ravel()[order].astype(np.int32, copy=False)
        return cls(offsets, targets, graph)

    @classmethod
    def from_networkx(cls, graph: nx.Graph) -> FriendshipGraph:
        """``graph`` relabelled ``0..n-1`` in its node order, every
        neighbour order and a copy of ``graph.graph`` kept."""
        if graph.is_directed() or graph.is_multigraph():
            raise TypeError("a friendship graph is undirected and simple")
        adjacency = graph.adj
        if any(node in adjacency[node] for node in graph):
            raise ValueError("a self-loop is not a friendship")
        index = {node: i for i, node in enumerate(graph)}
        degrees = np.fromiter(
            (len(adjacency[node]) for node in graph), dtype=np.int64, count=len(index)
        )
        offsets = np.zeros(len(index) + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        targets = np.fromiter(
            (index[friend] for node in graph for friend in adjacency[node]),
            dtype=np.int32,
            count=int(offsets[-1]),
        )
        return cls(offsets, targets, dict(graph.graph))

    def to_networkx(self) -> nx.Graph:
        """The networkx ``Graph`` with these nodes, these neighbour orders
        (hence this ``edges`` order) and a copy of :attr:`graph`."""
        import networkx as nx

        result = nx.Graph()
        result.graph.update(self.graph)
        result.add_nodes_from(self.nodes())
        result.add_edges_from(self._insertion_order())
        return result

    def _insertion_order(self) -> List[Tuple[int, int]]:
        """An edge order that rebuilds every neighbour list when each edge
        is appended at both of its ends.

        An edge can go next once it heads what is left of both its ends'
        lists.  Lists built by appending always admit such an order (the
        one they were built in), so a node is looked at again only when its
        head moves, and the walk is linear in the edges.
        """
        lists = [self.neighbors(node) for node in self.nodes()]
        heads = [0] * len(lists)
        order: List[Tuple[int, int]] = []
        pending = list(self.nodes())
        while pending:
            u = pending.pop()
            if heads[u] == len(lists[u]):
                continue
            v = lists[u][heads[u]]
            if lists[v][heads[v]] != u:
                continue
            order.append((u, v))
            heads[u] += 1
            heads[v] += 1
            pending += (u, v)
        if len(order) != self.number_of_edges():
            raise ValueError("no edge order builds these neighbour lists")
        return order

    def number_of_nodes(self) -> int:
        return len(self.offsets) - 1

    def number_of_edges(self) -> int:
        return len(self.targets) // 2

    def nodes(self) -> range:
        return range(self.number_of_nodes())

    def neighbors(self, node: int) -> List[int]:
        """``node``'s friends, in the order their edges were added."""
        if not 0 <= node < self.number_of_nodes():
            raise KeyError(f"node {node} is not in the graph")
        offsets = self.offsets
        return self.targets[offsets[node] : offsets[node + 1]].tolist()

    def sorted_neighbor_lists(self) -> List[List[int]]:
        """Every node's friends in ascending order, one list per node, from
        one sort of all the rows and one ``tolist``.  Each node id is one
        int object, shared by every list it appears in."""
        n = self.number_of_nodes()
        # Row u's keys lie in [u n, (u + 1) n), so one sort orders every
        # row in place.
        row_base = np.repeat(np.arange(n, dtype=np.int64) * n, self.degrees())
        ascending = np.sort(row_base + self.targets)
        ascending -= row_base
        del row_base
        flat = np.arange(n).astype(object)[ascending].tolist()
        bounds = self.offsets.tolist()
        return [flat[start:stop] for start, stop in zip(bounds, bounds[1:])]

    def degrees(self) -> np.ndarray:
        """Every node's degree, indexed by node."""
        return np.diff(self.offsets)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Each edge once, as networkx's ``Graph.edges`` lists it: from its
        lower end, nodes ascending, in that end's neighbour order."""
        nodes = np.arange(self.number_of_nodes(), dtype=np.int32)
        sources = np.repeat(nodes, self.degrees())
        lower = sources < self.targets
        return zip(sources[lower].tolist(), self.targets[lower].tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FriendshipGraph):
            return NotImplemented
        return (
            self.graph == other.graph
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.targets, other.targets)
        )

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        # Through ``__init__``, so an unpickled graph's arrays are read-only.
        return (FriendshipGraph, (self.offsets, self.targets, self.graph))

    def __repr__(self) -> str:
        return (
            f"FriendshipGraph(nodes={self.number_of_nodes()}, "
            f"edges={self.number_of_edges()}, graph={self.graph!r})"
        )
