"""Loader for real SNAP/WOSN edge lists.

If a user of this reproduction has the original dataset files (e.g.
``soc-Epinions1.txt`` from the Stanford SNAP collection), this loader turns
them into the undirected friendship graphs the simulator consumes.  Directed
trust edges (Epinions, Slashdot) are symmetrized, matching the paper's use
of them as social graphs.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Dict, List, Set, Tuple, Union

from repro.graphs.friendship import FriendshipGraph


def load_edge_list(
    path: Union[str, Path], comment_prefix: str = "#"
) -> FriendshipGraph:
    """Load a whitespace-separated edge list into an undirected graph.

    Supports plain text and ``.gz`` files.  Self-loops are dropped and an
    edge listed again (in either direction) is kept once.  Node ids are
    relabeled to contiguous integers in order of first appearance.  Every
    order is that of networkx's ``convert_node_labels_to_integers`` copy
    of the graph ``add_edge`` builds from the file.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"edge list not found: {path}")

    opener = gzip.open if path.suffix == ".gz" else open
    index: Dict[int, int] = {}
    edges: List[Tuple[int, int]] = []
    seen: Set[Tuple[int, int]] = set()
    with opener(path, "rt") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith(comment_prefix):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed edge line in {path}: {line!r}")
            u, v = int(parts[0]), int(parts[1])
            if u == v:
                continue
            u = index.setdefault(u, len(index))
            v = index.setdefault(v, len(index))
            key = (u, v) if u < v else (v, u)
            if key not in seen:
                seen.add(key)
                edges.append((u, v))

    # networkx's relabelled copy re-adds the edges in ``edges`` order.
    as_read = FriendshipGraph.from_edges(len(index), edges)
    return FriendshipGraph.from_edges(
        len(index), as_read.edges(), graph={"dataset": path.stem, "scale": 1.0}
    )
