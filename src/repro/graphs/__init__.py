"""Social graphs for the SOUP evaluation.

The paper evaluates on three real-world datasets (Table 3): the WOSN'09
Facebook graph (90,269 nodes / 3,646,662 edges), SNAP Epinions (75,879 /
508,837) and SNAP Slashdot (82,169 / 948,464).  Those crawls are not
redistributable here, so :mod:`repro.graphs.datasets` generates synthetic
graphs matching each dataset's node count, edge count and heavy-tailed
degree shape — the only graph properties the simulation consumes.  A loader
for the real edge lists (:mod:`repro.graphs.loader`) is provided for users
who have the files.

Both return a :class:`~repro.graphs.friendship.FriendshipGraph`: the
adjacency as two flat integer arrays (CSR offsets and neighbour ids) over
nodes ``0..n-1``, with networkx's node, edge and neighbour orders.  No
module here imports networkx at load time: the statistics' clustering and
the samplers' components import it when they run, on the graph's
:meth:`~repro.graphs.friendship.FriendshipGraph.to_networkx` copy, so a
process that generates a dataset and simulates it never loads networkx.
"""

from repro.graphs.datasets import (
    DATASET_SPECS,
    DatasetSpec,
    generate_dataset,
    table3_rows,
)
from repro.graphs.friendship import FriendshipGraph
from repro.graphs.loader import load_edge_list
from repro.graphs.sampling import largest_component, sample_subgraph
from repro.graphs.stats import GraphStats, graph_stats

__all__ = [
    "DATASET_SPECS",
    "DatasetSpec",
    "generate_dataset",
    "table3_rows",
    "FriendshipGraph",
    "load_edge_list",
    "largest_component",
    "sample_subgraph",
    "GraphStats",
    "graph_stats",
]
