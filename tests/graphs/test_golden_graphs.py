"""Golden graphs: the Table-3 generator is pinned *across commits*.

Every simulation digest starts from ``generate_dataset``, and the engine
reads more than the edge set: it walks ``graph.neighbors`` and the node
order.  So each case below folds the node order, the ``edges`` iteration
order, every node's adjacency order and ``graph.graph`` into one digest.
``golden_graphs.json`` was recorded at the commit that still called
networkx's ``powerlaw_cluster_graph`` and relabelled its result; every
later generator must reproduce it byte for byte.

The cases cover all three datasets, ``slashdot`` where the Holme–Kim
graph overshoots the target and ``_adjust_edge_count`` trims, and the
``facebook`` scales and seeds the benchmark's ``sim_*`` workloads run
(0.004 for ``--tiny``, 0.02 for ``sim_adverse``, 0.05 for ``sim_scale``).

An intended behaviour change re-records the file, reviewed like any other
golden file::

    PYTHONPATH=src python -m tests.graphs.test_golden_graphs --record
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.graphs.datasets import generate_dataset

GOLDEN_PATH = Path(__file__).with_name("golden_graphs.json")

CASES = [
    ("facebook_0.01_seed3", dict(name="facebook", scale=0.01, seed=3)),
    ("epinions_0.01_seed11", dict(name="epinions", scale=0.01, seed=11)),
    ("slashdot_0.005_seed0", dict(name="slashdot", scale=0.005, seed=0)),
    ("slashdot_0.01_seed2_trims", dict(name="slashdot", scale=0.01, seed=2)),
    ("facebook_0.004_seed3_tiny", dict(name="facebook", scale=0.004, seed=3)),
    ("facebook_0.02_seed1_adverse", dict(name="facebook", scale=0.02, seed=1)),
    ("facebook_0.05_seed1_scale", dict(name="facebook", scale=0.05, seed=1)),
    ("facebook_0.05_seed2801_scale", dict(name="facebook", scale=0.05, seed=2801)),
]


def graph_digest(graph) -> dict:
    """Counts plus one SHA-256 over every order the engine can observe."""
    payload = json.dumps(
        {
            "nodes": list(graph.nodes()),
            "edges": list(graph.edges()),
            "adjacency": [graph.neighbors(node) for node in graph.nodes()],
            "graph": graph.graph,
        },
        separators=(",", ":"),
        sort_keys=True,
    )
    return {
        "nodes": graph.number_of_nodes(),
        "edges": graph.number_of_edges(),
        "sha256": hashlib.sha256(payload.encode()).hexdigest(),
    }


@pytest.mark.parametrize("name,params", CASES, ids=[name for name, _ in CASES])
def test_generator_reproduces_golden_graph(name, params):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert graph_digest(generate_dataset(**params)) == golden[name]


def _record() -> None:
    golden = {}
    for name, params in CASES:
        golden[name] = graph_digest(generate_dataset(**params))
        print(name, golden[name], file=sys.stderr)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.graphs.test_golden_graphs --record")
    _record()
