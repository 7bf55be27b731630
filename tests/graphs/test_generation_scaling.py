"""Generating a Table-3 graph costs the same per edge at any scale.

Deterministic guard (Python call counts via ``sys.setprofile``, no timing),
as in ``tests/dht/test_routing_scaling.py``.  networkx's Holme–Kim triangle
step called ``has_edge`` once per neighbour of a preferentially chosen
target, and those targets are the hubs, whose degree grows with the graph:
calls per edge rose with scale.  The count-and-index triangle step draws
the same neighbour in O(m), so calls per edge stay flat.
"""

import sys

from repro.graphs.datasets import generate_dataset


def _calls_per_edge(scale: float) -> float:
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        graph = generate_dataset("facebook", scale=scale, seed=5)
    finally:
        sys.setprofile(None)
    return calls / graph.number_of_edges()


def test_generation_calls_per_edge_do_not_grow_with_scale():
    small = _calls_per_edge(0.01)
    large = _calls_per_edge(0.04)
    assert large < 1.3 * small, (small, large)
