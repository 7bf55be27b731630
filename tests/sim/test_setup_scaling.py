"""Building a simulation costs the same per node at any sybil count.

Deterministic guard (interpreter events via ``sys.settrace``, no timing),
as in ``tests/graphs/test_generation_scaling.py``.  Sybils befriend five
fellow sybils each (Sec. 4.6), and each draw used to sample from a list of
every other sybil, built for the draw: set-up grew with the square of the
sybil count.  The quadratic part was one comprehension per sybil, whose
iterations call nothing, so calls alone miss it; line events count every
iteration of a Python loop, so here the work is lines executed per node.
"""

import sys

from repro.graphs.datasets import generate_dataset
from repro.sim import ScenarioConfig, SoupSimulation


def _lines_per_node(scale: float) -> float:
    config = ScenarioConfig(
        dataset="facebook", scale=scale, n_days=1, sybil_fraction=0.5, seed=5
    )
    graph = generate_dataset(config.dataset, scale=config.scale, seed=config.seed)
    lines = 0

    def count_lines(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return count_lines

    previous = sys.gettrace()
    sys.settrace(count_lines)
    try:
        simulation = SoupSimulation(graph, config)
    finally:
        sys.settrace(previous)
    return lines / simulation.n_total


def test_setup_lines_per_node_do_not_grow_with_the_sybil_count():
    small = _lines_per_node(0.0045)  # 406 users, 203 sybils
    large = _lines_per_node(0.018)  # 1,625 users, 812 sybils
    assert large < 1.3 * small, (small, large)
