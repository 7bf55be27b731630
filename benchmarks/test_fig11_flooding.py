"""Fig. 11: SOUP can recover from a flooding attack.

Paper claims: an adversary running sybil identities (up to as many as half
the regular population, m = 0.5) floods benign nodes with storage requests.
Protective dropping blacklists the flooders (announced-vs-real mirror-set
mismatches), keeping benign availability at/above ~90 % in the long run and
the replica overhead bounded (≤ ~13-20), and prevents the sybils from
filling benign storage.
"""

import numpy as np
import pytest

from benchmarks.conftest import DEFAULT_SCALE, print_series, print_table, run_once
from repro.sim.engine import SoupSimulation
from repro.sim.scenario import ScenarioConfig
from repro.graphs.datasets import generate_dataset

DAYS = 20
FRACTIONS = (0.1, 0.2, 0.5)


def run_fraction(fraction: float):
    config = ScenarioConfig(
        dataset="facebook",
        scale=DEFAULT_SCALE,
        n_days=DAYS,
        seed=5,
        sybil_fraction=fraction,
        sybil_flood_requests=25,
    )
    graph = generate_dataset(config.dataset, config.scale, config.seed)
    sim = SoupSimulation(graph, config)
    result = sim.run()
    # How much benign storage the sybils hold at the end (flooding damage).
    sybil_ids = {n.node_id for n in sim.nodes if n.is_sybil}
    sybil_replicas = sum(
        1
        for node in sim.nodes
        if node.node_id not in sybil_ids and not node.departed
        for owner in node.store.stored_owner_view()
        if owner in sybil_ids
    )
    benign_storage_used = sum(
        sim.nodes[i].store.replica_count() for i in range(sim.n_base)
    )
    benign_capacity = sum(
        sim.nodes[i].store.capacity_profiles for i in range(sim.n_base)
    )
    return {
        "result": result,
        "sybil_replicas": sybil_replicas,
        "n_sybils": sim.n_sybils,
        "storage_utilization": benign_storage_used / benign_capacity,
    }


def test_fig11(benchmark):
    outcomes = run_once(benchmark, lambda: {m: run_fraction(m) for m in FRACTIONS})

    rows = []
    for fraction, outcome in outcomes.items():
        result = outcome["result"]
        label = f"m={fraction:.1f}"
        print_series(f"Fig.11 availability ({label})", "per day", result.daily_availability())
        rows.append(
            (
                label,
                f"{result.steady_state_availability(skip_days=5):.3f}",
                f"{result.steady_state_replicas(skip_days=5):.2f}",
                result.blacklisted_owner_count,
                f"{outcome['sybil_replicas'] / max(1, outcome['n_sybils']):.1f}",
                f"{outcome['storage_utilization']:.2f}",
            )
        )
    print_table(
        "Fig. 11 — sybil flooding attack",
        (
            "sybils",
            "benign avail",
            "benign replicas",
            "blacklist entries",
            "replicas/sybil",
            "benign storage used",
        ),
        rows,
    )

    for fraction, outcome in outcomes.items():
        result = outcome["result"]
        # Benign availability holds at/above ~90 % in the long run.
        assert result.steady_state_availability(skip_days=5) > 0.88, fraction
        # Replica overhead stays bounded (paper: does not exceed ~13-20).
        assert result.steady_state_replicas(skip_days=5) < 20, fraction
        # Protective dropping engages: flooders get blacklisted ...
        assert result.blacklisted_owner_count > 0, fraction
        # ... and benign storage is not exhausted by the attack.
        assert outcome["storage_utilization"] < 0.9, fraction

    # A sybil's steady-state holdings are bounded by the three-strike
    # blacklisting latency (~3 rounds of flooding), not an unbounded
    # accumulation across the whole run.
    heavy = outcomes[0.5]
    per_sybil = heavy["sybil_replicas"] / max(1, heavy["n_sybils"])
    assert per_sybil < 4 * 25  # 25 = flood requests per round
