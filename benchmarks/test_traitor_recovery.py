"""Sec. 4.4: the traitor attack and the aging factor.

"A malicious node could perform a traitor attack, where it obtains an
excellent reputation just to exploit it afterwards.  In particular, such a
node could offer exceptional storage capacities and online time to get
selected as a mirror by many users, just to disappear later. ... Applying
the aging factor supports quick adaption to such situations."

The experiment: 5 % extra identities with perfect availability and 10×
storage join at bootstrap, attract replicas, and vanish at day 8.  The
aging of experience values must push the traitors out of the rankings and
recover availability within days; sluggish aging (high retention) slows
the recovery.
"""

import numpy as np
import pytest

from benchmarks.conftest import DEFAULT_SCALE, print_series, print_table, run_once
from repro.core.config import SoupConfig
from repro.sim.engine import SoupSimulation
from repro.sim.scenario import ScenarioConfig
from repro.graphs.datasets import generate_dataset

BETRAYAL_DAY = 8
DAYS = 18


def run_with_retention(retention: float):
    config = ScenarioConfig(
        dataset="facebook",
        scale=DEFAULT_SCALE,
        n_days=DAYS,
        seed=5,
        traitor_fraction=0.05,
        betrayal_day=BETRAYAL_DAY,
        soup=SoupConfig(count_retention=retention),
    )
    graph = generate_dataset(config.dataset, config.scale, config.seed)
    sim = SoupSimulation(graph, config)
    result = sim.run()
    traitor_ids = {n.node_id for n in sim.nodes if n.is_traitor}
    # How many benign nodes still announce a traitor at the end.
    still_bound = sum(
        1
        for node in sim.nodes
        if not node.is_traitor and not node.is_sybil
        and any(m in traitor_ids for m in node.announced_mirrors)
    )
    # Traitors go offline at the betrayal but never depart.
    replicas_on_traitors = sum(
        sim.nodes[t].store.replica_count() for t in traitor_ids
    )
    return result, still_bound, replicas_on_traitors


def test_traitor_recovery(benchmark):
    outcome = run_once(
        benchmark,
        lambda: {
            "retention=0.85 (default aging)": run_with_retention(0.85),
            "retention=0.98 (sluggish aging)": run_with_retention(0.98),
        },
    )

    epoch = BETRAYAL_DAY * 24
    rows = []
    for name, (result, still_bound, on_traitors) in outcome.items():
        daily = result.daily_availability()
        print_series(f"traitor ({name})", "per day", daily)
        dip = result.availability[epoch : epoch + 24].min()
        recovered = result.availability[-48:].mean()
        rows.append(
            (name, f"{dip:.3f}", f"{recovered:.3f}", still_bound, on_traitors)
        )
    print_table(
        "Sec. 4.4 — traitor attack (5 % perfect-uptime identities vanish at day 8)",
        ("aging", "dip (min)", "recovered", "nodes still bound", "replicas on traitors"),
        rows,
    )

    default_result, default_bound, _ = outcome["retention=0.85 (default aging)"]
    sluggish_result, sluggish_bound, _ = outcome["retention=0.98 (sluggish aging)"]

    before = default_result.availability[epoch - 48 : epoch].mean()
    dip = default_result.availability[epoch : epoch + 24].min()
    recovered = default_result.availability[-48:].mean()
    # The betrayal hurts (traitors had attracted real load) ...
    assert dip < before - 0.02
    # ... and default aging recovers close to the pre-attack level.
    assert recovered > before - 0.04
    # Quick adaptation: recovery beats (or at worst matches) sluggish aging.
    assert recovered >= sluggish_result.availability[-48:].mean() - 0.01
