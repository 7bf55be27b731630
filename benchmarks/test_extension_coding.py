"""Extension bench: erasure-coded large profiles (Sec. 8).

Quantifies the paper's two claimed benefits of (n, k) coding versus full
replication for large profiles: (i) no single node is burdened with the
whole profile, and (ii) availability per stored byte improves — only k
fragments need to be online.
"""

import numpy as np
import pytest

from benchmarks.conftest import print_table, run_once
from repro.behavior.online import sample_online_probabilities
from benchmarks.coding.fragments import (
    availability_probability,
    equivalent_full_replication,
)
from benchmarks.coding.reed_solomon import ReedSolomonCode

PROFILE_MB = 60.0  # the Sec. 7 power-user profile


def run_comparison():
    rng = np.random.default_rng(3)
    # Holders drawn from the strong half of the population (what selection
    # actually picks as mirrors).
    population = sample_online_probabilities(4000, rng)
    strong = np.sort(population)[-400:]

    rows = []
    outcomes = {}
    for n, k in ((6, 1), (12, 6), (12, 5), (16, 8), (20, 10)):
        holders = rng.choice(strong, size=n, replace=False)
        availability = availability_probability(list(holders), k)
        storage = PROFILE_MB * n / k
        per_node = PROFILE_MB / k
        outcomes[(n, k)] = (availability, storage, per_node)
        label = "full replication (R=6)" if k == 1 else f"RS({n},{k})"
        rows.append(
            (
                label,
                f"{availability:.4f}",
                f"{storage:.0f} MB",
                f"{per_node:.0f} MB",
            )
        )

    # Throughput sanity of the actual codec on a 2 MB payload.
    code = ReedSolomonCode(12, 6)
    payload = bytes(range(256)) * 8192  # 2 MiB
    fragments = code.encode(payload)
    decoded = code.decode(fragments[3:9], len(payload))
    assert decoded == payload
    return rows, outcomes


def test_extension_coding(benchmark):
    rows, outcomes = run_once(benchmark, run_comparison)
    print_table(
        f"Sec. 8 extension — {PROFILE_MB:.0f} MB profile: replication vs coding",
        ("scheme", "availability", "total stored", "per-node burden"),
        rows,
    )

    full_availability, full_storage, full_burden = outcomes[(6, 1)]
    coded_availability_, coded_storage, coded_burden = outcomes[(12, 6)]

    # (i) Per-node burden drops by k×.
    assert coded_burden == pytest.approx(full_burden / 6)
    # (ii) Comparable availability at roughly half the stored bytes.
    assert coded_storage < full_storage * 0.6
    assert coded_availability_ > 0.95
    # More parity (lower k at same n) buys availability with storage.
    assert outcomes[(12, 5)][0] > outcomes[(12, 6)][0]
