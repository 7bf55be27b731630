"""Table 4: SOUP vs related work under their own assumptions.

Paper claims:

* Under SOUP's power-law assumption: ~99.5 % availability with ~6.5
  replicas.
* Under PeerSoN's online-time mix: SOUP reaches ~98.5 % with ~14 replicas
  is PeerSoN's own overhead; SOUP cuts the replica count by about a third
  (to ~6 in their table the columns read: PeerSoN <90-100 % with 6 —
  depends on p; SOUP ~98.5 % with 14→ reduced by one third) while giving
  *all* nodes close-to-uniform availability, unlike PeerSoN whose
  availability depends on each user's own online time.
* Under Safebook's uniform p = 0.3: SOUP ~100 % with ~4 replicas vs
  Safebook ~90 % with 13-24 friend replicas.

Every row runs through the one engine: SOUP as ``architecture="soup"``,
PeerSoN and Safebook as the ``peerson`` and ``safebook`` architectures
(docs/ARCHITECTURES.md), each under the related work's own online-time
distribution.
"""

from benchmarks.conftest import DEFAULT_SCALE, print_table, run_once
from repro.sim.engine import run_scenario
from repro.sim.scenario import OnlineDistribution, ScenarioConfig

DAYS = 14


def run_row(distribution: OnlineDistribution, architecture: str = "soup"):
    config = ScenarioConfig(
        dataset="facebook",
        scale=DEFAULT_SCALE,
        n_days=DAYS,
        seed=5,
        online_distribution=distribution,
        architecture=architecture,
    )
    return run_scenario(config)


def summary(result):
    """A baseline row: steady availability and replicas, plus each
    owner's availability over the whole run (join day included) from the
    engine's per-owner count of unavailable epochs."""
    per_node = [
        1.0 - result.unavailable_owner_epochs.get(owner, 0) / result.n_epochs
        for owner in range(result.n_nodes)
    ]
    return {
        "availability": result.steady_state_availability(3),
        "availability_min": min(per_node),
        "availability_max": max(per_node),
        "replicas": result.steady_state_replicas(3),
    }


def run_comparison():
    return {
        "soup_powerlaw": run_row(OnlineDistribution.POWER_LAW),
        "soup_peerson": run_row(OnlineDistribution.PEERSON),
        "soup_uniform": run_row(OnlineDistribution.UNIFORM_03),
        "peerson": summary(run_row(OnlineDistribution.PEERSON, "peerson")),
        "safebook": summary(run_row(OnlineDistribution.UNIFORM_03, "safebook")),
    }


def test_table4(benchmark):
    outcome = run_once(benchmark, run_comparison)

    soup_pl = outcome["soup_powerlaw"]
    soup_ps = outcome["soup_peerson"]
    soup_u = outcome["soup_uniform"]
    peerson = outcome["peerson"]
    safebook = outcome["safebook"]

    rows = [
        (
            "Power-law",
            "SOUP",
            f"{soup_pl.steady_state_availability(3):.3f}",
            f"{soup_pl.steady_state_replicas(3):.1f}",
        ),
        (
            "PeerSoN mix",
            "SOUP",
            f"{soup_ps.steady_state_availability(3):.3f}",
            f"{soup_ps.steady_state_replicas(3):.1f}",
        ),
        (
            "PeerSoN mix",
            "PeerSoN",
            f"{peerson['availability']:.3f} "
            f"(per-node {peerson['availability_min']:.2f}-{peerson['availability_max']:.2f})",
            f"{peerson['replicas']:.1f}",
        ),
        (
            "Uniform p=0.3",
            "SOUP",
            f"{soup_u.steady_state_availability(3):.3f}",
            f"{soup_u.steady_state_replicas(3):.1f}",
        ),
        (
            "Uniform p=0.3",
            "Safebook",
            f"{safebook['availability']:.3f}",
            f"{safebook['replicas']:.1f} (13-24 shells)",
        ),
    ]
    print_table(
        "Table 4 — SOUP vs related work",
        ("online-time assumption", "approach", "availability", "replicas"),
        rows,
    )

    # --- SOUP vs Safebook under uniform p = 0.3 -------------------------
    # SOUP beats Safebook's availability by a clear margin (paper: +8.5 %) ...
    assert soup_u.steady_state_availability(3) > safebook["availability"] + 0.04
    # ... with far fewer replicas than Safebook's upper shells.
    assert soup_u.steady_state_replicas(3) < safebook["replicas"]
    # Safebook lands in its published ~90 % band.
    assert 0.80 <= safebook["availability"] <= 0.97

    # --- SOUP vs PeerSoN under PeerSoN's favourable mix ------------------
    # PeerSoN's availability depends on each user's own online time: the
    # per-node spread is wide.
    assert peerson["availability_max"] - peerson["availability_min"] > 0.05
    # SOUP provides high availability for everybody under the same mix.
    assert soup_ps.steady_state_availability(3) > 0.96
    # And under favourable online times SOUP needs fewer mirrors than under
    # the power law (the paper reports close-to-lower-bound overhead here).
    assert soup_ps.steady_state_replicas(3) <= soup_pl.steady_state_replicas(3) + 0.5

    # --- SOUP's own assumption -------------------------------------------
    assert soup_pl.steady_state_availability(3) > 0.95
    assert soup_pl.steady_state_replicas(3) < 10
