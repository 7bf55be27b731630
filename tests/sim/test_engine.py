"""Tests for the replication-simulator engine.

These run small, fast scenarios (tiny graphs, few days) and assert the
protocol-level invariants; the benchmark modules assert the paper-level
numbers at larger scale.
"""

import numpy as np
import pytest

from repro.graphs.datasets import generate_dataset
from repro.sim.engine import SoupSimulation, run_scenario
from repro.sim.scenario import OnlineDistribution, ScenarioConfig


def tiny_config(**overrides):
    base = dict(dataset="epinions", scale=0.004, n_days=4, seed=3)
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.fixture(scope="module")
def base_result():
    return run_scenario(tiny_config())


def test_availability_series_shape(base_result):
    config = tiny_config()
    assert len(base_result.availability) == config.n_epochs
    assert np.all((0 <= base_result.availability) & (base_result.availability <= 1))


def test_availability_improves_over_time(base_result):
    early = base_result.availability[:12].mean()
    late = base_result.availability[-24:].mean()
    assert late > early


def test_replica_overhead_positive_and_bounded(base_result):
    assert base_result.replica_overhead[-1] > 1
    assert base_result.replica_overhead.max() <= 31  # MAX_MIRRORS + exploration


def test_mirror_sets_exclude_self():
    config = tiny_config()
    graph = generate_dataset(config.dataset, config.scale, config.seed)
    sim = SoupSimulation(graph, config)
    sim.run()
    for node in sim.nodes:
        assert node.node_id not in node.selected_mirrors
        assert node.node_id not in node.announced_mirrors


def test_announced_mirrors_mostly_store_the_data():
    """Announced mirrors held the replica at publication time; a small
    fraction may have evicted it since (the owner discovers this through
    failed fetches and reselects next round)."""
    config = tiny_config()
    graph = generate_dataset(config.dataset, config.scale, config.seed)
    sim = SoupSimulation(graph, config)
    sim.run()
    stored = 0
    total = 0
    for node in sim.nodes:
        if node.is_sybil:
            continue
        for mirror in node.announced_mirrors:
            total += 1
            if sim.holds(mirror, node.node_id):
                stored += 1
    assert total > 0
    assert stored / total > 0.9


def test_capacity_never_exceeded():
    config = tiny_config()
    graph = generate_dataset(config.dataset, config.scale, config.seed)
    sim = SoupSimulation(graph, config)
    sim.run()
    for node in sim.nodes:
        assert node.store.replica_count() <= node.store.capacity_profiles


def test_cohort_series_present(base_result):
    for name in ("top_online", "bottom_online", "top_friends", "bottom_friends"):
        assert name in base_result.cohort_availability
        series = base_result.cohort_availability[name]
        assert len(series) == len(base_result.availability)


def test_snapshots_taken_at_requested_days():
    result = run_scenario(tiny_config(cdf_snapshot_days=(1, 2)))
    assert set(result.stored_profiles_snapshots) == {1, 2}
    counts = result.stored_profiles_snapshots[2]
    assert all(c >= 0 for c in counts)


def test_determinism_per_seed():
    a = run_scenario(tiny_config(seed=11))
    b = run_scenario(tiny_config(seed=11))
    assert np.array_equal(a.availability, b.availability)
    assert np.array_equal(a.replica_overhead, b.replica_overhead)


def test_seeds_differ():
    a = run_scenario(tiny_config(seed=11))
    b = run_scenario(tiny_config(seed=12))
    assert not np.array_equal(a.availability, b.availability)


class TestDeparture:
    def test_departed_nodes_drop_from_metrics(self):
        config = tiny_config(departure_fraction=0.05, departure_day=2, n_days=4)
        graph = generate_dataset(config.dataset, config.scale, config.seed)
        sim = SoupSimulation(graph, config)
        result = sim.run()
        assert len(sim.departing_ids) >= 1
        for node_id in sim.departing_ids:
            assert sim.nodes[node_id].departed
            assert not sim.online_matrix[node_id, sim.departure_epoch :].any()

    def test_availability_recovers_after_departure(self):
        config = tiny_config(
            departure_fraction=0.05, departure_day=3, n_days=8, scale=0.006
        )
        result = run_scenario(config)
        departure_epoch = 3 * config.epochs_per_day
        dip = result.availability[departure_epoch : departure_epoch + 12].mean()
        recovered = result.availability[-12:].mean()
        assert recovered >= dip - 0.02


class TestAltruism:
    def test_altruists_join_later_and_always_online(self):
        config = tiny_config(altruist_fraction=0.02, altruist_join_day=2, n_days=4)
        graph = generate_dataset(config.dataset, config.scale, config.seed)
        sim = SoupSimulation(graph, config)
        assert sim.n_altruists >= 1
        sim.run()
        for node in sim.nodes:
            if node.is_altruist:
                join = int(2 * config.epochs_per_day)
                assert sim.online_matrix[node.node_id, join:].all()
                assert not sim.online_matrix[node.node_id, :join].any()

    def test_altruists_attract_replicas(self):
        config = tiny_config(
            altruist_fraction=0.02, altruist_join_day=1, n_days=6, scale=0.006
        )
        graph = generate_dataset(config.dataset, config.scale, config.seed)
        sim = SoupSimulation(graph, config)
        sim.run()
        altruist_ids = [n.node_id for n in sim.nodes if n.is_altruist]
        stored = sum(sim.nodes[a].store.replica_count() for a in altruist_ids)
        assert stored > 0


class TestAttacksInEngine:
    def test_slander_marks_attackers(self):
        config = tiny_config(slander_fraction=0.2)
        graph = generate_dataset(config.dataset, config.scale, config.seed)
        sim = SoupSimulation(graph, config)
        attackers = [n for n in sim.nodes if n.is_slanderer]
        assert len(attackers) == round(sim.n_base * 0.2)
        sim.run()

    def test_slander_degrades_but_does_not_destroy(self):
        clean = run_scenario(tiny_config(n_days=6, scale=0.006))
        slandered = run_scenario(
            tiny_config(n_days=6, scale=0.006, slander_fraction=0.5)
        )
        # Availability under attack stays within striking distance.
        assert (
            slandered.steady_state_availability()
            > clean.steady_state_availability() - 0.25
        )

    def test_sybils_excluded_from_benign_metrics(self):
        config = tiny_config(sybil_fraction=0.3)
        graph = generate_dataset(config.dataset, config.scale, config.seed)
        sim = SoupSimulation(graph, config)
        assert sim.n_sybils == round(sim.n_base * 0.3)
        benign = set(sim.benign_ids.tolist())
        for node in sim.nodes:
            assert (node.node_id in benign) == (not node.is_sybil)
        sim.run()

    def test_flooding_triggers_blacklisting(self):
        config = tiny_config(
            sybil_fraction=0.3, sybil_flood_requests=30, n_days=6, scale=0.006
        )
        result = run_scenario(config)
        assert result.blacklisted_owner_count > 0
