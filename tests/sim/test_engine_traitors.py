"""Engine tests for the traitor population and placement reachability."""

import numpy as np
import pytest

from repro.graphs.datasets import generate_dataset
from repro.sim.engine import SoupSimulation
from repro.sim.scenario import ScenarioConfig


def build(**overrides):
    base = dict(dataset="epinions", scale=0.005, n_days=6, seed=3)
    base.update(overrides)
    config = ScenarioConfig(**base)
    graph = generate_dataset(config.dataset, config.scale, config.seed)
    return SoupSimulation(graph, config), config


class TestTraitors:
    def test_traitor_population_created(self):
        sim, config = build(traitor_fraction=0.05, betrayal_day=3)
        assert sim.n_traitors == round(sim.n_base * 0.05)
        traitors = [n for n in sim.nodes if n.is_traitor]
        assert len(traitors) == sim.n_traitors
        # Traitors are neither sybils nor altruists.
        assert all(not n.is_sybil and not n.is_altruist for n in traitors)

    def test_traitors_online_until_betrayal_then_gone(self):
        sim, config = build(traitor_fraction=0.05, betrayal_day=3)
        betrayal = 3 * config.epochs_per_day
        for node in sim.nodes:
            if node.is_traitor:
                assert sim.online_matrix[node.node_id, :betrayal].all()
                assert not sim.online_matrix[node.node_id, betrayal:].any()

    def test_traitors_attract_replicas_before_betrayal(self):
        sim, config = build(traitor_fraction=0.05, betrayal_day=5, n_days=5)
        sim.run()
        traitor_ids = [n.node_id for n in sim.nodes if n.is_traitor]
        attracted = sum(sim.nodes[t].store.replica_count() for t in traitor_ids)
        assert attracted > 0

    def test_validation_rejects_bad_traitor_fraction(self):
        with pytest.raises(ValueError):
            ScenarioConfig(traitor_fraction=1.0)

    def test_traitors_excluded_from_benign_metrics(self):
        sim, config = build(traitor_fraction=0.1)
        mask = sim._joined_benign_mask()
        for node in sim.nodes:
            if node.is_traitor:
                assert not mask[node.node_id]

    def test_availability_recovers_after_betrayal(self):
        """Experience aging pushes dead traitors out of the rankings; the
        pace depends on how many friends report failures, so the denser
        Facebook graph is used here (see the traitor bench for the full
        recovery comparison)."""
        sim, config = build(
            dataset="facebook",
            traitor_fraction=0.05,
            betrayal_day=3,
            n_days=9,
            scale=0.008,
        )
        result = sim.run()
        epoch = 3 * config.epochs_per_day
        before = result.availability[epoch - 24 : epoch].mean()
        recovered = result.availability[-24:].mean()
        assert recovered > before - 0.05
        # And the betrayed reputation does decay: fewer benign nodes remain
        # bound to a traitor than at the moment of betrayal (when nearly
        # everyone who selected one was).
        traitor_ids = {n.node_id for n in sim.nodes if n.is_traitor}
        benign = [n for n in sim.nodes if not n.is_traitor and not n.is_sybil]
        bound = sum(
            1
            for node in benign
            if any(m in traitor_ids for m in node.announced_mirrors)
        )
        assert bound < 0.6 * len(benign)


class TestReachability:
    def test_new_replicas_only_at_reachable_mirrors(self):
        """The engine pushes a fresh replica only to a mirror that is
        online, joined and not departed."""
        sim, config = build()
        push = sim._push_replica
        pushes = []

        def recording_push(node, mirror_id, is_friend, epoch):
            mirror = sim.nodes[mirror_id]
            reachable = (
                bool(sim.online_matrix[mirror_id, epoch])
                and mirror.joined
                and not mirror.departed
            )
            pushes.append((mirror_id, epoch, reachable))
            return push(node, mirror_id, is_friend, epoch)

        sim._push_replica = recording_push
        sim.run()
        assert pushes
        assert [p for p in pushes if not p[2]] == []
