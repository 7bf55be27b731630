"""White-box tests of engine internals: exchanges, recommendations, ties."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import SoupConfig
from repro.core.dropping import ReplicaStore
from repro.graphs.datasets import generate_dataset
from repro.sim.engine import SoupSimulation, _median
from repro.sim.scenario import ScenarioConfig


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_median_is_numpys_bit_for_bit(values):
    array = np.array(values)
    assert _median(array).hex() == float(np.median(array)).hex()


def build(**overrides):
    base = dict(dataset="facebook", scale=0.004, n_days=4, seed=7)
    base.update(overrides)
    config = ScenarioConfig(**base)
    graph = generate_dataset(config.dataset, config.scale, config.seed)
    return SoupSimulation(graph, config), config


class TestExchanges:
    def test_reports_flow_between_friends(self):
        sim, config = build()
        sim.run()
        # Someone must have ingested reports (regular mode reached).
        assert any(node.has_experience for node in sim.nodes)

    def test_slander_reports_are_forged(self):
        sim, config = build(slander_fraction=0.3)
        attacker = next(n for n in sim.nodes if n.is_slanderer)
        victim_id = attacker.friends[0] if attacker.friends else None
        if victim_id is None:
            pytest.skip("attacker without friends in this sample")
        victim = sim.nodes[victim_id]
        victim.joined = True
        victim.announced_mirrors = [1, 2, 3]
        attacker.joined = True
        sim._exchange_experience(attacker)
        forged = [r for r in victim.pending_reports if r.reporter == attacker.node_id]
        assert forged
        assert all(r.availability == 0.0 for r in forged)
        assert all(r.observations == sim.soup.o_max for r in forged)

    def test_slanderer_keeps_no_observations_after_an_exchange(self):
        """A slanderer sends only forgeries, so what it observed of its
        friends' mirrors is discarded at each exchange instead of growing
        for the whole run."""
        sim, config = build(slander_fraction=0.3)
        attacker = next(n for n in sim.nodes if n.is_slanderer and n.friends)
        attacker.joined = True
        for friend_id in attacker.friends:
            sim.nodes[friend_id].joined = True
            attacker.experience_set_for(friend_id).observe_fetch([1, 2], [True, False])
        sim._exchange_experience(attacker)
        assert attacker.experience_sets
        assert all(len(es) == 0 for es in attacker.experience_sets.values())

    def test_tie_weights_applied_to_reports(self):
        sim, config = build(use_tie_strength=True)
        assert sim.ties is not None
        node = next(n for n in sim.nodes if n.friends)
        friend = sim.nodes[node.friends[0]]
        node.joined = friend.joined = True
        es = node.experience_set_for(friend.node_id)
        es.observe(5, True)
        sim._exchange_experience(node)
        reports = [r for r in friend.pending_reports if r.reporter == node.node_id]
        assert reports
        strength = sim.ties.strength(friend.node_id, node.node_id)
        assert reports[0].weight == pytest.approx(max(0.1, strength))

    def test_tie_model_covers_all_edges(self):
        sim, config = build(use_tie_strength=True)
        for node in sim.nodes:
            for friend in node.friends:
                assert sim.ties.strength(node.node_id, friend) > 0.0


class TestRecommendations:
    def test_contacts_harvest_recommendations_in_bootstrap_mode(self):
        sim, config = build()
        sim.run()
        received = sum(
            node.bootstrap.recommendation_count
            for node in sim.nodes
            if not node.is_sybil
        )
        assert received > 0

    def test_overload_capacity_limits_served_requests(self):
        sim, config = build(mirror_request_capacity=1)
        node = sim.nodes[0]
        friend_id = node.friends[0]
        friend = sim.nodes[friend_id]
        node.joined = friend.joined = True
        mirror_id = next(i for i in range(sim.n_total) if i not in (0, friend_id))
        friend.announced_mirrors = [mirror_id]
        assert sim.nodes[mirror_id].store.request_store(friend_id).accepted
        sim.online_matrix[mirror_id, 0] = True
        sim._served_this_epoch = {}
        sim._request_profile(node, friend, epoch=0)
        sim._request_profile(node, friend, epoch=0)
        record = node.experience_set_for(friend_id).record_for(mirror_id)
        assert record.requests == 2
        assert record.successes == 1  # second request denied: overloaded


class TestMeasurement:
    def test_availability_flags_use_the_stores(self):
        sim, config = build()
        online = np.zeros(sim.n_total, dtype=bool)
        owner, mirror = 0, 1
        assert sim.nodes[mirror].store.request_store(owner).accepted
        sim._rebuild_pairs()
        online[mirror] = True
        flags = sim._availability_flags(online)
        assert flags[owner]
        online[mirror] = False
        flags = sim._availability_flags(online)
        assert not flags[owner]
        # A departed mirror's store stays frozen but serves nobody.
        sim.note_departed(mirror)
        sim._rebuild_pairs()
        online[mirror] = True
        flags = sim._availability_flags(online)
        assert not flags[owner]

    @given(
        locations=st.dictionaries(
            st.integers(0, 30), st.sets(st.integers(0, 30), max_size=6), max_size=12
        ),
        departed=st.sets(st.integers(0, 30), max_size=6),
    )
    def test_rebuild_pairs_equals_the_nested_loop(self, locations, departed):
        config = SoupConfig()
        nodes = [
            SimpleNamespace(
                departed=node_id in departed,
                store=ReplicaStore(node_id, 10.0, config),
            )
            for node_id in range(31)
        ]
        for mirror_id, stored in locations.items():
            for owner in stored - {mirror_id}:
                assert nodes[mirror_id].store.request_store(owner).accepted
        owners, mirrors = [], []
        for mirror_id, node in enumerate(nodes):
            if node.departed:
                continue
            for owner in node.store.stored_owners():
                owners.append(owner)
                mirrors.append(mirror_id)
        view = SimpleNamespace(nodes=nodes)
        SoupSimulation._rebuild_pairs(view)
        assert view._pair_owners.dtype == view._pair_mirrors.dtype == np.int64
        assert view._pair_owners.tolist() == owners
        assert view._pair_mirrors.tolist() == mirrors

    def test_top_half_share_range(self):
        sim, config = build()
        sim.run()
        assert 0.0 <= sim.result.top_half_replica_share <= 1.0
