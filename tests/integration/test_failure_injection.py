"""Failure-injection tests: partitions, mass failures, lossy operations.

The paper's resilience claims (Sec. 4.1: "a large fraction of nodes may
depart the system at the same time due to a network failure") exercised at
the protocol level.
"""

import random

import pytest

from repro.dht.pastry import DhtError, PastryOverlay
from repro.dht.storage import DirectoryEntry
from repro.node.profile import DataItem


def populate(cluster, n=12, seed=3):
    """``n`` joined nodes that have all met each other."""
    for i in range(n):
        cluster.add(f"n{i}", seed=seed + i)
    cluster.join_all()
    for a in cluster.users:
        for b in cluster.users:
            if a is not b:
                a.contact(b.node_id)
    return cluster


@pytest.fixture()
def world(cluster):
    return populate(cluster)


class TestDhtMassFailure:
    def test_directory_survives_coordinated_failures(self):
        rng = random.Random(0)
        overlay = PastryOverlay()
        ids = []
        for i in range(120):
            node_id = rng.getrandbits(64)
            overlay.join(node_id, bootstrap_id=ids[0] if ids else None)
            ids.append(node_id)
        keys = [rng.getrandbits(64) for _ in range(40)]
        for key in keys:
            overlay.publish(ids[0], key, DirectoryEntry(soup_id=key, name=str(key)))

        # A third of the ring fails abruptly (no handover).
        victims = rng.sample(ids, 40)
        for victim in victims:
            overlay.fail(victim)
        alive = [i for i in ids if i not in set(victims)]

        # Routing still converges from every survivor.
        for _ in range(30):
            route = overlay.route(rng.choice(alive), rng.getrandbits(64))
            assert route.responsible in alive

        # Lost entries are restored by republishing (what owners do on
        # their next round).
        recovered = 0
        for key in keys:
            overlay.publish(alive[0], key, DirectoryEntry(soup_id=key, name=str(key)))
            entry, _ = overlay.lookup(alive[-1], key)
            recovered += entry is not None
        assert recovered == len(keys)


class TestPartition:
    def test_data_survives_half_the_network_going_dark(self, world):
        owner = world.users[1]
        owner.post_item(DataItem.text(3000, created_at=world.network.loop.now))
        accepted = owner.run_selection_round()
        world.network.loop.run_until(world.network.loop.now + 5)
        assert len(accepted) >= 3

        # Half the non-mirror population drops (network failure).
        others = [
            u for u in world.users
            if u is not owner and u.node_id not in set(accepted)
        ]
        for victim in others[: len(others) // 2]:
            victim.go_offline()

        owner.go_offline()
        reader = next(u for u in world.users if u.online and u is not owner)
        assert reader.request_profile(owner.node_id)

    def test_reselection_after_most_mirrors_fail(self, cluster):
        """The repair loop: friends observe the dead mirrors failing, report
        the failures, and the owner's next round recruits live mirrors."""
        world = populate(cluster, n=26)
        owner = world.users[2]
        reader = world.users[3]
        reader.befriend(owner.node_id)
        accepted = owner.run_selection_round()
        assert accepted
        for mirror_id in accepted:
            if mirror_id != reader.node_id:
                world.nodes[mirror_id].go_offline()

        # The feedback loop (Sec. 4.4): observe -> exchange -> re-rank.
        reader.request_profile(owner.node_id)
        reader.exchange_experience_sets()
        replacement = owner.run_selection_round()
        online_replacements = [
            m for m in replacement if world.nodes[m].online
        ]
        assert online_replacements


class TestLossyOperations:
    def test_message_to_fully_dark_user_fails_gracefully(self, world):
        sender = world.users[1]
        target = world.users[3]
        target.go_offline()
        # Target has no mirrors at all: delivery must fail, not crash.
        assert target.mirror_manager.announced_mirrors == []
        assert not sender.send_message(target.node_id, "anyone home?")

    def test_profile_request_for_unknown_user(self, world):
        reader = world.users[1]
        assert not reader.request_profile(0xDEAD_BEEF_0000_0001)

    def test_mobile_with_dead_gateway_and_empty_registry(self, cluster):
        boot = cluster.add("boot", seed=1)
        phone = cluster.add("phone", seed=2, is_mobile=True)
        cluster.join_all()

        boot.go_offline()
        cluster.registry.unregister(boot.node_id)
        # No gateway candidates remain: operations raise cleanly.
        with pytest.raises(DhtError):
            phone.lookup_user(boot.node_id)
