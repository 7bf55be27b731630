"""Unit tests for the pluggable architecture strategies (repro.arch)."""

import random

import numpy as np
import pytest

from repro.arch import (
    Architecture,
    FriendMirrors,
    MirrorReadCache,
    MutualPartners,
    ReadPathStrategy,
    ShellRelay,
    SocialMap,
    SocialPlacement,
    SocialRouting,
    SoupSelectionStrategy,
    SuperPeerEconomy,
    architecture_names,
    build_social_map,
    create_architecture,
    derive_dht_id,
    gini,
)
from repro.arch import cache, superpeer
from repro.arch.peerson import PARTNERS
from repro.arch.safebook import MAX_MIRRORS, shell_relays
from repro.arch.social import ANCHOR_BITS, cluster_anchor
from repro.arch.superpeer import SUPERPEER_RANK
from repro.core.config import SoupConfig
from repro.core.selection import select_mirrors


class TestRegistry:
    def test_all_four_registered(self):
        assert set(architecture_names()) == {
            "soup", "superpeer", "social_dht", "cache", "peerson", "safebook"
        }

    def test_unknown_architecture_raises_with_known_list(self):
        with pytest.raises(ValueError, match="soup"):
            create_architecture("no_such_arch")

    def test_soup_binds_no_strategies(self):
        arch = create_architecture("soup")
        assert arch.selection is None
        assert arch.placement is None
        assert arch.routing is None
        assert arch.read_path is None
        assert arch.metrics() == {}

    def test_metrics_groups_merge_extra(self):
        arch = create_architecture("cache")
        arch.extra_metrics["dht"] = {"mean_lookup_hops": 2.0}
        groups = arch.metrics()
        assert "cache" in groups and groups["dht"] == {"mean_lookup_hops": 2.0}


class TestGini:
    def test_uniform_is_zero(self):
        assert gini(np.array([5.0, 5.0, 5.0, 5.0])) == pytest.approx(0.0)

    def test_concentrated_approaches_one(self):
        counts = np.zeros(100)
        counts[0] = 1000.0
        assert gini(counts) == pytest.approx(0.99)

    def test_empty_and_zero_are_zero(self):
        assert gini(np.array([])) == 0.0
        assert gini(np.zeros(10)) == 0.0


class _View:
    def __init__(self, uptime, capacities, electable=None):
        self._uptime = np.asarray(uptime, dtype=float)
        self.capacities = np.asarray(capacities, dtype=float)
        self._electable = electable

    def observed_uptime(self, epoch):
        return self._uptime

    def is_electable(self, node_id):
        return self._electable is None or node_id in self._electable


def _economy(monkeypatch, fraction):
    """A super-peer economy electing ``fraction`` of the population from
    the nodes with uptime at least 0.6."""
    monkeypatch.setattr(superpeer, "SUPERPEER_FRACTION", fraction)
    monkeypatch.setattr(superpeer, "MIN_UPTIME", 0.6)
    return SuperPeerEconomy()


class TestSuperPeerEconomy:
    def test_election_ranks_by_uptime_then_capacity(self, monkeypatch):
        economy = _economy(monkeypatch, 0.25)
        view = _View(
            uptime=[0.9, 0.9, 0.3, 0.95, 0.7, 0.9, 0.1, 0.65],
            capacities=[10, 50, 99, 10, 10, 20, 99, 10],
        )
        economy.begin_round(view, epoch=0)
        # quota = round(8 * 0.25) = 2: node 3 (uptime 0.95), then node 1
        # (0.9 uptime, highest capacity among the 0.9 tie).
        assert economy.superpeers == [3, 1]
        assert economy.free_slots == {3: 5, 1: 25}

    def test_weak_owner_gets_boost_strong_owner_does_not(self, monkeypatch):
        economy = _economy(monkeypatch, 0.25)
        view = _View(uptime=[0.9, 0.8, 0.2, 0.3], capacities=[10, 10, 10, 10])
        economy.begin_round(view, epoch=0)
        ranking = [(2, 0.4), (3, 0.3)]
        boosted = economy.augment_ranking(2, ranking, exclude=())
        assert boosted[0][1] == SUPERPEER_RANK
        offered = {nid for nid, rank in boosted if rank == SUPERPEER_RANK}
        assert offered == set(economy.superpeers)
        untouched = economy.augment_ranking(0, ranking, exclude=())
        assert untouched == list(ranking)

    def test_commit_consumes_slots_until_full(self, monkeypatch):
        economy = _economy(monkeypatch, 0.5)
        # A super-peer pledges half its capacity: one slot each here.
        view = _View(uptime=[0.9, 0.9, 0.2, 0.2], capacities=[2, 2, 10, 10])
        economy.begin_round(view, epoch=0)
        superpeer = economy.superpeers[0]
        economy.on_commit(2, [superpeer], epoch=0)
        assert economy.free_slots[superpeer] == 0
        boosted = economy.augment_ranking(3, [(2, 0.1)], exclude=())
        assert superpeer not in {nid for nid, _ in boosted if _ == SUPERPEER_RANK}

    def test_selection_respects_exclusions(self, monkeypatch):
        economy = _economy(monkeypatch, 0.5)
        view = _View(uptime=[0.9, 0.9, 0.2], capacities=[10, 10, 10])
        economy.begin_round(view, epoch=0)
        result = economy.select(
            2, [(0, 0.5), (1, 0.5)], (), SoupConfig(), random.Random(0),
            exclude={0},
        )
        assert 0 not in result.mirrors
        assert 2 not in result.mirrors

    def test_dict_backed_view_matches_deployment_shape(self, monkeypatch):
        economy = _economy(monkeypatch, 0.5)
        uptime = {101: 0.9, 205: 0.95, 307: 0.1}
        caps = {101: 10.0, 205: 10.0, 307: 10.0}

        class DictView:
            capacities = caps

            def observed_uptime(self, epoch):
                return uptime

            def is_electable(self, node_id):
                return True

        economy.begin_round(DictView(), epoch=0)
        assert economy.superpeers == [205, 101]


def _select(strategy, owner, friends=(), exclude=None, ranking=()):
    return strategy.select(
        owner, list(ranking), list(friends), SoupConfig(), random.Random(0),
        exclude={owner} if exclude is None else exclude,
    )


class TestMutualPartners:
    """PeerSoN: mutual agreements between peers of similar uptime."""

    @staticmethod
    def strategy(uptime):
        partners = MutualPartners()
        partners.begin_round(_View(uptime, np.ones(len(uptime))), epoch=0)
        return partners

    def test_six_partners_never_the_node_itself(self):
        strategy = self.strategy(np.random.default_rng(0).random(200))
        for owner in range(200):
            mirrors = _select(strategy, owner).mirrors
            assert len(mirrors) == PARTNERS == len(set(mirrors))
            assert owner not in mirrors

    def test_partners_have_similar_uptime(self):
        uptime = np.random.default_rng(1).random(500)
        strategy = self.strategy(uptime)
        gaps = [
            abs(uptime[owner] - uptime[partner])
            for owner in range(500)
            for partner in _select(strategy, owner).mirrors
        ]
        assert np.mean(gaps) < 0.02

    def test_partners_are_mutual_while_both_reachable(self):
        strategy = self.strategy(np.random.default_rng(2).random(100))
        partners = {owner: set(_select(strategy, owner).mirrors) for owner in range(100)}
        # Away from both ends of the uptime order the window is symmetric.
        reach = PARTNERS // 2
        for owner in strategy._order[reach:-reach]:
            for partner in partners[owner]:
                assert owner in partners[partner]

    def test_unreachable_nodes_are_skipped(self):
        uptime = np.linspace(0.0, 1.0, 20)  # position = node id
        strategy = self.strategy(uptime)
        mirrors = _select(strategy, 10, exclude={10, 9, 11}).mirrors
        assert mirrors == [8, 12, 7, 13, 6, 14]

    def test_algorithm_one_until_the_first_round(self):
        ranking = [(1, 0.5), (2, 0.4), (3, 0.3)]
        result = _select(MutualPartners(), 0, ranking=ranking)
        expected = select_mirrors(
            ranking=ranking, friends=[], config=SoupConfig(),
            rng=random.Random(0), exclude={0},
        )
        assert result.mirrors == expected.mirrors

    def test_dict_backed_view_matches_deployment_shape(self):
        uptime = {101: 0.9, 205: 0.95, 307: 0.1, 411: 0.5}

        class DictView:
            capacities = {node: 10.0 for node in uptime}

            def observed_uptime(self, epoch):
                return uptime

        strategy = MutualPartners()
        strategy.begin_round(DictView(), epoch=0)
        assert strategy._order == [307, 411, 101, 205]
        assert _select(strategy, 101).mirrors == [411, 205, 307]


class TestFriendMirrors:
    """Safebook: friends only, best observed uptime first."""

    @staticmethod
    def strategy(uptime):
        friends = FriendMirrors()
        friends.begin_round(_View(uptime, np.ones(len(uptime))), epoch=0)
        return friends

    def test_friends_only_best_uptime_first_at_most_24(self):
        uptime = np.random.default_rng(3).random(100)
        friends = list(range(1, 100, 2))  # 50 friends
        mirrors = _select(self.strategy(uptime), 0, friends).mirrors
        assert len(mirrors) == MAX_MIRRORS
        assert set(mirrors) <= set(friends)
        assert mirrors == sorted(friends, key=lambda f: -uptime[f])[:MAX_MIRRORS]

    def test_low_degree_nodes_get_few_mirrors(self):
        strategy = self.strategy(np.full(10, 0.5))
        assert _select(strategy, 0, friends=[7]).mirrors == [7]
        assert _select(strategy, 1, friends=[]).mirrors == []

    def test_excluded_friends_are_skipped(self):
        strategy = self.strategy(np.array([0.5, 0.9, 0.8, 0.7, 0.6]))
        mirrors = _select(strategy, 0, friends=[1, 2, 3, 4], exclude={0, 1, 3}).mirrors
        assert mirrors == [2, 4]

    def test_ranking_order_until_the_first_round(self):
        result = _select(
            FriendMirrors(), 0, friends=[1, 2, 3], ranking=[(9, 0.9), (2, 0.7), (1, 0.2)]
        )
        assert result.mirrors == [2, 1, 3]


class TestShellRelay:
    def test_default_read_path_serves_every_online_node(self):
        online = np.array([True, False, True])
        assert ReadPathStrategy().serving(online) is online

    def test_relays_are_fixed_other_nodes(self):
        relays = shell_relays(1_000)
        assert (relays != np.arange(1_000)).all()
        assert relays.min() >= 0 and relays.max() < 1_000
        assert (shell_relays(1_000) == relays).all()

    def test_serving_is_a_subset_of_online(self):
        online = np.random.default_rng(4).random(500) < 0.3
        serving = ShellRelay().serving(online)
        assert not (serving & ~online).any()
        # Uniform p = 0.3: a path needs mirror and relay, about p² = 0.09.
        assert 0.04 < serving.mean() < 0.14

    def test_mirror_with_offline_relay_does_not_serve(self):
        online = np.ones(50, dtype=bool)
        mirror = 7
        online[shell_relays(50)[mirror]] = False
        serving = ShellRelay().serving(online)
        assert online[mirror] and not serving[mirror]
        assert not create_architecture("safebook").read_path.serving(online)[mirror]


class TestSocialDht:
    def test_cluster_anchor_is_median_friend(self):
        assert cluster_anchor([10, 90, 50], own_dht_id=7) == 50
        assert cluster_anchor([], own_dht_id=7) == 7

    def test_map_key_takes_anchor_high_bits_keeps_low_bits(self):
        social_map = SocialMap()
        anchor = 0xABCDEF12_00000000
        key = 0x11111111_22222222
        social_map.register_anchor(key, anchor)
        placement = SocialPlacement(social_map)
        mapped = placement.map_key(key)
        low_mask = (1 << ANCHOR_BITS) - 1
        assert mapped & low_mask == key & low_mask
        assert mapped & ~low_mask == anchor & ~low_mask

    def test_unanchored_key_passes_through(self):
        placement = SocialPlacement(SocialMap())
        assert placement.map_key(1234) == 1234
        assert placement.metrics()["keys_unanchored"] == 1.0

    def test_build_social_map_and_shortcuts(self):
        social_map = SocialMap()
        friends_of = {1: [2, 3], 2: [1], 3: [1]}
        build_social_map(social_map, friends_of, dht_id_of=lambda n: n * 100)
        assert social_map.anchors[100] == cluster_anchor([200, 300], 100)
        routing = SocialRouting(social_map)
        assert tuple(routing.extra_candidates(100, key=0)) == (200, 300)
        assert tuple(routing.extra_candidates(999, key=0)) == ()

    def test_publish_lookup_agree_under_placement(self):
        from repro.dht.pastry import PastryOverlay
        from repro.dht.storage import DirectoryEntry

        rng = random.Random(42)
        members = sorted(rng.getrandbits(64) for _ in range(24))
        social_map = SocialMap()
        friends_of = {m: [members[(i + 1) % len(members)]]
                      for i, m in enumerate(members)}
        build_social_map(social_map, friends_of, dht_id_of=lambda n: n)

        overlay = PastryOverlay()
        for member in members:
            overlay.join(member, members[0] if member != members[0] else None)
        overlay.set_placement(SocialPlacement(social_map))

        owner = members[5]
        overlay.publish(owner, owner, DirectoryEntry(soup_id=owner))
        entry, route = overlay.lookup(members[17], owner)
        assert route.delivered
        assert entry is not None and entry.soup_id == owner

    def test_routing_policy_never_lengthens_routes(self):
        from repro.dht.pastry import PastryOverlay

        rng = random.Random(7)
        members = sorted(rng.getrandbits(64) for _ in range(32))

        plain = PastryOverlay()
        shortcut = PastryOverlay()
        for member in members:
            bootstrap = members[0] if member != members[0] else None
            plain.join(member, bootstrap)
            shortcut.join(member, bootstrap)

        social_map = SocialMap()
        friends_of = {m: rng.sample(members, 4) for m in members}
        build_social_map(social_map, friends_of, dht_id_of=lambda n: n)
        shortcut.set_routing_policy(SocialRouting(social_map))

        for key in [rng.getrandbits(64) for _ in range(40)]:
            base = plain.route(members[0], key)
            routed = shortcut.route(members[0], key)
            assert routed.responsible == base.responsible
            assert routed.hops <= base.hops


def _cache(monkeypatch, capacity=cache.CACHE_CAPACITY, ttl_epochs=cache.CACHE_TTL_EPOCHS):
    monkeypatch.setattr(cache, "CACHE_CAPACITY", capacity)
    monkeypatch.setattr(cache, "CACHE_TTL_EPOCHS", ttl_epochs)
    return MirrorReadCache()


class TestMirrorReadCache:
    def test_miss_then_hit_within_ttl(self, monkeypatch):
        cache = _cache(monkeypatch, capacity=4, ttl_epochs=3)
        assert not cache.try_serve(reader=1, owner=9, epoch=0)
        cache.on_fetch(reader=1, owner=9, epoch=0, success=True)
        assert cache.try_serve(reader=1, owner=9, epoch=2)
        assert cache.metrics()["hits"] == 1.0
        assert cache.metrics()["mean_staleness_epochs"] == 2.0

    def test_ttl_expiry_drops_entry(self, monkeypatch):
        cache = _cache(monkeypatch, capacity=4, ttl_epochs=3)
        cache.on_fetch(1, 9, epoch=0, success=True)
        assert not cache.try_serve(1, 9, epoch=3)
        assert cache.metrics()["expirations"] == 1.0
        assert list(cache.fresh_readers(9)) == []

    def test_failed_fetch_not_cached(self):
        cache = MirrorReadCache()
        cache.on_fetch(1, 9, epoch=0, success=False)
        assert not cache.try_serve(1, 9, epoch=0)

    def test_lru_eviction_at_capacity(self, monkeypatch):
        cache = _cache(monkeypatch, capacity=2, ttl_epochs=10)
        cache.on_fetch(1, 10, epoch=0, success=True)
        cache.on_fetch(1, 20, epoch=0, success=True)
        assert cache.try_serve(1, 10, epoch=1)  # 10 now most recent
        cache.on_fetch(1, 30, epoch=1, success=True)  # evicts 20
        assert not cache.try_serve(1, 20, epoch=1)
        assert cache.try_serve(1, 10, epoch=1)
        assert cache.metrics()["evictions"] == 1.0

    def test_invalidate_clears_all_readers(self):
        cache = MirrorReadCache()
        cache.on_fetch(1, 9, epoch=0, success=True)
        cache.on_fetch(2, 9, epoch=0, success=True)
        cache.invalidate(9)
        assert not cache.try_serve(1, 9, epoch=0)
        assert not cache.try_serve(2, 9, epoch=0)
        assert cache.metrics()["invalidations"] == 2.0

    def test_available_owners_requires_online_fresh_reader(self, monkeypatch):
        cache = _cache(monkeypatch, ttl_epochs=2)
        cache.on_fetch(reader=1, owner=9, epoch=0, success=True)
        online = np.array([True, True])
        assert cache.available_owners(online, epoch=1) == [9]
        assert cache.available_owners(np.array([True, False]), epoch=1) == []
        assert cache.available_owners(online, epoch=2) == []  # stale


class TestDhtProbe:
    def test_derive_dht_id_deterministic_64bit(self):
        a, b = derive_dht_id(17), derive_dht_id(18)
        assert a == derive_dht_id(17)
        assert a != b
        assert 0 <= a < 1 << 64

    def test_probe_counts_joins_publishes_lookups(self):
        from repro.arch import DhtProbe

        probe = DhtProbe(Architecture(name="soup"))
        online = np.ones(8, dtype=bool)
        probe.begin_epoch(0, online)
        for node_id in range(6):
            probe.on_join(node_id)
        probe.on_publish(owner=0, mirrors=[1, 2], epoch=0)
        probe.on_lookup(reader=3, owner=0)
        metrics = probe.metrics()
        assert metrics["joins"] == 6.0
        assert metrics["publishes"] == 1.0
        assert metrics["lookups"] == 1.0
        assert metrics["lookup_failures"] == 0.0
        assert metrics["control_messages"] > 0.0

    def test_departed_member_loses_entries(self):
        from repro.arch import DhtProbe

        probe = DhtProbe(Architecture(name="soup"))
        online = np.ones(4, dtype=bool)
        probe.begin_epoch(0, online)
        for node_id in range(4):
            probe.on_join(node_id)
        probe.on_publish(owner=0, mirrors=[1], epoch=0)
        probe.on_depart(0)
        assert probe.metrics()["departures"] == 1.0
