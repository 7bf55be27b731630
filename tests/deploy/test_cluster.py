"""The one cluster builder (:mod:`repro.deploy.cluster`)."""

import random
import re
from pathlib import Path

import repro
from repro.deploy.cluster import Cluster
from repro.network.events import EventLoop
from repro.network.simnet import SimNetwork
from repro.network.transport import MOBILE_LINK, SERVER_LINK


def make_cluster(seed=3, **node_defaults):
    node_defaults.setdefault("key_bits", 256)
    return Cluster(SimNetwork(EventLoop()), random.Random(seed), **node_defaults)


def test_seeds_are_drawn_in_creation_order():
    one, two = make_cluster(), make_cluster()
    for cluster in (one, two):
        for index in range(4):
            cluster.add(f"u{index}")
    assert one.order == two.order == [node.node_id for node in one.users]
    assert len(set(one.order)) == 4
    assert make_cluster(seed=4).add("u0").node_id != one.order[0]


def test_explicit_seed_does_not_consume_the_rng():
    plain, mixed = make_cluster(), make_cluster()
    mixed.add("pinned", seed=1234)
    assert plain.add("u0").node_id == mixed.add("u0").node_id
    assert make_cluster(seed=99).add("pinned", seed=1234).node_id == mixed.order[0]


def test_join_all_bootstraps_through_the_first_regular_node():
    cluster = make_cluster()
    phone = cluster.add("phone", is_mobile=True)
    gateway = cluster.add("gateway")
    other = cluster.add("other")
    cluster.join_all()
    assert cluster.gateway is gateway
    assert cluster.registry.all() == [gateway.node_id]
    assert all(node.joined and node.online for node in cluster.users)
    assert phone.interface.gateway_id == gateway.node_id
    assert phone.node_id not in cluster.overlay
    assert other.node_id in cluster.overlay
    assert phone.lookup_user(other.node_id).name == "other"
    # Liveness is the transport's: a node that goes dark without leaving
    # the ring takes the entries it homed (its own included) with it.
    other.go_offline()
    assert phone.lookup_user(other.node_id) is None
    # A latecomer joins through the same gateway; nobody joins twice.
    late = cluster.add("late")
    cluster.join_all()
    assert late.joined and cluster.registry.all() == [gateway.node_id]


def test_defaults_and_per_node_overrides_reach_the_node():
    cluster = make_cluster(key_bits=384, mobile_relay_limit=0)
    plain = cluster.add("plain")
    special = cluster.add(
        "special",
        is_mobile=True,
        capacity_profiles=7.0,
        mobile_relay_limit=2,
        link=SERVER_LINK,
    )
    assert plain.config is special.config is cluster.config
    assert plain.keys.public.bits == special.keys.public.bits == 384

    def capacity(node):
        return node.mirror_manager.store.capacity_profiles

    assert (plain.is_mobile, capacity(plain), plain.mobile_relay_limit) == (False, 50.0, 0)
    assert (special.is_mobile, capacity(special), special.mobile_relay_limit) == (True, 7.0, 2)
    link_of = cluster.network.link_of
    assert link_of(special.node_id) is SERVER_LINK
    assert link_of(cluster.add("phone", is_mobile=True).node_id) is MOBILE_LINK
    assert cluster.nodes[special.node_id] is special
    assert special._peer(plain.node_id) is plain and special._peer(1) is None


def test_befriend_ring_is_connected_and_seeded():
    def friendships(seed):
        cluster = make_cluster(seed)
        for index in range(6):
            cluster.add(f"u{index}")
        cluster.join_all()
        cluster.befriend_ring(extra=1)
        return [sorted(node.social.friends()) for node in cluster.users], cluster

    friends, cluster = friendships(3)
    order = cluster.order
    for index in range(6):
        assert order[(index + 1) % 6] in friends[index]
        assert order[index - 1] in friends[index]
    assert sum(len(f) for f in friends) > 2 * 6  # the extras landed
    assert friendships(3)[0] == friends


def test_one_construction_site_in_src():
    """``Cluster.add`` is the only ``SoupNode(`` call in ``src/``, and the
    resolver is spelled only there and in the middleware that takes it."""
    root = Path(repro.__file__).parent
    constructs, resolver = [], []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        name = path.relative_to(root).as_posix()
        constructs += [name] * len(re.findall(r"\bSoupNode\(", text))
        if "peer_resolver" in text:
            resolver.append(name)
    assert constructs == ["deploy/cluster.py"]
    assert resolver == ["deploy/cluster.py", "node/middleware.py"]
