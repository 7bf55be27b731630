"""Pluggable DOSN architectures: strategy seams + the architectures.

See :mod:`repro.arch.base` for the strategy interfaces and
``docs/ARCHITECTURES.md`` for the design.  Importing this package
registers the built-in architectures::

    soup        the paper's own design (no seam overridden; byte-identical
                to the pre-refactor engine)
    superpeer   SuperNova-style super-peer mirror economy
    social_dht  socially-aware Pastry placement + friend-shortcut routing
    cache       LRU/TTL read-cache tier over mirrors
    peerson     PeerSoN-style mutual partners of similar uptime
    safebook    Safebook-style friend mirrors behind shell relays
"""

from repro.arch.base import (
    ARCHITECTURES,
    Architecture,
    MirrorSelectionStrategy,
    PlacementStrategy,
    ReadPathStrategy,
    RoutingPolicy,
    SoupSelectionStrategy,
    architecture_names,
    create_architecture,
    gini,
    register_architecture,
)
from repro.arch.cache import MirrorReadCache
from repro.arch.dhtprobe import DhtProbe, derive_dht_id
from repro.arch.peerson import MutualPartners
from repro.arch.safebook import FriendMirrors, ShellRelay
from repro.arch.social import SocialMap, SocialPlacement, SocialRouting, build_social_map
from repro.arch.superpeer import SuperPeerEconomy

__all__ = [
    "ARCHITECTURES",
    "Architecture",
    "DhtProbe",
    "FriendMirrors",
    "MirrorReadCache",
    "MirrorSelectionStrategy",
    "MutualPartners",
    "PlacementStrategy",
    "ReadPathStrategy",
    "RoutingPolicy",
    "ShellRelay",
    "SocialMap",
    "SocialPlacement",
    "SocialRouting",
    "SoupSelectionStrategy",
    "SuperPeerEconomy",
    "architecture_names",
    "build_social_map",
    "create_architecture",
    "derive_dht_id",
    "gini",
    "register_architecture",
]
