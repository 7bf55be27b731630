"""Socially-aware Pastry placement and routing (Nasir et al. baseline).

Nasir et al.'s socially-aware DHTs exploit that OSN reads are dominated
by friend traffic: placing a user's directory data *near her friend
cluster* and giving routers direct shortcuts to friends' DHT positions
cuts both lookup hops and control traffic.  This baseline implements
both halves against our Pastry overlay:

* :class:`SocialPlacement` remaps a user's directory key into the ID
  neighbourhood of her *anchor* — the friend-cluster position derived
  from her social circle.  The mapped key keeps the low bits of the
  original key (uniqueness) but takes the anchor's high bits, so the
  entry lands on a node numerically close to where her friends route
  from.  ``map_key`` is pure, so publish and lookup agree without any
  coordination messages.

* :class:`SocialRouting` gives every node one-hop shortcuts to its
  friends' DHT IDs.  The overlay filters the offered candidates through
  its monotone progress rule (``PastryOverlay._next_hop``), so
  shortcuts can only shorten routes — termination and responsibility
  are untouched.  Friend-cluster reads typically reach the anchor
  neighbourhood in one jump instead of O(log n) prefix hops.

The two strategies share one :class:`SocialMap`, populated once from the
friendship graph (anchors + shortcut lists).  Everything is
deterministic — no RNG, no dependence on iteration order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.arch.base import (
    Architecture,
    PlacementStrategy,
    RoutingPolicy,
    register_architecture,
)

#: How many high bits of the key the anchor contributes.  The top 32
#: bits select the neighbourhood; the low 32 bits keep per-user keys
#: unique within it (collision probability ~n²/2³² — negligible at the
#: scales the simulator runs).
ANCHOR_BITS = 32
_LOW_MASK = (1 << ANCHOR_BITS) - 1


class SocialMap:
    """Shared social state: per-user anchors and per-node shortcuts."""

    def __init__(self) -> None:
        #: original directory key -> anchor DHT id (the cluster position).
        self.anchors: Dict[int, int] = {}
        #: DHT node id -> friend DHT ids (routing shortcuts).
        self.shortcuts: Dict[int, Tuple[int, ...]] = {}

    def register_anchor(self, key: int, anchor_id: int) -> None:
        self.anchors[key] = anchor_id

    def register_shortcuts(self, node_id: int, friend_ids: Iterable[int]) -> None:
        self.shortcuts[node_id] = tuple(friend_ids)


class SocialPlacement(PlacementStrategy):
    """Publish/lookup keys remapped into the owner's friend cluster."""

    name = "social"

    def __init__(self, social_map: SocialMap) -> None:
        self.map = social_map
        self.remapped = 0
        self.unanchored = 0

    def bind_social_graph(self, friends_of, dht_id_of) -> None:
        build_social_map(self.map, friends_of, dht_id_of)

    def map_key(self, key: int) -> int:
        anchor = self.map.anchors.get(key)
        if anchor is None:
            self.unanchored += 1
            return key
        self.remapped += 1
        return (anchor & ~_LOW_MASK) | (key & _LOW_MASK)

    def metrics(self) -> Dict[str, float]:
        return {
            "keys_remapped": float(self.remapped),
            "keys_unanchored": float(self.unanchored),
        }


class SocialRouting(RoutingPolicy):
    """Friend-position shortcuts offered as extra next-hop candidates."""

    name = "social"

    def __init__(self, social_map: SocialMap) -> None:
        self.map = social_map
        self.offers = 0

    def bind_social_graph(self, friends_of, dht_id_of) -> None:
        # The map is shared with the placement strategy; rebuilding is
        # idempotent (same deterministic anchors/shortcuts).
        build_social_map(self.map, friends_of, dht_id_of)

    def extra_candidates(self, node_id: int, key: int) -> Iterable[int]:
        shortcuts = self.map.shortcuts.get(node_id, ())
        if shortcuts:
            self.offers += 1
        return shortcuts

    def metrics(self) -> Dict[str, float]:
        return {"shortcut_offers": float(self.offers)}


def cluster_anchor(friend_dht_ids: List[int], own_dht_id: int) -> int:
    """The cluster position for a user: the median friend DHT id.

    The median is robust (one far-flung friend does not drag the anchor
    away from the cluster) and deterministic.  Friendless users anchor
    at their own position — plain Pastry placement.
    """
    if not friend_dht_ids:
        return own_dht_id
    ordered = sorted(friend_dht_ids)
    return ordered[len(ordered) // 2]


def build_social_map(
    social_map: SocialMap,
    friends_of: Dict[int, List[int]],
    dht_id_of,
) -> None:
    """Populate anchors and shortcuts from a friendship adjacency map.

    ``dht_id_of`` maps an application node id to its DHT id (the
    simulator's shadow probe and the deployment use different ID
    derivations, so the mapping is injected).
    """
    for node_id in sorted(friends_of):
        own = dht_id_of(node_id)
        friend_ids = [dht_id_of(f) for f in friends_of[node_id]]
        social_map.register_anchor(own, cluster_anchor(friend_ids, own))
        social_map.register_shortcuts(own, friend_ids)


@register_architecture("social_dht")
def _make_social() -> Architecture:
    social_map = SocialMap()
    return Architecture(
        name="social_dht",
        placement=SocialPlacement(social_map),
        routing=SocialRouting(social_map),
    )
