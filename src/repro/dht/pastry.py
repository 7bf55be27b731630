"""The Pastry-style overlay: join, prefix routing, leave, entry shifting.

This is the reproduction's stand-in for FreePastry.  The overlay is
simulated in-process: every node holds real Pastry routing state
(:mod:`repro.dht.node_state`) and messages are routed hop by hop through
that state, so hop counts, join costs and entry-shifting traffic are all
faithful to the protocol even though no sockets are involved.

Key responsibility follows Pastry: the live node numerically closest to a
key stores the entries published under it.  Joins and leaves shift entries
between nodes, which is exactly the churn cost the paper measures at its
bootstrap node (Fig. 14a) and the reason SOUP keeps mobile nodes off the
DHT (Sec. 3.3).
"""

from __future__ import annotations

import logging
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.obs import get_registry, get_tracer
from repro.obs.profiling import PROFILER

from repro.dht.node_state import (
    ID_DIGITS,
    LeafSet,
    RoutingTable,
    closest_on_ring,
    ring_distance,
)
from repro.dht.storage import DirectoryEntry

logger = logging.getLogger("repro.dht.pastry")

#: Hop-count histogram buckets (Pastry routes are O(log n) short).
_HOP_BUCKETS = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 12.0, 16.0, 32.0, 64.0)

#: Most routes one overlay remembers between ring changes; the memo is
#: emptied all at once when it is full.  A few MB at most: a ring sized
#: for a whole social graph routes O(edges) distinct (start, key) pairs.
ROUTE_MEMO_ENTRIES = 16_384

#: Leaf-set members kept on each side of a node.
LEAF_HALF_SIZE = 8
#: Hops after which a route counts as a loop.
MAX_ROUTE_HOPS = 64


class DhtError(Exception):
    """Raised on operations against unknown or offline nodes."""


@dataclass
class RouteResult:
    """Outcome of routing a key through the overlay."""

    responsible: int
    path: List[int]
    #: False when the operation could not reach a live responsible node
    #: (publish against an unreachable home, lookup with all alternates
    #: down) — the caller should back off and retry later.
    delivered: bool = True

    @property
    def hops(self) -> int:
        return max(0, len(self.path) - 1)


@dataclass
class _OverlayNode:
    """A DHT member's full state."""

    node_id: int
    routing_table: RoutingTable
    leaf_set: LeafSet
    entries: Dict[int, DirectoryEntry] = field(default_factory=dict)


@dataclass
class TransferRecord:
    """One entry movement caused by churn, for traffic accounting."""

    from_node: int
    to_node: int
    key: int
    size_bytes: int


class _Counters(dict):
    """Counter handles of one registry by name, created on first use —
    exactly when ``registry.counter(name)`` would have created them."""

    def __init__(self, registry) -> None:
        super().__init__()
        self._registry = registry

    def __missing__(self, name: str):
        counter = self[name] = self._registry.counter(name)
        return counter


class PastryOverlay:
    """An in-process Pastry ring with directory-entry storage."""

    def __init__(self) -> None:
        self._nodes: Dict[int, _OverlayNode] = {}
        #: The member ids in ring order (kept in step with ``_nodes``).
        self._ring: List[int] = []
        #: Log of entry movements; deployment emulation drains this to
        #: charge bandwidth to the nodes involved.
        self.transfer_log: List[TransferRecord] = []
        #: Optional liveness oracle (node_id -> currently reachable).  Left
        #: unset, every overlay member counts as live — the historical
        #: behaviour, kept because several scenarios park nodes offline
        #: while leaving them in the ring.  The deployment emulation wires
        #: this to the simulated network's online state, making publish
        #: and lookup honest about unreachable homes.
        self._liveness: Optional[Callable[[int], bool]] = None
        #: How many alternate next-closest nodes a lookup probes when the
        #: responsible node is unreachable.
        self.lookup_max_alternates = 3
        self.lookup_retries = 0
        self.lookup_alternate_hits = 0
        self.publishes_unreachable = 0
        #: Cached metrics handles, rebound when the current registry
        #: changes (routing is hot; a name lookup per hop would show up).
        self._metrics_registry = None
        self._hops_histogram = None
        self._counters: Optional[_Counters] = None
        #: Architecture seams (repro.arch): an optional placement strategy
        #: remapping directory keys, and an optional routing policy
        #: offering extra next-hop candidates.  Both default to None — the
        #: plain-Pastry behaviour — and candidates from the policy pass
        #: through the same monotone progress rule as structural hops.
        self._placement = None
        self._routing_policy = None
        #: ``(start_id, key, avoid) -> (responsible, path)`` as ``_route``
        #: computed it on the current ring.  Only membership changes and a
        #: new routing policy alter what ``_route`` reads, so exactly those
        #: empty it.  Nothing is remembered while a policy is installed:
        #: its candidates come from state outside the ring.
        self._route_memo: Dict[
            Tuple[int, int, FrozenSet[int]], Tuple[int, Tuple[int, ...]]
        ] = {}

    # --- membership -------------------------------------------------------
    def set_liveness(self, liveness: Optional[Callable[[int], bool]]) -> None:
        """Install (or clear) the liveness oracle used by publish/lookup."""
        self._liveness = liveness

    def set_placement(self, placement) -> None:
        """Install (or clear) a placement strategy (repro.arch).

        ``placement.map_key(key)`` remaps every directory key at the
        publish/lookup boundary; entries are stored and re-homed under
        the mapped key, so both sides agree without coordination.
        """
        self._placement = placement

    def set_routing_policy(self, policy) -> None:
        """Install (or clear) a routing policy offering shortcut hops."""
        self._routing_policy = policy
        self._route_memo.clear()

    def _map_key(self, key: int) -> int:
        if self._placement is None:
            return key
        return self._placement.map_key(key)

    def _is_live(self, node_id: int) -> bool:
        return self._liveness is None or self._liveness(node_id)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node_ids(self) -> List[int]:
        return list(self._nodes)

    def _require(self, node_id: int) -> _OverlayNode:
        node = self._nodes.get(node_id)
        if node is None:
            raise DhtError(f"node {node_id:#x} is not in the overlay")
        return node

    def join(self, node_id: int, bootstrap_id: Optional[int] = None) -> RouteResult:
        """Add a node, building its state from the join route.

        Pastry join: route a join message from the bootstrap node toward the
        joiner's own ID; every node on the path contributes routing rows,
        and the final (numerically closest) node donates its leaf set.
        Entries the new node is now responsible for are shifted to it.
        """
        if node_id in self._nodes:
            raise DhtError(f"node {node_id:#x} already joined")
        new_node = _OverlayNode(
            node_id=node_id,
            routing_table=RoutingTable(node_id),
            leaf_set=LeafSet(node_id, LEAF_HALF_SIZE),
        )
        if not self._nodes:
            self._nodes[node_id] = new_node
            self._ring.append(node_id)
            self._route_memo.clear()
            return RouteResult(responsible=node_id, path=[node_id])

        if bootstrap_id is None:
            bootstrap_id = next(iter(self._nodes))
        route = self.route(bootstrap_id, node_id)

        # Harvest state from the join path.
        for hop_id in route.path:
            hop = self._nodes[hop_id]
            new_node.routing_table.consider(hop_id)
            new_node.leaf_set.consider(hop_id)
            for known in hop.routing_table.known_nodes():
                new_node.routing_table.consider(known)
        closest = self._nodes[route.responsible]
        new_node.leaf_set.consider_all(closest.leaf_set.members())
        new_node.leaf_set.consider(closest.node_id)

        self._nodes[node_id] = new_node
        insort(self._ring, node_id)
        # Announce the joiner to its new neighbourhood.
        for member_id in list(new_node.leaf_set.members()) + list(
            new_node.routing_table.known_nodes()
        ):
            member = self._nodes.get(member_id)
            if member is not None:
                member.leaf_set.consider(node_id)
                member.routing_table.consider(node_id)

        # Periodic leaf-set maintenance, run eagerly at churn events: nodes
        # the join announcement did not reach would otherwise keep routing
        # around the joiner, delivering keys it is now responsible for to
        # the old owner.
        self._repair_leaf_sets()
        self._route_memo.clear()
        self._shift_entries_to_new_node(new_node)
        return route

    def leave(self, node_id: int) -> List[TransferRecord]:
        """Remove a node; its entries shift to the next-closest live nodes.

        Returns the transfers performed (a departing node hands its entries
        over, which is the churn cost Sec. 3.2 calls out).
        """
        departing = self._require(node_id)
        # Leaf sets are repaired *before* re-homing so the surviving ring
        # agrees on responsibility while entries move.
        self._remove_member(node_id)

        transfers: List[TransferRecord] = []
        for key, entry in departing.entries.items():
            if not self._nodes:
                break
            new_home = self._responsible_node(key)
            self._nodes[new_home].entries[key] = entry
            record = TransferRecord(
                from_node=node_id,
                to_node=new_home,
                key=key,
                size_bytes=entry.size_bytes(),
            )
            transfers.append(record)
            self.transfer_log.append(record)
        # Responsibility can also shift for entries on *surviving* nodes
        # (e.g. an entry the departed node had delivered to a neighbour
        # while leaf sets were still converging).  Sweep and re-home them
        # as part of the same repair round.
        transfers.extend(self._rehome_misplaced_entries())
        return transfers

    def fail(self, node_id: int) -> None:
        """Abrupt failure: the node vanishes *with* its entries (no handover).

        Entries it held are lost until owners republish — the adverse
        scenario behind Fig. 9's availability dip.
        """
        self._require(node_id)
        self._remove_member(node_id)

    def _remove_member(self, node_id: int) -> None:
        del self._nodes[node_id]
        del self._ring[bisect_left(self._ring, node_id)]
        for other in self._nodes.values():
            other.leaf_set.remove(node_id)
            other.routing_table.remove(node_id)
        self._repair_leaf_sets()
        self._route_memo.clear()

    def _repair_leaf_sets(self) -> None:
        """Offer every node its true ring neighbours (periodic repair).

        Real Pastry nodes periodically exchange leaf sets with their
        neighbours, which converges each set to the actual ``l/2`` nearest
        nodes per side.  The simulation runs that maintenance eagerly at
        every churn event: a leaf set can be *full* yet stale (holding
        one-sided or distant members harvested from an old join path), and
        such sets silently misroute keys near ring boundaries — so repair
        must not be limited to sets that have thinned below capacity.
        """
        ordered = self._ring
        n = len(ordered)
        if n <= 1:
            return
        for index, node_id in enumerate(ordered):
            node = self._nodes[node_id]
            for offset in range(1, LEAF_HALF_SIZE + 1):
                node.leaf_set.consider(ordered[(index + offset) % n])
                node.leaf_set.consider(ordered[(index - offset) % n])

    def _rehome_misplaced_entries(self) -> List[TransferRecord]:
        """Move every entry stored away from its responsible node home."""
        transfers: List[TransferRecord] = []
        for node in list(self._nodes.values()):
            moved = [
                key
                for key in node.entries
                if self._responsible_node(key) != node.node_id
            ]
            for key in moved:
                entry = node.entries.pop(key)
                new_home = self._responsible_node(key)
                self._nodes[new_home].entries[key] = entry
                record = TransferRecord(
                    from_node=node.node_id,
                    to_node=new_home,
                    key=key,
                    size_bytes=entry.size_bytes(),
                )
                transfers.append(record)
                self.transfer_log.append(record)
        return transfers

    # --- routing ------------------------------------------------------------
    def _metrics(self) -> "_Counters":
        """Bind the hop histogram and the counter cache to the *current*
        registry (cached until it changes); returns the counters."""
        registry = get_registry()
        if registry is not self._metrics_registry:
            self._metrics_registry = registry
            self._hops_histogram = registry.histogram(
                "dht.route.hops", buckets=_HOP_BUCKETS
            )
            self._counters = _Counters(registry)
        return self._counters

    def route(
        self, start_id: int, key: int, avoid: FrozenSet[int] = frozenset()
    ) -> RouteResult:
        """Prefix-route ``key`` from ``start_id``; returns path and owner.

        ``avoid`` excludes nodes from consideration as next hops, so a
        retry can steer around an unreachable responsible node and
        terminate at the next-closest live candidate instead.  Routing
        stays structural otherwise (no per-hop liveness checks) — the
        final node is the closest *non-avoided* overlay member.

        A route already computed on the current ring is answered from the
        memo; every call still returns its own :class:`RouteResult` and is
        observed, profiled and counted like a computed one.
        """
        self._metrics()
        if PROFILER.enabled:
            with PROFILER.span("dht.route"):
                result = self._remembered_route(start_id, key, avoid)
        else:
            result = self._remembered_route(start_id, key, avoid)
        self._hops_histogram.observe(len(result.path) - 1)
        return result

    def _remembered_route(
        self, start_id: int, key: int, avoid: FrozenSet[int]
    ) -> RouteResult:
        if self._routing_policy is not None:
            return self._route(start_id, key, avoid)
        memo = self._route_memo
        remembered = memo.get((start_id, key, avoid))
        if remembered is not None:
            return RouteResult(remembered[0], list(remembered[1]))
        result = self._route(start_id, key, avoid)
        if len(memo) >= ROUTE_MEMO_ENTRIES:
            memo.clear()
        memo[start_id, key, avoid] = (result.responsible, tuple(result.path))
        return result

    def _route(self, start_id: int, key: int, avoid: FrozenSet[int]) -> RouteResult:
        current = self._require(start_id)
        path = [current.node_id]
        for _ in range(MAX_ROUTE_HOPS):
            next_id = self._next_hop(current, key, avoid)
            if next_id is None or next_id == current.node_id:
                return RouteResult(responsible=current.node_id, path=path)
            current = self._nodes[next_id]
            path.append(next_id)
        raise DhtError(f"routing loop for key {key:#x} from {start_id:#x}")

    def _next_hop(
        self, node: _OverlayNode, key: int, avoid: FrozenSet[int] = frozenset()
    ) -> Optional[int]:
        """One Pastry routing step from ``node`` toward ``key``.

        Every hop must strictly decrease ``(ring_distance to key, node id)``
        — the same total order :meth:`_responsible_node` minimises.  Pure
        prefix-progress hops that move numerically *away* from the key are
        rejected; mixing them with leaf-set hops is what allowed two nodes
        with different leaf-set views to bounce a message between each
        other forever.  With the monotone rule, routing provably
        terminates, and accurate leaf sets make the final node the
        numerically closest one.
        """
        nodes = self._nodes
        own_order = (ring_distance(node.node_id, key), node.node_id)

        # Routing-policy shortcuts (repro.arch): the best *improving*
        # candidate the policy offers.  Filtered through the same monotone
        # order as every structural hop, so a policy can only shorten
        # routes — it cannot create loops or change the responsible node.
        best: Optional[int] = None
        best_order = own_order
        if self._routing_policy is not None:
            for candidate in self._routing_policy.extra_candidates(
                node.node_id, key
            ):
                if candidate not in nodes or candidate in avoid:
                    continue
                order = (ring_distance(candidate, key), candidate)
                if order < best_order:
                    best = candidate
                    best_order = order

        # Leaf-set range: deliver to the numerically closest member.
        # Otherwise the routing table: match one more prefix digit (if
        # that makes numeric progress too).
        leaf_set = node.leaf_set
        in_leaf_range = leaf_set.covers(key) or not len(leaf_set)
        if in_leaf_range:
            hop = leaf_set.closest_to(key)
        else:
            hop = node.routing_table.next_hop(key)
        if hop is not None and hop in nodes and hop not in avoid:
            order = (ring_distance(hop, key), hop)
            if order < own_order:
                return best if best_order < order else hop
        if in_leaf_range and not avoid:
            return best
        # Rare case (a stale table entry, or the closest member is being
        # avoided so the route must settle on an alternate): the closest
        # known node, if it is strictly closer to the key.
        known = sorted([
            candidate
            for candidate in node.routing_table.known_nodes() + leaf_set.members()
            if candidate in nodes and candidate not in avoid
        ])
        if known:
            closest = closest_on_ring(known, key)
            if (ring_distance(closest, key), closest) < best_order:
                return closest
        return best

    def _responsible_node(self, key: int) -> int:
        """Ground-truth responsibility: numerically closest live node."""
        if not self._ring:
            raise DhtError("overlay is empty")
        return closest_on_ring(self._ring, key)

    # --- directory operations -------------------------------------------------
    def publish(self, from_id: int, key: int, entry: DirectoryEntry) -> RouteResult:
        """Publish an entry under ``key``; stale versions never overwrite.

        When a liveness oracle is installed and the responsible node is
        unreachable, the entry is *not* stored anywhere else (that would
        misplace it) — the route comes back ``delivered=False`` and the
        caller backs off and republishes later.
        """
        key = self._map_key(key)
        counters = self._metrics()
        route = self.route(from_id, key)
        counters["dht.publishes"].inc()
        if not self._is_live(route.responsible):
            self.publishes_unreachable += 1
            counters["dht.publishes.unreachable"].inc()
            logger.debug(
                "publish of key %#x from %#x: responsible %#x unreachable",
                key, from_id, route.responsible,
            )
            route.delivered = False
            return route
        home = self._nodes[route.responsible]
        existing = home.entries.get(key)
        if existing is None or entry.version >= existing.version:
            home.entries[key] = entry
        return route

    def lookup(self, from_id: int, key: int) -> Tuple[Optional[DirectoryEntry], RouteResult]:
        """Look up the entry stored under ``key``.

        If the responsible node is unreachable (per the liveness oracle),
        the lookup retries via alternate next-hops — re-routing around
        every home found dead so far — up to ``lookup_max_alternates``
        times, and asks every alternate it routes to.  An alternate may
        well hold the entry (re-homed during an incomplete churn repair);
        if every candidate is down the result is ``(None, route)`` with
        ``delivered=False``.
        """
        key = self._map_key(key)
        counters = self._metrics()
        counters["dht.lookups"].inc()
        route = self.route(from_id, key)
        avoid: FrozenSet[int] = frozenset()
        for alternates_left in range(self.lookup_max_alternates, -1, -1):
            if self._is_live(route.responsible):
                entry = self._nodes[route.responsible].entries.get(key)
                if avoid and entry is not None:
                    self.lookup_alternate_hits += 1
                    counters["dht.lookups.alternate_hits"].inc()
                self._trace_lookup(key, route, len(avoid), found=entry is not None)
                return entry, route
            if not alternates_left:
                break
            self.lookup_retries += 1
            counters["dht.lookups.retries"].inc()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.emit(
                    "retry", kind="dht_lookup",
                    dest=route.responsible, attempt=len(avoid) + 1,
                    reason="responsible-unreachable",
                )
            avoid = avoid | {route.responsible}
            if len(avoid) >= len(self._nodes):
                break
            rerouted = self.route(from_id, key, avoid=avoid)
            if rerouted.responsible in avoid:
                break  # no further alternates reachable from here
            route = rerouted
        route.delivered = False
        counters["dht.lookups.failed"].inc()
        self._trace_lookup(key, route, len(avoid), found=False)
        return None, route

    def _trace_lookup(
        self, key: int, route: RouteResult, alternates: int, found: bool
    ) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(
                "dht_lookup",
                key=key,
                responsible=route.responsible,
                hops=list(route.path),
                delivered=route.delivered,
                alternates=alternates,
                found=found,
            )

    def entries_at(self, node_id: int) -> Dict[int, DirectoryEntry]:
        return dict(self._require(node_id).entries)

    def _shift_entries_to_new_node(self, new_node: _OverlayNode) -> None:
        """Move entries the joiner is now responsible for onto it."""
        for other in list(self._nodes.values()):
            if other.node_id == new_node.node_id:
                continue
            moved = [
                key
                for key in other.entries
                if self._responsible_node(key) == new_node.node_id
            ]
            for key in moved:
                entry = other.entries.pop(key)
                new_node.entries[key] = entry
                self.transfer_log.append(
                    TransferRecord(
                        from_node=other.node_id,
                        to_node=new_node.node_id,
                        key=key,
                        size_bytes=entry.size_bytes(),
                    )
                )

    # --- validation helpers (tests) -----------------------------------------
    def misplaced_entries(self) -> List[int]:
        """Keys stored away from their responsible node (should be empty)."""
        wrong = []
        for node in self._nodes.values():
            for key in node.entries:
                if self._responsible_node(key) != node.node_id:
                    wrong.append(key)
        return wrong
