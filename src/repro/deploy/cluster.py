"""One cluster builder: the only place a ``SoupNode`` is constructed and wired.

A SOUP cluster in this repo is N :class:`~repro.node.middleware.SoupNode`
middleware instances over one :class:`~repro.network.transport.Transport`
(simulated or live) that share three in-process objects: the
:class:`~repro.dht.pastry.PastryOverlay`, the
:class:`~repro.dht.bootstrap.BootstrapRegistry` and the resolver that maps
a SOUP id to the peer's Python object (``peer_resolver``, see the
``self._peer(id)`` table in ``docs/PROTOCOL.md``).  :class:`Cluster` owns
all three, so the deployment emulation, the resilience harness, the tests
and the examples build the cluster the same way — and the day the resolver
goes away it goes away here.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.core.config import SoupConfig
from repro.dht.bootstrap import BootstrapRegistry
from repro.dht.pastry import PastryOverlay
from repro.network.transport import Transport
from repro.node.middleware import SoupNode


class Cluster:
    """Nodes on one transport, plus the state they share in-process.

    ``node_defaults`` are :class:`SoupNode` keyword arguments applied to
    every node (``key_bits``, ``mobile_relay_limit``, ...); :meth:`add` overrides
    them per node.
    """

    def __init__(
        self,
        network: Transport,
        rng: random.Random,
        config: Optional[SoupConfig] = None,
        **node_defaults,
    ) -> None:
        self.network = network
        self.rng = rng
        self.config = config or SoupConfig()
        self.overlay = PastryOverlay()
        # Publish/lookup see the transport's real online state, so
        # republish backoff and lookup alternates engage under churn.
        self.overlay.set_liveness(network.is_online)
        self.registry = BootstrapRegistry()
        self.nodes: Dict[int, SoupNode] = {}
        #: Nodes and their ids in creation order.
        self.users: List[SoupNode] = []
        self.order: List[int] = []
        self._node_defaults = node_defaults

    def add(self, name: str, **overrides) -> SoupNode:
        """Construct one node (offline, not yet joined).

        Without an explicit ``seed=`` the node's seed is the next draw
        from the cluster's ``rng``, so a cluster is reproducible from one
        seed and the order nodes were added in.
        """
        options = {**self._node_defaults, **overrides}
        if "seed" not in options:
            options["seed"] = self.rng.randrange(2**31)
        node = SoupNode(
            name=name,
            network=self.network,
            overlay=self.overlay,
            registry=self.registry,
            peer_resolver=self.nodes.get,
            config=self.config,
            **options,
        )
        self.nodes[node.node_id] = node
        self.users.append(node)
        self.order.append(node.node_id)
        return node

    @property
    def gateway(self) -> SoupNode:
        """The first regular node: bootstrap node and mobile gateway."""
        return next(node for node in self.users if not node.is_mobile)

    def join(self, node: SoupNode) -> None:
        """Join one node; the gateway joins alone and registers as the
        public bootstrap node, everyone else joins through it."""
        if node is self.gateway:
            node.join()
            node.make_bootstrap_node()
        else:
            node.join(bootstrap_id=self.gateway.node_id)

    def join_all(self) -> None:
        """Join every node that has not joined yet, gateway first."""
        for node in [self.gateway] + self.users:
            if not node.joined:
                self.join(node)

    def befriend_ring(self, extra: int = 0) -> None:
        """Friendship ring in creation order (connected by construction)
        plus ``extra`` seeded random friendships per node."""
        n = len(self.order)
        for index, node in enumerate(self.users):
            node.befriend(self.order[(index + 1) % n])
        for index, node in enumerate(self.users):
            for _ in range(extra):
                other = self.rng.randrange(n - 1)
                if other >= index:
                    other += 1
                other_id = self.order[other]
                if not node.social.is_friend(other_id):
                    node.befriend(other_id)
