"""Mirror Manager: selection, replica pushes, and mirroring for others.

"The Mirror Manager module is responsible for the selection of mirrors.  A
node needs to push any change of its data to its mirrors, and it also needs
to manage the data that it mirrors for others" (Sec. 6).  The replication
state and the selection round are :class:`repro.core.selection.ReplicationState`,
shared with the simulator's nodes; this subclass adds what only a
protocol-level node has: instrumentation of the round, storage requests
from other nodes, update logs and repair bookkeeping.
"""

from __future__ import annotations

import logging
import random
from typing import Dict, Iterable, List, Optional

from repro.obs import get_registry, get_tracer

logger = logging.getLogger("repro.node.mirror_manager")

from repro.core.config import SoupConfig
from repro.core.dropping import StoreDecision
from repro.core.ranking import Recommendation
from repro.core.selection import ReplicationState, SelectionResult
from repro.node.devices import UpdateLog
from repro.node.sync import PendingUpdate, UpdateBuffer


class MirrorManager(ReplicationState):
    """Mirror-selection state and replica storage of one SOUP node."""

    def __init__(
        self,
        owner_id: int,
        config: SoupConfig,
        capacity_profiles: float,
        rng: random.Random,
        mirroring_enabled: bool = True,
    ) -> None:
        super().__init__(owner_id, config, capacity_profiles, rng)
        #: A node hands its announced set out as a list
        #: (``SoupNode.run_selection_round``), the empty one included.
        self.announced_mirrors: List[int] = []
        #: Mobile nodes disable mirroring by default (Sec. 7) but still
        #: select mirrors for their own data.
        self.mirroring_enabled = mirroring_enabled
        self.update_buffer = UpdateBuffer()
        #: Retained per-owner update logs for multi-device sync (Sec. 3.5).
        self.update_logs: Dict[int, UpdateLog] = {}
        #: Proactive-repair bookkeeping (PROTOCOL.md "Reliability & repair").
        self.repairs_triggered = 0
        self.repair_replacements = 0

    # --- knowledge -----------------------------------------------------
    def learn_node(self, node_id: int, is_friend: bool = False) -> None:
        if node_id != self.owner_id:
            self.knowledge.add_node(node_id, is_friend=is_friend)

    def set_friend(self, node_id: int) -> None:
        self.knowledge.set_friend(node_id)

    def receive_recommendations(self, recommendations: Iterable[Recommendation]) -> None:
        if not self.has_experience:
            self.bootstrap.add_recommendations(recommendations)

    def recommendations_for(self, requester: int) -> List[Recommendation]:
        """Suggest "the set of mirrors that works well for itself" with the
        quality the owner has measured (Sec. 4.3)."""
        return [
            Recommendation(
                recommender=self.owner_id,
                mirror=mirror,
                quality=self.knowledge.experience_of(mirror) or None,
            )
            for mirror in self.announced_mirrors
            if mirror != requester
        ]

    # --- experience ----------------------------------------------------------
    def observe_mirror(self, friend: int, mirror: int, success: bool) -> None:
        self.experience_set_for(friend).observe(mirror, success)

    # --- selection -------------------------------------------------------------
    def run_selection(self, exclude: Iterable[int] = ()) -> SelectionResult:
        """Run one selection with the ``exclude`` nodes unreachable (the
        node leaves mirrors already holding its replica out of it)."""
        result = self.select(set(exclude))
        registry = get_registry()
        registry.counter("node.selection.runs").inc()
        if result.estimated_error is not None:
            registry.histogram(
                "node.selection.error", buckets=(0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
            ).observe(result.estimated_error)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(
                "mirror_selected",
                owner=self.owner_id,
                mirrors=list(result.mirrors),
                estimated_error=result.estimated_error,
            )
        return result

    # --- reliability / proactive repair ---------------------------------------
    def mark_mirror_dead(self, mirror_id: int) -> bool:
        """Record a failure-detector verdict; True if the dead node is in
        the announced set (i.e. a repair is warranted)."""
        self.dead_mirrors.add(mirror_id)
        return mirror_id in self.announced_mirrors

    def mark_mirror_alive(self, mirror_id: int) -> None:
        self.dead_mirrors.discard(mirror_id)

    # --- storage for others ---------------------------------------------------
    def handle_store_request(self, owner: int, is_friend: bool) -> StoreDecision:
        if not self.mirroring_enabled:
            return StoreDecision(accepted=False, reason="mirroring disabled")
        decision = self.store.request_store(owner, is_friend=is_friend)
        if decision.dropped_owner is not None:
            get_registry().counter("node.replicas.evicted").inc()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.emit(
                    "replica_dropped",
                    owner=decision.dropped_owner,
                    mirror=self.owner_id,
                    reason="capacity",
                )
        return decision

    def evict_blacklisted(self, owners: Iterable[int]) -> None:
        """Forget the replicas the store has just dropped by blacklisting
        (Sec. 4.6): their update logs go too."""
        tracer = get_tracer()
        for owner in owners:
            self.update_logs.pop(owner, None)
            get_registry().counter("node.replicas.evicted").inc()
            if tracer.enabled:
                tracer.emit(
                    "replica_dropped",
                    owner=owner,
                    mirror=self.owner_id,
                    reason="blacklisted",
                )

    def handle_withdraw(self, owner: int) -> bool:
        self.update_logs.pop(owner, None)
        return self.store.remove(owner)

    # --- multi-device update log (Sec. 3.5) -----------------------------------
    def record_owner_update(self, owner: int, update: PendingUpdate) -> bool:
        """Retain an owner's update so any of her devices can replay it."""
        log = self.update_logs.get(owner)
        if log is None:
            log = UpdateLog()
            self.update_logs[owner] = log
        return log.append(update)

    def update_log_for(self, owner: int) -> Optional[UpdateLog]:
        return self.update_logs.get(owner)
