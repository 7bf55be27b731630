"""The SOUP node middleware: all managers wired together (Sec. 6, Fig. 12).

A :class:`SoupNode` is one participant: it joins the overlay (or relays via
a gateway if mobile), publishes its directory entry, maintains its profile,
selects mirrors and pushes encrypted replicas to them, serves as a mirror
for others, buffers updates for offline users, and exchanges experience
sets with friends.

Protocol decisions (store/reject, profile serving) are evaluated
synchronously against the peer's state, while every byte crosses the
metered network, so Sec. 7's traffic figures hold.  Held messages and their
collection are the exception: the receiver of a signed frame decides.
"""

from __future__ import annotations

import logging
import random
from typing import Callable, Iterable, List, Optional, Set, Tuple

from repro.obs import get_registry, get_tracer
from repro.obs.profiling import PROFILER

logger = logging.getLogger("repro.node.middleware")

from repro.core.config import SoupConfig
from repro.core.objects import ObjectType, SoupObject
from repro.core.ranking import Recommendation
from repro.crypto.keys import KeyPair
from repro.dht.bootstrap import BootstrapRegistry
from repro.dht.pastry import DhtError, PastryOverlay
from repro.dht.storage import DirectoryEntry
from repro.network.reliability import FailureDetector, ReliableEndpoint
from repro.network.transport import DESKTOP_LINK, MOBILE_LINK, LinkSpec, Transport
from repro.node.application_manager import ApplicationManager
from repro.node.interface_manager import InterfaceManager
from repro.node.mirror_manager import MirrorManager
from repro.node.profile import DataItem, Profile
from repro.node.security_manager import SecurityManager
from repro.node.social_manager import SocialManager
from repro.node.devices import DeviceGroup
from repro.node.sync import PendingUpdate

#: Encryption expands a replica slightly (ABE header + MAC + shares).
_ENCRYPTION_OVERHEAD_BYTES = 2_048
#: Size of a plain profile-browse response (recent items, not the full
#: profile) — matching Sec. 7's "simple profile requests do not consume a
#: lot of bandwidth".
_PROFILE_VIEW_BYTES = 40_000


class SoupNode:
    """One SOUP participant (middleware + demo application surface)."""

    def __init__(
        self,
        name: str,
        network: Transport,
        overlay: PastryOverlay,
        registry: BootstrapRegistry,
        peer_resolver: Callable[[int], Optional["SoupNode"]],
        config: Optional[SoupConfig] = None,
        keys: Optional[KeyPair] = None,
        seed: Optional[int] = None,
        is_mobile: bool = False,
        link: Optional[LinkSpec] = None,
        capacity_profiles: float = 50.0,
        key_bits: int = 512,
        mobile_relay_limit: int = 4,
        crypto_mode: str = "full",
    ) -> None:
        # RSA is the only signature scheme; the keyword survives for
        # callers that still pass ``crypto_mode="full"``.
        if crypto_mode != "full":
            raise ValueError(f"crypto_mode must be 'full', got {crypto_mode!r}")
        self.name = name
        self.config = config or SoupConfig()
        self.rng = random.Random(seed)
        self.keys = keys or KeyPair.generate(bits=key_bits, seed=seed)
        self.node_id = self.keys.soup_id
        self.is_mobile = is_mobile
        self._peer = peer_resolver

        self.network = network
        self.overlay = overlay
        self.registry = registry

        self.security = SecurityManager(self.keys)
        self.social = SocialManager(self.node_id, self.security)
        self.applications = ApplicationManager(self.node_id)
        self.mirror_manager = MirrorManager(
            owner_id=self.node_id,
            config=self.config,
            capacity_profiles=capacity_profiles,
            rng=self.rng,
            # Mobile devices do not mirror by default (Sec. 7), though users
            # can opt in (e.g. a WiFi-connected tablet).
            mirroring_enabled=not is_mobile,
        )
        self.interface = InterfaceManager(
            owner_id=self.node_id,
            network=network,
            overlay=overlay,
            is_mobile=is_mobile,
        )

        self.profile = Profile(owner_id=self.node_id)
        self.devices = DeviceGroup(self.node_id)
        self.joined = False
        self.online = False
        self._entry_version = 0
        #: How many mobile nodes this (regular) node is willing to relay
        #: for ("every regular node can set a limit to mobile connections",
        #: Sec. 3.3).
        self.mobile_relay_limit = mobile_relay_limit
        self.relayed_mobiles: set = set()
        #: Inbound objects refused (:meth:`_refuse`, reasons in PROTOCOL.md §12).
        self.dropped_objects = 0
        #: ``(source, sequence)`` of the requests and relayed messages acted on.
        self._seen: Set[Tuple[int, int]] = set()
        #: Optional :class:`repro.arch.ReadPathStrategy` installed by the
        #: deployment (shared across nodes); ``None`` keeps every profile
        #: read on the owner/mirror path.  The cache's epoch clock ticks
        #: every ``read_cache_epoch_s`` simulated seconds.
        self.read_cache = None
        self.read_cache_epoch_s = 60.0

        #: Reliability layer: acknowledged sends with retry/backoff, a
        #: per-destination circuit breaker, and a failure detector whose
        #: dead-mirror verdicts trigger proactive replica repair.
        self.reliability = ReliableEndpoint(
            node_id=self.node_id,
            network=network,
            inner_handler=self._handle_network,
            detector=FailureDetector(
                on_dead=self._on_peer_dead, on_alive=self._on_peer_alive
            ),
            seed=seed if seed is not None else self.node_id,
        )
        self.interface.endpoint = self.reliability
        self._repairing = False

        if link is None:
            link = MOBILE_LINK if is_mobile else DESKTOP_LINK
        network.register(
            self.node_id,
            self.reliability.handle_message,
            link=link,
            on_failure=self.reliability.handle_network_failure,
        )
        network.set_online(self.node_id, False)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def join(self, bootstrap_id: Optional[int] = None) -> None:
        """Join SOUP via a bootstrap node (Sec. 3.2 / 3.3)."""
        if self.joined:
            raise RuntimeError(f"{self.name} already joined")
        if bootstrap_id is None and len(self.registry):
            bootstrap_id = self.registry.pick(self.rng)

        self.network.set_online(self.node_id, True)
        self.online = True

        if self.is_mobile:
            if bootstrap_id is None:
                raise RuntimeError("a mobile node needs a gateway to join")
            self.interface.set_gateway(bootstrap_id)
        else:
            self.overlay.join(self.node_id, bootstrap_id)
        self.joined = True
        self.publish_entry()

    def make_bootstrap_node(self) -> None:
        """Advertise this (regular) node as a public bootstrap node."""
        if self.is_mobile:
            raise ValueError("mobile nodes cannot bootstrap others")
        self.registry.register(self.node_id)

    def go_offline(self) -> None:
        if not self.online:
            return
        self.online = False
        self.network.set_online(self.node_id, False)

    def go_online(self) -> None:
        """Return online: re-publish interfaces and collect buffered updates."""
        if self.online:
            return
        self.online = True
        self.network.set_online(self.node_id, True)
        if self.joined:
            self.publish_entry()
            self.collect_updates()

    def shutdown(self, graceful: bool = True) -> None:
        """Stop this node for good (lifecycle hook for deployment runtimes).

        ``graceful=True`` leaves the overlay cleanly first (directory
        entries are re-homed, Sec. 3.2); ``graceful=False`` models a kill:
        the node just goes dark and the ring discovers the loss through
        failure detection.  Either way the node stays registered with the
        transport so in-flight timers referencing it fail softly
        ("sender-offline") instead of raising."""
        if graceful and not self.is_mobile and self.node_id in self.overlay:
            self.overlay.leave(self.node_id)
        self.go_offline()
        self.joined = False

    def _reachable(self, peer_id: int) -> bool:
        """Whether active network chaos (a partition or a SIGSTOP-style
        pause) blocks traffic to ``peer_id``.  Serving decisions conjoin
        this with the peer's online state, so the protocol sees chaos
        identically on both network backends; with no chaos applied it is
        always true and behavior is bit-identical to the pre-seam code."""
        return not self.network.is_paused(peer_id) and not self.network.partitioned(
            self.node_id, peer_id
        )

    def _probe(self, peer_id: int) -> bool:
        """Liveness probe (PROTOCOL.md §11): online, and no chaos blocks it."""
        peer = self._peer(peer_id)
        return peer is not None and peer.online and self._reachable(peer_id)

    # ------------------------------------------------------------------
    # directory
    # ------------------------------------------------------------------
    def publish_entry(self) -> None:
        self._ensure_gateway()
        self._entry_version += 1
        entry = DirectoryEntry(
            soup_id=self.node_id,
            name=self.name,
            interfaces=(f"sim://{self.node_id:016x}",),
            mirror_ids=tuple(self.mirror_manager.announced_mirrors),
            version=self._entry_version,
            public_key=self.keys.public,
        )
        self.interface.publish_entry(entry)

    def lookup_user(self, soup_id: int) -> Optional[DirectoryEntry]:
        self._ensure_gateway()
        entry, _ = self.interface.lookup_entry(soup_id)
        if entry is not None and entry.public_key is not None:
            self.security.learn_public_key(entry.soup_id, entry.public_key)
        return entry

    # ------------------------------------------------------------------
    # social operations (demo-application surface)
    # ------------------------------------------------------------------
    def befriend(self, other_id: int) -> bool:
        """Full friend-request handshake with attribute-key exchange."""
        if not self._probe(other_id):
            return False
        other = self._peer(other_id)
        self.social.initiate_request(other_id)
        request = self.applications.encapsulate(
            other_id, ObjectType.FRIEND_REQUEST, {"from": self.name}, self._now()
        )
        self.security.sign_object(request)
        self.interface.send_object(request)

        other.social.receive_request(self.node_id)
        their_key = other.social.accept_request(self.node_id)
        confirm = other.applications.encapsulate(
            self.node_id, ObjectType.FRIEND_CONFIRM, {"from": other.name}, self._now()
        )
        other.security.sign_object(confirm)
        other.interface.send_object(confirm)

        my_key = self.social.confirm_accepted(other_id)
        # Mutual attribute grants: each side can decrypt the other's data.
        self.security.receive_attribute_key(other_id, their_key)
        other.security.receive_attribute_key(self.node_id, my_key)
        # Friendship feeds the mirror-selection machinery on both sides.
        self.mirror_manager.set_friend(other_id)
        other.mirror_manager.set_friend(self.node_id)
        return True

    def contact(self, other_id: int) -> None:
        """Meet a node: exchange KB knowledge and (if bootstrapping) harvest
        mirror recommendations (Sec. 4.3).  Mobile nodes also probe every
        encountered regular node as a potential gateway (Sec. 3.3)."""
        other = self._peer(other_id)
        if other is None:
            return
        self.mirror_manager.learn_node(other_id, self.social.is_friend(other_id))
        other.mirror_manager.learn_node(self.node_id, other.social.is_friend(self.node_id))
        self.mirror_manager.receive_recommendations(
            other.mirror_manager.recommendations_for(self.node_id)
        )
        if self.is_mobile:
            self._maybe_switch_gateway(other)

    # ------------------------------------------------------------------
    # mobile gateway management (Sec. 3.3)
    # ------------------------------------------------------------------
    def accepts_mobile_relay(self, mobile_id: int) -> bool:
        """Whether this regular node will relay DHT requests for a mobile."""
        if self.is_mobile or not self.online or self.node_id not in self.overlay:
            return False
        return (
            mobile_id in self.relayed_mobiles
            or len(self.relayed_mobiles) < self.mobile_relay_limit
        )

    def _maybe_switch_gateway(self, candidate: "SoupNode") -> None:
        """Switch away from a bootstrap gateway when any capable regular
        node is encountered — "to reduce the load on bootstrapping nodes"."""
        current = self.interface.gateway_id
        if current is not None and current not in self.registry.all():
            return  # already on a non-bootstrap gateway
        if candidate.node_id in self.registry.all():
            return
        if not candidate.accepts_mobile_relay(self.node_id):
            return
        if current is not None:
            old = self._peer(current)
            if old is not None:
                old.relayed_mobiles.discard(self.node_id)
        candidate.relayed_mobiles.add(self.node_id)
        self.interface.set_gateway(candidate.node_id)

    def _ensure_gateway(self) -> None:
        """Fall back to a bootstrap gateway if the current one vanished.

        Raises :class:`~repro.dht.pastry.DhtError` when no live gateway
        exists at all — a mobile node without any relay is cut off from
        the directory.
        """
        if not self.is_mobile:
            return
        gateway = (
            self._peer(self.interface.gateway_id)
            if self.interface.gateway_id is not None
            else None
        )
        if gateway is not None and gateway.online and gateway.node_id in self.overlay:
            return
        for candidate_id in self.registry.all():
            candidate = self._peer(candidate_id)
            if (
                candidate is not None
                and candidate.online
                and candidate_id in self.overlay
            ):
                self.interface.set_gateway(candidate_id)
                return
        raise DhtError(
            f"mobile node {self.name} has no reachable gateway"
        )

    def send_message(self, dest_id: int, text: str) -> bool:
        """Deliver a message; offline recipients get it via their mirrors."""
        entry = self.lookup_user(dest_id)
        if entry is None:
            return False
        message = self.applications.encapsulate(
            dest_id, ObjectType.MESSAGE, {"text": text}, self._now()
        )
        self.security.sign_object(message)
        if self._probe(dest_id):
            self.interface.send_object(message)
            return True
        # Store-and-forward through the recipient's mirrors (Sec. 3.5).
        return self._deliver_update_via_mirrors(entry, message)

    # ------------------------------------------------------------------
    # data operations
    # ------------------------------------------------------------------
    def post_item(
        self,
        item: DataItem,
        device: Optional[str] = None,
        on_push_ack: Optional[Callable[[int, object], None]] = None,
        on_push_giveup: Optional[Callable[[int, object, str], None]] = None,
    ) -> None:
        """Add a data item and push the update to all mirrors.

        ``device`` names the posting device (see :meth:`attach_device`);
        mirrors retain the update in a per-owner log so the user's other
        devices can replay it (Sec. 3.5).  ``on_push_ack``/``on_push_giveup``
        observe the per-mirror reliable push outcome — the resilience
        harness uses them to track which updates were acknowledged (and
        must therefore survive, the "zero lost acked updates" gate).
        """
        self.profile.add_item(item)
        update = self.applications.encapsulate(
            self.node_id,
            ObjectType.UPDATE,
            {
                "action": "post_item",
                "item_id": item.item_id,
                "kind": item.kind,
                "size": item.size_bytes,
            },
            self._now(),
        )
        self.security.sign_object(update)
        pending = PendingUpdate(
            target_id=self.node_id,
            origin_id=self.node_id,
            timestamp=update.timestamp,
            sequence=update.sequence,
            payload=update.payload,
            size_bytes=item.size_bytes + _ENCRYPTION_OVERHEAD_BYTES,
        )
        if device is not None:
            replica = self.devices.device(device)
            replica.profile.add_item(item)
            replica.record_local(pending)
        with self.network.fan_out(update):
            for mirror_id in self.mirror_manager.announced_mirrors:
                mirror = self._peer(mirror_id)
                if mirror is None or not self._reachable(mirror_id):
                    continue
                self.interface.send_bytes_reliable(
                    mirror_id,
                    update,
                    item.size_bytes + _ENCRYPTION_OVERHEAD_BYTES,
                    on_ack=on_push_ack,
                    on_giveup=on_push_giveup,
                )
                mirror.mirror_manager.record_owner_update(self.node_id, pending)

    # ------------------------------------------------------------------
    # multi-device synchronization (Sec. 3.5)
    # ------------------------------------------------------------------
    def attach_device(self, device_name: str):
        """Register another personal device sharing this identity."""
        return self.devices.attach(device_name)

    def sync_device(self, device_name: str) -> List[PendingUpdate]:
        """Replay the mirror-retained update log onto one device.

        Returns the updates newly applied to that device.  Any online
        mirror holding the log can serve it; the transfer is metered.
        """
        replica = self.devices.device(device_name)
        for mirror_id in self.mirror_manager.announced_mirrors:
            if not self._probe(mirror_id):
                continue
            log = self._peer(mirror_id).mirror_manager.update_log_for(self.node_id)
            if log is None or len(log) == 0:
                continue
            fresh = replica.apply(log.entries())
            for update in fresh:
                self._transfer_from(mirror_id, update.size_bytes)
            return fresh
        return []

    def replica_size_bytes(self) -> int:
        return self.profile.size_bytes() + _ENCRYPTION_OVERHEAD_BYTES

    def request_profile(self, owner_id: int, fetch_bytes: Optional[int] = None) -> bool:
        """Fetch a user's (recent) data, preferring the owner, else mirrors.

        Observations about the owner's mirrors land in the experience set
        when the owner is a friend (Sec. 4.4).  With a read cache installed
        (``architecture = "cache"``), a fresh locally cached copy serves the
        read without touching owner or mirrors — and without producing any
        experience-set observations, the trade-off the head-to-head
        comparison measures.
        """
        cache = self.read_cache
        if cache is None:
            return self._request_profile_remote(owner_id, fetch_bytes)
        epoch = int(self._now() / self.read_cache_epoch_s)
        if cache.try_serve(self.node_id, owner_id, epoch):
            return True
        served = self._request_profile_remote(owner_id, fetch_bytes)
        cache.on_fetch(self.node_id, owner_id, epoch, served)
        return served

    def _request_profile_remote(
        self, owner_id: int, fetch_bytes: Optional[int] = None
    ) -> bool:
        entry = self.lookup_user(owner_id)
        if entry is None:
            return False
        size = fetch_bytes if fetch_bytes is not None else _PROFILE_VIEW_BYTES
        owner = self._peer(owner_id)
        record = self.social.is_friend(owner_id)

        if owner is not None and owner.online and self._reachable(owner_id):
            self._transfer_from(owner_id, size)
            if record:
                self._serving_mirrors(owner_id, entry.mirror_ids, record)
            return True

        serving = self._serving_mirrors(owner_id, entry.mirror_ids, record)
        if serving:
            self._transfer_from(serving[0], size)
            return True
        return False

    def _serving_mirrors(
        self, owner_id: int, mirror_ids: Iterable[int], record: bool
    ) -> List[int]:
        """The mirrors that are up and store the owner's replica; with
        ``record``, each check is also an experience observation."""
        serving: List[int] = []
        for mirror_id in mirror_ids:
            mirror = self._peer(mirror_id)
            serves = (
                mirror is not None
                and mirror.online
                and self._reachable(mirror_id)
                and mirror.mirror_manager.store.stores_for(owner_id)
            )
            if record:
                self.mirror_manager.observe_mirror(owner_id, mirror_id, serves)
            if serves:
                serving.append(mirror_id)
        return serving

    def _transfer_from(self, source_id: int, size_bytes: int) -> None:
        """Meter a data download from ``source_id`` to us."""
        response = SoupObject(
            source=source_id,
            dest=self.node_id,
            object_type=ObjectType.PROFILE_RESPONSE,
            payload=None,
            timestamp=self._now(),
        )
        self.network.send(source_id, self.node_id, response, size_bytes)

    # ------------------------------------------------------------------
    # mirror protocol
    # ------------------------------------------------------------------
    def exchange_experience_sets(self) -> int:
        """Send accumulated ES_u(w) to every friend w (Sec. 4.4)."""
        sent = 0
        friend_views = []
        for friend_id in self.social.friends():
            friend = self._peer(friend_id)
            if friend is None or not self._reachable(friend_id):
                # Unreachable friend: keep accumulating, exchange later.
                continue
            # Dropping-score exchange (Sec. 4.6), with or without reports.
            friend_views.append(friend.mirror_manager.store.stored_owner_view())
            batch = self.mirror_manager.hand_over(friend_id)
            if batch is None:
                continue
            exchange = self.applications.encapsulate(
                friend_id,
                ObjectType.ES_EXCHANGE,
                [
                    {
                        "mirror": mirror,
                        "observations": observations,
                        "availability": availability,
                    }
                    for mirror, observations, availability in batch.observations(
                        self.mirror_manager.config.o_max
                    )
                ],
                self._now(),
            )
            self.security.sign_object(exchange)
            self.interface.send_object(exchange)
            friend.mirror_manager.receive_batch(batch)
            sent += 1
        # Learn who stores at every reached friend at once.
        manager = self.mirror_manager
        manager.evict_blacklisted(manager.store.learn_friend_storage(*friend_views))
        return sent

    def run_selection_round(self) -> List[int]:
        """One full selection round: ingest reports, run Algorithm 1, place
        replicas, publish the new mirror set."""
        with PROFILER.span("node.selection_round"):
            return self._run_selection_round()

    def _run_selection_round(self) -> List[int]:
        if not self.joined or not self.online:
            return self.mirror_manager.announced_mirrors
        self.mirror_manager.ingest_pending_reports()

        exclude = set(self._offline_unreachable_ids())
        result = self.mirror_manager.run_selection(exclude=exclude)

        old = set(self.mirror_manager.announced_mirrors)
        new = set(result.mirrors)
        for dropped_id in old - new:
            dropped = self._peer(dropped_id)
            if dropped is not None:
                dropped.mirror_manager.handle_withdraw(self.node_id)

        accepted: List[int] = []
        newly_accepted: List[int] = []
        for mirror_id in result.mirrors:
            if not self._probe(mirror_id):
                if mirror_id in old:
                    accepted.append(mirror_id)  # still holds our replica
                continue
            mirror = self._peer(mirror_id)
            if mirror.mirror_manager.store.stores_for(self.node_id):
                accepted.append(mirror_id)
                continue
            decision = mirror.mirror_manager.handle_store_request(
                self.node_id, is_friend=mirror.social.is_friend(self.node_id)
            )
            if decision.accepted:
                accepted.append(mirror_id)
                newly_accepted.append(mirror_id)
            else:
                self.mirror_manager.rejected_by.add(mirror_id)

        self._push_replicas(newly_accepted)
        # A node has no epochs: strategies see every commit at epoch 0.
        self.mirror_manager.commit(accepted, 0)
        self.publish_entry()
        # Mirrors verify the announced set against what they store.
        for mirror_id in accepted:
            mirror = self._peer(mirror_id)
            if mirror is not None:
                manager = mirror.mirror_manager
                manager.evict_blacklisted(
                    manager.store.observe_published_mirrors(self.node_id, accepted)
                )
        return accepted

    def _push_replicas(self, newly_accepted: List[int]) -> None:
        """Push the whole (encrypted) profile to each newly accepted mirror."""
        replica_bytes = self.replica_size_bytes()
        for mirror_id in newly_accepted:
            push = SoupObject(
                source=self.node_id,
                dest=mirror_id,
                object_type=ObjectType.REPLICA_PUSH,
                timestamp=self._now(),
            )
            self.interface.send_bytes_reliable(mirror_id, push, replica_bytes)
            self._note_replica_pushed(mirror_id, replica_bytes)

    def _note_replica_pushed(self, mirror_id: int, size_bytes: int) -> None:
        get_registry().counter("node.replicas.pushed").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(
                "replica_pushed",
                owner=self.node_id,
                mirror=mirror_id,
                bytes=size_bytes,
                t=self._now(),
            )

    # ------------------------------------------------------------------
    # proactive replica repair (reliability layer)
    # ------------------------------------------------------------------
    def _on_peer_dead(self, peer_id: int) -> None:
        """Failure-detector verdict: a peer stopped acking.  If it is one
        of our announced mirrors, repair the mirror set immediately instead
        of waiting for the next periodic selection round."""
        was_mirror = self.mirror_manager.mark_mirror_dead(peer_id)
        if was_mirror:
            get_registry().counter("node.mirrors.declared_dead").inc()
            logger.debug(
                "%s: mirror %#x declared dead, repairing", self.name, peer_id
            )
            tracer = get_tracer()
            if tracer.enabled:
                tracer.emit(
                    "failure_declared",
                    peer=peer_id,
                    by=self.node_id,
                    reason="mirror-unacked",
                    t=self._now(),
                )
        if was_mirror and self.joined and self.online and not self._repairing:
            self.repair_mirrors()

    def _on_peer_alive(self, peer_id: int) -> None:
        self.mirror_manager.mark_mirror_alive(peer_id)

    def repair_mirrors(self) -> List[int]:
        """Rerun selection and re-replicate after a mirror was declared
        dead.  Dead mirrors are excluded from the new set; when the
        candidate pool is exhausted the node degrades to a partial set
        (``mirror_manager.has_partial_set()``) rather than stalling."""
        if self._repairing or not (self.joined and self.online):
            return self.mirror_manager.announced_mirrors
        self._repairing = True
        try:
            old = set(self.mirror_manager.announced_mirrors)
            dead = sorted(self.mirror_manager.dead_mirrors & old)
            self.mirror_manager.repairs_triggered += 1
            get_registry().counter("node.repairs").inc()
            accepted = self.run_selection_round()
            replacements = len(set(accepted) - old)
            self.mirror_manager.repair_replacements += replacements
            tracer = get_tracer()
            if tracer.enabled:
                tracer.emit(
                    "repair_round",
                    owner=self.node_id,
                    dead=dead,
                    replacements=replacements,
                    t=self._now(),
                )
            return accepted
        finally:
            self._repairing = False

    def _offline_unreachable_ids(self) -> List[int]:
        """Nodes currently unreachable for a storage request — excluded from
        fresh selection.  Mirrors already holding our replica stay
        selectable while offline (the replica is already there)."""
        holding = set(self.mirror_manager.announced_mirrors)
        unreachable = []
        for node_id in self.mirror_manager.knowledge:
            if self._peer(node_id) is None or (
                not self._probe(node_id) and node_id not in holding
            ):
                unreachable.append(node_id)
        return unreachable

    # ------------------------------------------------------------------
    # update synchronization (Sec. 3.5)
    # ------------------------------------------------------------------
    def _deliver_update_via_mirrors(
        self, entry: DirectoryEntry, update_object: SoupObject
    ) -> bool:
        """Send an update for an offline user to her online mirrors and, for
        each offline one, to the first online mirror its entry names (Fig. 2)."""
        size = update_object.size_bytes()
        delivered = False
        with self.network.fan_out(update_object):
            for mirror_id in entry.mirror_ids:
                holder: Optional[int] = mirror_id
                if not self._probe(mirror_id):
                    # One hop further, to the offline mirror's mirrors.
                    mirror_entry = self.lookup_user(mirror_id)
                    subs = mirror_entry.mirror_ids if mirror_entry is not None else ()
                    holder = next((sub for sub in subs if self._probe(sub)), None)
                if holder is not None:
                    self.interface.send_bytes_reliable(holder, update_object, size)
                    delivered = True
        return delivered

    def collect_updates(self) -> None:
        """Ask each reachable mirror for what it held, by ``UPDATE_COLLECT``."""
        for mirror_id in self.mirror_manager.announced_mirrors:
            if not self._probe(mirror_id):
                continue
            request = self.applications.encapsulate(
                mirror_id, ObjectType.UPDATE_COLLECT, None, self._now()
            )
            self.security.sign_object(request)
            self.interface.send_bytes_reliable(mirror_id, request, request.size_bytes())

    def _hold(self, sender: int, message: SoupObject) -> None:
        """Hold a message for ``dest`` if its directory entry names this node,
        else for the first mirror it names whose replica this node stores."""
        entry = self._lookup_quietly(message.dest)
        mirrors = entry.mirror_ids if entry is not None else ()
        stores = self.mirror_manager.store.stores_for
        target = next((m for m in mirrors if stores(m)), None)
        if self.node_id in mirrors:
            target = message.dest
        elif target is None:
            self._refuse(sender, message, "not-held-here")
            return
        self.mirror_manager.update_buffer.add(PendingUpdate(
            target, message.source, message.timestamp, message.sequence,
            message, message.size_bytes(),
        ))

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _handle_network(self, sender: int, message: object) -> None:
        if not isinstance(message, SoupObject) or message.object_type not in (
            ObjectType.MESSAGE, ObjectType.FRIEND_REQUEST, ObjectType.FRIEND_CONFIRM,
            ObjectType.UPDATE_COLLECT,
        ):
            return
        kind, uid = message.object_type, (message.source, message.sequence)
        # "Requests ... must be encapsulated in an appropriately signed
        # SOUP object, and will otherwise be discarded" (Sec. 3.4).
        # Unknown senders are resolved through the directory first —
        # SOUP IDs are self-certifying.
        if not self.security.knows_public_key(message.source):
            self._lookup_quietly(message.source)
        if not self.security.verify_object(message):
            self._refuse(sender, message, "bad-signature")
        elif sender != message.source and (
            kind is not ObjectType.MESSAGE
            or sender not in self.mirror_manager.announced_mirrors
        ):
            # Only a message is relayed, by our mirror returning it to us.
            self._refuse(sender, message, "not-sender")
        elif message.dest != self.node_id:
            if kind is ObjectType.MESSAGE:
                self._hold(sender, message)
            else:
                self._refuse(sender, message, "not-addressed")
        elif uid in self._seen:
            # Each mirror that held a message returns it; else a replay.
            if kind is not ObjectType.MESSAGE:
                self._refuse(sender, message, "replay")
        elif kind is not ObjectType.UPDATE_COLLECT:
            if sender != message.source or kind is not ObjectType.MESSAGE:
                self._seen.add(uid)  # a direct message is sent once
            self.applications.deliver(message)
        else:
            # Drain the signer's queue, each object as its origin signed it.
            self._seen.add(uid)
            for held in self.mirror_manager.update_buffer.collect(sender):
                self.interface.send_bytes_reliable(sender, held.payload, held.size_bytes)

    def _lookup_quietly(self, soup_id: int) -> Optional[DirectoryEntry]:
        """:meth:`lookup_user`, but None where a mobile node has no gateway."""
        try:
            return self.lookup_user(soup_id)
        except DhtError:
            return None

    def _refuse(self, sender: int, obj: SoupObject, reason: str) -> None:
        """Count and trace an inbound object this node does not act on."""
        self.dropped_objects += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(
                "object_refused", node=self.node_id, sender=sender,
                kind=obj.object_type.value, reason=reason, t=self._now(),
            )

    def _now(self) -> float:
        return self.network.loop.now

    def __repr__(self) -> str:
        kind = "mobile" if self.is_mobile else "desktop"
        return f"<SoupNode {self.name} ({kind}) id={self.node_id:#x}>"
