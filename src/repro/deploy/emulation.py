"""The 31-node deployment emulation (paper Sec. 7).

Builds the deployment exactly as described: 31 users, 4 on (simulated)
Android phones relaying through a single gateway that doubles as the
bootstrap node, the rest on desktops.  Real :class:`SoupNode` instances run
the full middleware over the metered network; the measured workload drives
friendships, photos and messages; selection rounds run periodically.

Outputs map to the paper's figures:

* Fig. 14a — DHT control traffic at the bootstrap node: spikes on join/
  leave (entry shifting + state transfer), lookups invisible.
* Fig. 14b — the busiest user's traffic: profile distribution to mirrors
  and album publishing dominate; messaging ≈ idle link.
* Fig. 14c — mirror-set variance per selection round, stabilizing at ~1
  (the random exploration node).
* Availability: the paper observed no data loss; the emulation verifies
  every profile request succeeded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import SoupConfig
from repro.deploy.cluster import Cluster
from repro.deploy.workload import WorkloadEvent, build_workload
from repro.network.events import EventLoop
from repro.network.simnet import SimNetwork
from repro.network.transport import SERVER_LINK
from repro.node.middleware import SoupNode
from repro.node.profile import DataItem, sample_item_size
from repro.sim.metrics import ReliabilityMetrics

#: Bytes of Pastry state handed to a joining node (routing rows + leaf set).
_JOIN_STATE_BYTES = 24_000


def _identity(node_id: int) -> int:
    """Deployment nodes join the overlay under their SOUP id directly."""
    return node_id


class _DeploymentView:
    """Duck-typed engine view over a live deployment.

    :meth:`SuperPeerEconomy.begin_round` reads uptime, capacities, and
    electability; the deployment serves them as dicts keyed by (sparse)
    SOUP ids instead of the simulator's dense arrays.
    """

    def __init__(self, deployment: "Deployment") -> None:
        self._deployment = deployment
        self.capacities = {
            user.node_id: user.mirror_manager.store.capacity_profiles
            for user in deployment.users
        }

    def observed_uptime(self, epoch: int) -> Dict[int, float]:
        elapsed = max(self._deployment._elapsed_s, 1e-9)
        return {
            node_id: min(1.0, seconds / elapsed)
            for node_id, seconds in self._deployment._online_seconds.items()
        }

    def is_electable(self, node_id: int) -> bool:
        node = self._deployment.cluster.nodes.get(node_id)
        return (
            node is not None and node.joined and node.online and not node.is_mobile
        )


@dataclass
class DeploymentReport:
    """Everything the emulation measured."""

    n_users: int
    n_mobile: int
    friendships: int
    photos_shared: int
    messages_sent: int
    profile_requests: int
    profile_failures: int
    #: (second, KB/s) at the bootstrap/gateway node (Fig. 14a).
    gateway_series: List[Tuple[int, float]] = field(default_factory=list)
    #: (second, KB/s) of the busiest user (Fig. 14b).
    busiest_user_series: List[Tuple[int, float]] = field(default_factory=list)
    busiest_user: str = ""
    #: Mean |M_t Δ M_{t-1}| per selection round (Fig. 14c).
    mirror_variance_by_round: List[float] = field(default_factory=list)
    #: Reliability-layer counters aggregated over every node's endpoint
    #: (retries, give-ups, failure declarations, circuit transitions).
    reliability: Optional[ReliabilityMetrics] = None
    #: Which pluggable architecture ran, and its per-component metrics
    #: (same ``{component: {metric: value}}`` shape as the simulator's
    #: ``SimulationResult.arch``).
    architecture: str = "soup"
    arch_metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def availability(self) -> float:
        if self.profile_requests == 0:
            return 1.0
        return 1.0 - self.profile_failures / self.profile_requests


class Deployment:
    """A scripted SOUP deployment over the simulated network."""

    def __init__(
        self,
        n_desktop: int = 27,
        n_mobile: int = 4,
        seed: int = 7,
        config: Optional[SoupConfig] = None,
        key_bits: int = 512,
        architecture: str = "soup",
    ) -> None:
        if n_desktop < 1:
            raise ValueError("need at least one desktop node (the gateway)")
        self.rng = random.Random(seed)
        self.config = config or SoupConfig()
        self.loop = EventLoop()
        self.network = SimNetwork(self.loop)
        self.cluster = Cluster(
            self.network,
            self.rng,
            config=self.config,
            key_bits=key_bits,
            # Sec. 7: "All phones were relaying via the same gateway node"
            # — the study pinned phones to the gateway, so regular users
            # refuse relays (the limit every regular node can set).
            mobile_relay_limit=0,
        )
        self.overlay = self.cluster.overlay
        self.users = self.cluster.users
        self.n_desktop = n_desktop
        self.n_mobile = n_mobile

        # Pluggable architecture (repro.arch): the same strategy objects
        # the simulator uses, installed on the *real* overlay and nodes.
        from repro.arch import create_architecture

        self.arch = create_architecture(architecture)
        if self.arch.placement is not None:
            self.overlay.set_placement(self.arch.placement)
        if self.arch.routing is not None:
            self.overlay.set_routing_policy(self.arch.routing)
        #: Cumulative per-node online seconds (the deployment's uptime
        #: observation for super-peer election).
        self._online_seconds: Dict[int, float] = {}
        self._elapsed_s = 0.0

    # ------------------------------------------------------------------
    def _join_new(self, name: str, **overrides) -> None:
        node = self.cluster.add(name, **overrides)
        if self.arch.selection is not None:
            node.mirror_manager.selection_strategy = self.arch.selection
        node.read_cache = self.arch.read_path
        self._online_seconds[node.node_id] = 0.0
        self.cluster.join(node)
        self._charge_join(node)

    def build(self, join_spread_s: float = 45.0) -> None:
        """Create and join all nodes; the first desktop is the gateway.

        Joins are staggered over ``join_spread_s`` so each one's control
        spike is individually visible in the Fig. 14a series.
        """
        self._join_new("gateway", link=SERVER_LINK)
        joiners = [(f"user{index:02d}", False) for index in range(1, self.n_desktop)]
        # "All phones were relaying via the same gateway node."
        joiners += [(f"mobile{index:02d}", True) for index in range(self.n_mobile)]
        step = join_spread_s / max(1, len(joiners))
        for name, is_mobile in joiners:
            self.loop.run_until(self.loop.now + step)
            self._join_new(name, is_mobile=is_mobile)
        self.loop.run_until(self.loop.now + 1.0)

    def _charge_control(self, from_node: int, to_node: int, size_bytes: int) -> None:
        """Charge one DHT transfer to both ends' control meters."""
        now = self.loop.now
        self.network.control_meter(from_node).record_sent(now, size_bytes)
        self.network.control_meter(to_node).record_received(now, size_bytes)

    def _charge_transfers(self, records) -> None:
        for record in records:
            self._charge_control(record.from_node, record.to_node, record.size_bytes)

    def _charge_join(self, node: SoupNode) -> None:
        """Account the join cost: state transfer + shifted entries.

        This is what makes joins visible as the 20-40 KB/s spikes at the
        bootstrap node in Fig. 14a.
        """
        if node.is_mobile:
            return
        gateway_id = self.cluster.gateway.node_id
        if node.node_id != gateway_id:
            self._charge_control(gateway_id, node.node_id, _JOIN_STATE_BYTES)
        self._charge_transfers(self.overlay.transfer_log)
        self.overlay.transfer_log.clear()

    # ------------------------------------------------------------------
    def run(
        self,
        duration_s: float = 1800.0,
        selection_rounds: int = 15,
        workload: Optional[List[WorkloadEvent]] = None,
    ) -> DeploymentReport:
        """Drive the workload and periodic selection rounds; measure."""
        if not self.users:
            self.build()
        users = self.users
        if workload is None:
            workload = build_workload(len(users), duration_s, self.rng)

        report = DeploymentReport(
            n_users=len(users),
            n_mobile=sum(1 for u in users if u.is_mobile),
            friendships=0,
            photos_shared=0,
            messages_sent=0,
            profile_requests=0,
            profile_failures=0,
        )

        round_interval = duration_s / selection_rounds
        next_round = round_interval
        previous_sets: Dict[int, set] = {u.node_id: set() for u in users}
        event_index = 0
        current = self.loop.now
        step = 1.0

        # A few leave/rejoin churn events mid-run: the paper observes DHT
        # utilization "only upon join and leave operations" (Fig. 14a).
        churn_candidates = [u for u in users[1:] if not u.is_mobile]
        churn_schedule: List[Tuple[float, str, SoupNode]] = []
        if churn_candidates:
            for i in range(min(3, len(churn_candidates))):
                victim = churn_candidates[-(i + 1)]
                leave_at = duration_s * (0.35 + 0.18 * i)
                churn_schedule.append((leave_at, "leave", victim))
                churn_schedule.append((leave_at + 120.0, "rejoin", victim))
        churn_schedule.sort(key=lambda item: item[0])
        churn_index = 0

        while current < duration_s:
            while (
                churn_index < len(churn_schedule)
                and churn_schedule[churn_index][0] <= current
            ):
                _, action, victim = churn_schedule[churn_index]
                churn_index += 1
                if action == "leave" and victim.node_id in self.overlay:
                    transfers = self.overlay.leave(victim.node_id)
                    victim.go_offline()
                    self.overlay.transfer_log.clear()
                    self._charge_transfers(transfers)
                elif action == "rejoin" and victim.node_id not in self.overlay:
                    self.overlay.join(victim.node_id, users[0].node_id)
                    victim.go_online()
                    self._charge_join(victim)
            # Social events due in this step.
            while (
                event_index < len(workload)
                and workload[event_index].time_s <= current
            ):
                self._apply_event(workload[event_index], report)
                event_index += 1

            # Periodic selection rounds (Fig. 14c measures their variance).
            if current >= next_round:
                self._begin_arch_round(len(report.mirror_variance_by_round))
                diffs = []
                for user in users:
                    user.exchange_experience_sets()
                for user in users:
                    accepted = set(user.run_selection_round())
                    diffs.append(
                        len(accepted.symmetric_difference(previous_sets[user.node_id]))
                    )
                    previous_sets[user.node_id] = accepted
                report.mirror_variance_by_round.append(
                    sum(diffs) / max(1, len(diffs))
                )
                next_round += round_interval

            for user in users:
                if user.online:
                    self._online_seconds[user.node_id] += step
            self._elapsed_s = current + step
            current += step
            self.loop.run_until(current)

        gateway = users[0]
        # Fig. 14a shows "the bandwidth consumption of the DHT at our
        # bootstrapping node": control traffic only, not user data.
        report.gateway_series = self.network.control_meter(
            gateway.node_id
        ).series_kb_per_s(0, int(duration_s))

        # The busiest user by peak traffic, excluding the gateway.
        busiest = max(
            users[1:],
            key=lambda u: self.network.meters[u.node_id].peak_kb_per_s(),
            default=gateway,
        )
        report.busiest_user = busiest.name
        report.busiest_user_series = self.network.meters[
            busiest.node_id
        ].series_kb_per_s(0, int(duration_s))
        report.reliability = self._aggregate_reliability()
        report.architecture = self.arch.name
        report.arch_metrics = self.arch.metrics()
        return report

    def _begin_arch_round(self, round_index: int) -> None:
        """Architecture hooks at a selection-round boundary.

        The social map is rebound so anchors track newly formed
        friendships — every node republishes its entry in the same round,
        so publish and lookup agree on the remapped keys again before the
        next read.  Super-peer election sees uptime observed so far.
        """
        arch = self.arch
        if arch.placement is not None or arch.routing is not None:
            friends_of = {
                u.node_id: sorted(u.social.friends()) for u in self.users
            }
            if arch.placement is not None:
                arch.placement.bind_social_graph(friends_of, _identity)
            if arch.routing is not None:
                arch.routing.bind_social_graph(friends_of, _identity)
        if arch.selection is not None:
            arch.selection.begin_round(_DeploymentView(self), round_index)

    def _aggregate_reliability(self) -> ReliabilityMetrics:
        """Roll every node's endpoint counters (including circuit-breaker
        transitions) into one :class:`ReliabilityMetrics`."""
        metrics = ReliabilityMetrics()
        for user in self.users:
            endpoint = user.reliability
            metrics.transfer_retries += endpoint.stats.retries
            metrics.transfer_giveups += endpoint.stats.give_ups
            metrics.deaths_declared += endpoint.detector.deaths_declared
            metrics.revivals += endpoint.detector.revivals
            metrics.repairs_triggered += user.mirror_manager.repairs_triggered
            metrics.repair_replacements += user.mirror_manager.repair_replacements
            for key, count in endpoint.breaker.transitions.items():
                metrics.circuit_transitions[key] = (
                    metrics.circuit_transitions.get(key, 0) + count
                )
        return metrics

    # ------------------------------------------------------------------
    def _apply_event(self, event: WorkloadEvent, report: DeploymentReport) -> None:
        actor = self.users[event.actor % len(self.users)]
        target = self.users[event.target % len(self.users)]
        if actor is target or not actor.online:
            return
        if event.kind == "friendship":
            if actor.befriend(target.node_id):
                actor.contact(target.node_id)
                target.contact(actor.node_id)
                report.friendships += 1
        elif event.kind == "photo":
            size = sample_item_size("photo", self.rng)
            actor.post_item(DataItem.photo(size_bytes=size, created_at=self.loop.now))
            report.photos_shared += 1
        elif event.kind == "album":
            # A photo album: a burst of photos published at once — the
            # dominant bandwidth event of Fig. 14b.
            for _ in range(24):
                size = sample_item_size("photo", self.rng)
                actor.post_item(
                    DataItem.photo(size_bytes=size, created_at=self.loop.now)
                )
            report.photos_shared += 24
        elif event.kind == "message":
            if actor.send_message(target.node_id, f"hi from {actor.name}"):
                report.messages_sent += 1
        elif event.kind == "profile_view":
            report.profile_requests += 1
            album = self.rng.random() < 0.1
            size = 400_000 if album else None
            if not actor.request_profile(target.node_id, fetch_bytes=size):
                report.profile_failures += 1
        else:
            raise ValueError(f"unknown workload event kind {event.kind!r}")
