"""The epoch-based SOUP replication simulator (paper Sec. 5).

The simulator executes the real protocol objects from :mod:`repro.core` —
knowledge bases, experience sets, Eq. (1), Algorithm 1, protective dropping
— over a node population whose behaviour follows Sec. 5.1's models:
power-law online times with diurnal patterns, asynchronous joins,
exponentially decaying activity, and Gaussian storage.

Time advances in epochs (default: one hour).  Within an epoch, online nodes
interact: they contact other nodes (harvesting bootstrap recommendations)
and request friends' profiles from the friends' announced mirrors, recording
per-mirror success/failure into experience sets.  At the end of every
selection round (default: daily), nodes exchange experience sets with their
friends, apply Eq. (1), run Algorithm 1, place/withdraw replicas (subject to
protective dropping at the mirrors) and publish their new mirror sets.

Availability is measured every epoch as the fraction of joined benign users
whose data is reachable: the user is online, or some node that actually
stores their replica is online.
"""

from __future__ import annotations

import gc
import logging
import random
from contextlib import contextmanager
from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.obs import MetricsRegistry, get_tracer, pop_registry, push_registry
from repro.obs.analysis import (
    AnomalyConfig,
    detect_churn_storms,
    detect_mirror_flapping,
    detect_repair_loops,
)
from repro.obs.profiling import PROFILER

from repro.behavior.activity import ActivityModel
from repro.behavior.capacity import sample_capacities
from repro.behavior.churn import join_epochs, top_online_nodes
from repro.behavior.online import OnlineModel, sample_timezones
from repro.core.config import SoupConfig
from repro.core.ranking import Recommendation
from repro.core.selection import ReplicationState, below, choices
from repro.extensions.ties import TieStrengthModel, tie_weight, weigh_reports_by_tie
from repro.graphs.datasets import generate_dataset
from repro.graphs.friendship import FriendshipGraph
from repro.sim import invariants as invariants_mod
from repro.sim.attacks import FloodingAttack, SlanderAttack, sample_others
from repro.sim.faults import FaultInjector
from repro.sim.invariants import InvariantChecker
from repro.sim.metrics import ReliabilityMetrics, SimulationResult
from repro.sim.scenario import OnlineDistribution, ScenarioConfig, sample_distribution

if TYPE_CHECKING:
    import networkx as nx

    #: A graph over nodes ``0..n-1``: every node's friends come from one
    #: sort of a FriendshipGraph's rows, or from a networkx graph's
    #: ``neighbors(u)``, node by node.
    Graph = FriendshipGraph | nx.Graph

logger = logging.getLogger("repro.sim.engine")

#: Window (days) over which nodes join asynchronously (Sec. 5.1).
JOIN_WINDOW_DAYS = 1.0
#: Probability an interaction targets a friend (vs a random stranger).
FRIEND_CONTACT_PROBABILITY = 0.8
#: Friend profiles browsed per interaction session.  OSN interactions are
#: feed/profile-browsing sessions touching several friends [22, 23], which
#: is what feeds experience sets enough observations per exchange period
#: for Eq. (1) to average over.
PROFILES_PER_SESSION = 6
#: Silent (offline) epochs before repair declares an announced mirror dead:
#: half a day at 24 epochs/day, so diurnally-offline mirrors survive while
#: crashed ones, which never return, are always caught.
REPAIR_SUSPICION_EPOCHS = 12
#: Attempts per replica transfer under repair, the first included.
PUSH_RETRY_ATTEMPTS = 3


def _median(values: np.ndarray) -> float:
    """``np.median(values)`` bit for bit, for a non-empty array without
    NaN: the middle value, or the mean of the two.  ``np.median`` imports
    ``numpy.ma`` (+1.2 MB) for its NaN check on first use."""
    ordered = np.sort(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (float(ordered[middle - 1]) + float(ordered[middle])) / 2


@contextmanager
def collector_paused():
    """Disable the cyclic collector inside, restore ``gc.isenabled()`` after.

    The engine's heap is acyclic — reference counting frees all of it — so
    the collector's automatic passes over its long-lived objects only cost
    time: a fifth of ``run()`` and, in ``__init__``, a superlinear share of
    building the population — 10 tracked objects per node, since a
    knowledge base holds its friends in dicts the collector does not track
    and the mirror sets start as shared empty containers
    (docs/OBSERVABILITY.md).  Also a decorator.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class _NodeState(ReplicationState):
    """One simulated node: the replication state every SOUP node keeps
    (shared with ``MirrorManager``) plus what only the simulator tracks."""

    def __init__(
        self,
        node_id: int,
        friends: List[int],
        config: SoupConfig,
        capacity_profiles: float,
        rng: random.Random,
        is_altruist: bool = False,
        is_sybil: bool = False,
        is_traitor: bool = False,
    ) -> None:
        super().__init__(node_id, config, capacity_profiles, rng)
        self.node_id = node_id
        self.friends = friends
        self.knowledge.add_friends(friends)
        #: Consecutive silent epochs per announced mirror (suspicion levels).
        self.mirror_suspicion: Dict[int, int] = {}
        self.joined = False
        self.departed = False
        self.join_epoch = 0
        self.is_altruist = is_altruist
        self.is_slanderer = False
        self.is_sybil = is_sybil
        self.is_traitor = is_traitor


class SoupSimulation:
    """One simulation run over a friendship graph."""

    @collector_paused()
    def __init__(self, graph: Graph, config: ScenarioConfig) -> None:
        self.config = config
        self.soup = config.soup
        self.rng = random.Random(config.seed)
        self.np_rng = np.random.default_rng(config.seed)

        base_n = graph.number_of_nodes()
        self.n_base = base_n
        self.n_altruists = int(round(base_n * config.altruist_fraction))
        self.n_sybils = int(round(base_n * config.sybil_fraction))
        self.n_traitors = int(round(base_n * config.traitor_fraction))
        self.n_total = base_n + self.n_altruists + self.n_sybils + self.n_traitors

        self._build_population(graph)
        self._build_online_matrix()
        self._build_attacks()
        self._build_architecture()

        #: Membership flags mirrored into packed numpy arrays so the
        #: per-epoch passes (join activation, benign mask, reachability,
        #: interaction ages) are vector ops instead of full-population
        #: Python loops.  The arrays shadow the per-node flags bit-for-bit
        #: — every transition funnels through :meth:`note_departed` /
        #: :meth:`_activate_joins` — and the ``membership-columns-consistent``
        #: invariant checks that they do.
        self._col_joined = np.array([n.joined for n in self.nodes], dtype=bool)
        self._col_departed = np.array([n.departed for n in self.nodes], dtype=bool)
        self._col_benign = np.array(
            [not (n.is_sybil or n.is_traitor) for n in self.nodes], dtype=bool
        )
        self._col_join_epochs = np.array(
            [n.join_epoch for n in self.nodes], dtype=np.int64
        )

        #: Every (owner, mirror) replica as parallel arrays, flattened from
        #: the stores by :meth:`_rebuild_pairs` for the vector measurements.
        self._pair_owners = np.zeros(0, dtype=np.int64)
        self._pair_mirrors = np.zeros(0, dtype=np.int64)

        self.result = SimulationResult(
            n_nodes=self.n_total,
            n_epochs=config.n_epochs,
            epochs_per_day=config.epochs_per_day,
        )
        self._drops_this_round = 0
        self._placements_this_round = 0
        self._served_this_epoch: Dict[int, int] = {}
        self._epoch_now = 0
        #: Per-epoch views of the online matrix and the membership flags,
        #: built on first use in an epoch and shared by every node acting
        #: in it (see :meth:`_unreachable_at`, :meth:`_online_flags_at`).
        self._unreachable_epoch = -1
        self._unreachable_cache: Set[int] = set()
        self._online_flags_epoch = -1
        self._online_flags: List[bool] = []

        #: owner -> mirrors that dropped the owner's replica since the
        #: owner's last selection round.  The owner still announces them
        #: (it has not been told), which the invariant checker must not
        #: confuse with a genuinely lost transfer.
        self._stale_announced: Dict[int, Set[int]] = {}
        #: Optional fault-injection plan (deterministic; see repro.sim.faults).
        self.faults = FaultInjector.from_spec(config.faults, base_seed=config.seed)
        #: Reliability-layer counters (repair runs only).
        if config.repair:
            self.result.reliability = ReliabilityMetrics()
        #: owner -> epoch its replica set first fell into deficit (a mirror
        #: declared dead); cleared when fully restored, yielding the repair
        #: latency samples.
        self._deficit_since: Dict[int, int] = {}
        #: Optional per-epoch runtime invariant checker.
        self.invariant_checker: Optional[InvariantChecker] = (
            InvariantChecker(config.invariant_names)
            if (config.check_invariants or invariants_mod.FORCE_CHECKS)
            else None
        )
        #: Per-run metrics registry, installed as current for the duration
        #: of :meth:`run` and snapshotted per epoch into the result.
        self.metrics = MetricsRegistry()
        self._tracer = get_tracer()
        #: Per-owner count of epochs the owner's data was unreachable —
        #: the same flags the availability metric averages, so the trace
        #: analyzer's attribution table reconciles exactly against it.
        self._owner_unavailable_epochs = np.zeros(self.n_total, dtype=np.int64)
        #: In-engine event streams for the anomaly rules shared with
        #: repro.obs.analysis (repair loops, churn storms, flapping).
        self.anomaly_config = AnomalyConfig()
        self._repair_epochs_by_owner: Dict[int, List[int]] = {}
        self._drops_by_epoch: Dict[int, int] = {}
        self._mirror_toggles: Dict[Tuple[int, int], int] = {}
        # The collector owes a pass over a burst of long-lived objects.
        # With automatic collection paused since entry, what construction
        # built is all in the young generations: one pass over those moves
        # it to the oldest, without walking the rest of the process heap.
        gc.collect(1)

    # ------------------------------------------------------------------
    # invariant bookkeeping
    # ------------------------------------------------------------------
    def _trace_drop(self, owner: int, mirror: int, reason: str, epoch: int) -> None:
        self._drops_by_epoch[epoch] = self._drops_by_epoch.get(epoch, 0) + 1
        if self._tracer.enabled:
            self._tracer.emit(
                "replica_dropped", owner=owner, mirror=mirror,
                reason=reason, epoch=epoch,
            )

    def mark_stale_announcement(self, owner: int, mirror: int) -> None:
        """Record that ``mirror`` dropped ``owner``'s replica before the
        owner could rebuild its announced set."""
        self._stale_announced.setdefault(owner, set()).add(mirror)

    def note_departed(self, node_id: int) -> None:
        """Mark a node departed, keeping the packed flags in sync.

        Every departure — scheduled mass departure or injected crash —
        must go through here rather than writing ``node.departed``
        directly, or the packed arrays the engine measures from would
        disagree with the object state."""
        self.nodes[node_id].departed = True
        self._col_departed[node_id] = True
        if self.dht_probe is not None:
            self.dht_probe.on_depart(node_id)

    def stale_announcements_of(self, owner: int) -> Set[int]:
        return self._stale_announced.get(owner, set())

    def holds(self, mirror_id: int, owner: int) -> bool:
        """Whether ``mirror_id`` stores ``owner``'s replica where it can be
        reached.  The mirror's :class:`ReplicaStore` is the only record; a
        departed node's store stays frozen, but nobody reaches it."""
        mirror = self.nodes[mirror_id]
        return not mirror.departed and mirror.store.stores_for(owner)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_population(self, graph: Graph) -> None:
        config = self.config
        base_n = self.n_base

        probabilities = sample_distribution(
            config.online_distribution, base_n, self.np_rng
        )
        altruist_p = np.ones(self.n_altruists)
        # Sybils keep a solid online presence to press the attack.
        sybil_p = np.full(self.n_sybils, 0.5)
        # Traitors offer "exceptional online time" — until they vanish.
        traitor_p = np.ones(self.n_traitors)
        self.online_probabilities = np.concatenate(
            [probabilities, altruist_p, sybil_p, traitor_p]
        )

        self.timezones = sample_timezones(self.n_total, self.np_rng)
        capacities = sample_capacities(
            self.n_total,
            self.np_rng,
            median_profiles=self.soup.storage_median_profiles,
        )
        # Altruistic nodes contribute server-class storage (Sec. 5.2.4).
        capacities[base_n : base_n + self.n_altruists] = (
            10 * self.soup.storage_median_profiles
        )
        # Traitors bait selection with "exceptional storage capacities".
        first_traitor = base_n + self.n_altruists + self.n_sybils
        capacities[first_traitor:] = 10 * self.soup.storage_median_profiles
        #: Sampled storage capacities (profiles) — architecture strategies
        #: read these for slot accounting and elections.
        self.capacities = capacities

        if isinstance(graph, FriendshipGraph):
            friend_lists = graph.sorted_neighbor_lists()
        else:
            # A networkx graph (tests' hand-built worlds), read as given:
            # a self-loop reaches the knowledge base, which refuses it.
            friend_lists = [sorted(graph.neighbors(node)) for node in range(base_n)]
        friend_lists += [[] for _ in range(self.n_altruists)]
        # Sybils befriend each other (cheap) but not honest nodes — "malicious
        # identities usually have difficulties establishing social
        # connections to regular nodes" (Sec. 4.6).
        sybil_ids = range(base_n + self.n_altruists, first_traitor)
        friend_lists += [
            sample_others(sybil_ids, position, 5, self.rng)
            for position in range(self.n_sybils)
        ]
        friend_lists += [[] for _ in range(self.n_traitors)]

        self.nodes: List[_NodeState] = [
            _NodeState(
                node_id,
                friends,
                self.soup,
                capacity,
                self.rng,
                is_altruist=base_n <= node_id < sybil_ids.start,
                is_sybil=node_id in sybil_ids,
                is_traitor=node_id >= first_traitor,
            )
            for node_id, (friends, capacity) in enumerate(
                zip(friend_lists, capacities.tolist())
            )
        ]

        # Join schedule: base nodes and sybils join inside the bootstrap
        # window; altruists appear at their configured day (Fig. 8).
        window = max(1, int(JOIN_WINDOW_DAYS * config.epochs_per_day))
        joins = join_epochs(self.online_probabilities, window, self.np_rng)
        altruist_epoch = min(
            config.n_epochs - 1,
            int(config.altruist_join_day * config.epochs_per_day),
        )
        for node in self.nodes:
            node.join_epoch = (
                altruist_epoch if node.is_altruist else int(joins[node.node_id])
            )

        self.benign_ids = np.array(
            [n.node_id for n in self.nodes if not (n.is_sybil or n.is_traitor)],
            dtype=np.int64,
        )

    def _build_online_matrix(self) -> None:
        config = self.config
        model = OnlineModel(
            base_probabilities=self.online_probabilities,
            timezone_offsets=self.timezones,
            epoch_hours=24.0 / config.epochs_per_day,
        )
        self.online_matrix = model.generate_matrix(config.n_epochs, self.np_rng)

        # Mass departure (Fig. 9): the top-d nodes by online time go dark.
        if config.departure_fraction > 0.0:
            departure_epoch = int(config.departure_day * config.epochs_per_day)
            departing = top_online_nodes(
                self.online_probabilities[: self.n_base], config.departure_fraction
            )
            self.departure_epoch = departure_epoch
            self.departing_ids = set(departing)
            for node_id in departing:
                self.online_matrix[node_id, departure_epoch:] = False
        else:
            self.departure_epoch = None
            self.departing_ids = set()

        # Traitor betrayal (Sec. 4.4): perfect availability until the
        # betrayal day, then gone for good.
        if self.n_traitors > 0:
            betrayal_epoch = min(
                config.n_epochs - 1,
                int(config.betrayal_day * config.epochs_per_day),
            )
            self.betrayal_epoch = betrayal_epoch
            first_traitor = self.n_base + self.n_altruists + self.n_sybils
            self.online_matrix[first_traitor:, betrayal_epoch:] = False
        else:
            self.betrayal_epoch = None

        # Mask epochs before each node joins.
        for node in self.nodes:
            if node.join_epoch > 0:
                self.online_matrix[node.node_id, : node.join_epoch] = False

    def _build_attacks(self) -> None:
        config = self.config
        self.slander: Optional[SlanderAttack] = None
        if config.slander_fraction > 0.0:
            count = int(round(self.n_base * config.slander_fraction))
            attacker_ids = set(
                self.rng.sample(range(self.n_base), min(count, self.n_base))
            )
            self.slander = SlanderAttack(attacker_ids=attacker_ids)
            for attacker in attacker_ids:
                self.nodes[attacker].is_slanderer = True

        self.flooding: Optional[FloodingAttack] = None
        if self.n_sybils > 0:
            sybil_ids = {
                n.node_id for n in self.nodes if n.is_sybil
            }
            self.flooding = FloodingAttack(
                sybil_ids=sybil_ids, flood_requests=config.sybil_flood_requests
            )
            self._flood_candidates = self.flooding.benign_population(
                range(self.n_total)
            )

        # Tie-strength extension (Sec. 8): per-edge strengths; attacker
        # edges (infiltration) are weak, per the sybil-defense literature.
        self.ties = None
        if config.use_tie_strength:
            attacker_ids = (
                set(self.slander.attacker_ids) if self.slander is not None else set()
            )
            edges = {
                (node.node_id, friend)
                for node in self.nodes
                for friend in node.friends
                if node.node_id < friend
            }
            self.ties = TieStrengthModel()
            self.ties.assign(edges, self.np_rng, attacker_ids=attacker_ids)

    def _build_architecture(self) -> None:
        """Instantiate the configured architecture (repro.arch).

        The default ``"soup"`` run with ``measure_dht=False`` binds
        *nothing*: every per-epoch hook below stays behind an
        ``is not None`` check that is False, the strategies draw no RNG,
        and the equivalence suite keeps the path byte-identical.
        """
        config = self.config
        self.arch = None
        self.dht_probe = None
        self._selection_strategy = None
        self._read_path = None
        #: This epoch's ``read_path.serving`` flags as Python bools.
        self._serving_flags: List[bool] = []
        if config.architecture == "soup" and not config.measure_dht:
            return
        from repro.arch import create_architecture
        from repro.arch.dhtprobe import DhtProbe

        self.arch = create_architecture(config.architecture)
        self._selection_strategy = self.arch.selection
        if self._selection_strategy is not None:
            for node in self.nodes:
                node.selection_strategy = self._selection_strategy
        self._read_path = self.arch.read_path
        overlay_strategies = (
            self.arch.placement is not None or self.arch.routing is not None
        )
        # DHT-layer strategies are measured *on* the probe ring, so an
        # architecture that overrides placement/routing implies the probe.
        if config.measure_dht or overlay_strategies:
            self.dht_probe = DhtProbe(self.arch)
        if overlay_strategies:
            friends_of = {
                node.node_id: node.friends
                for node in self.nodes
                if node.node_id < self.n_base
            }
            for strategy in (self.arch.placement, self.arch.routing):
                if strategy is not None:
                    strategy.bind_social_graph(friends_of, self.dht_probe.dht_id)

    # ------------------------------------------------------------------
    # architecture view (read-only helpers for repro.arch strategies)
    # ------------------------------------------------------------------
    def observed_uptime(self, epoch: int) -> np.ndarray:
        """Per-node fraction of epochs spent online through ``epoch``."""
        return self.online_matrix[:, : epoch + 1].mean(axis=1)

    def is_electable(self, node_id: int) -> bool:
        """Joined, benign, not departed — eligible for super-peer duty."""
        return bool(
            self._col_joined[node_id]
            and not self._col_departed[node_id]
            and self._col_benign[node_id]
        )

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        config = self.config
        n_epochs = config.n_epochs
        round_period = config.round_period_epochs
        availability = np.zeros(n_epochs)
        overhead = np.zeros(n_epochs)
        logger.info(
            "run: nodes=%d epochs=%d repair=%s invariants=%s",
            self.n_total, n_epochs, config.repair,
            self.invariant_checker is not None,
        )

        cohorts = self._cohort_masks()
        cohort_series = {name: np.zeros(n_epochs) for name in cohorts}

        active_since_round: Set[int] = set()
        snapshot_epochs = {
            min(n_epochs - 1, day * config.epochs_per_day - 1): day
            for day in config.cdf_snapshot_days
        }

        self._tracer = get_tracer()
        push_registry(self.metrics)
        # One young-generation pass per epoch still bounds whatever cycles
        # a strategy or tracer might create while the collector is paused.
        try:
            with collector_paused():
                for epoch in range(n_epochs):
                    if PROFILER.enabled:
                        PROFILER.set_epoch(epoch)
                    with PROFILER.span("engine.epoch"):
                        self._run_epoch(
                            epoch, round_period, active_since_round,
                            availability, overhead, cohorts, cohort_series,
                            snapshot_epochs,
                        )
                        with PROFILER.span("engine.collect"):
                            gc.collect(1)
        finally:
            if PROFILER.enabled:
                PROFILER.set_epoch(None)
            pop_registry()

        self.result.availability = availability
        self.result.replica_overhead = overhead
        self.result.cohort_availability = cohort_series
        self.result.top_half_replica_share = self._top_half_share()
        self.result.blacklisted_owner_count = sum(
            len(node.store.blacklisted_owners()) for node in self.nodes
        )
        self.result.unavailable_owner_epochs = {
            int(owner): int(count)
            for owner, count in enumerate(self._owner_unavailable_epochs)
            if count
        }
        findings = (
            detect_repair_loops(self._repair_epochs_by_owner, self.anomaly_config)
            + detect_churn_storms(self._drops_by_epoch, self.anomaly_config)
            + detect_mirror_flapping(self._mirror_toggles, self.anomaly_config)
        )
        anomalies: Dict[str, int] = {}
        for finding in findings:
            anomalies[finding.rule] = anomalies.get(finding.rule, 0) + 1
        self.result.anomalies = anomalies
        for rule, count in sorted(anomalies.items()):
            self.metrics.counter(f"engine.anomaly.{rule}").inc(count)
        if self.arch is not None:
            from repro.arch import gini

            if self.dht_probe is not None:
                self.arch.extra_metrics["dht"] = self.dht_probe.metrics()
            groups = self.arch.metrics()
            # Storage-share fairness over benign nodes: how evenly the
            # hosting burden is spread (0 = equal, →1 = concentrated).
            if len(self._pair_mirrors):
                hosted = np.bincount(self._pair_mirrors, minlength=self.n_total)
            else:
                hosted = np.zeros(self.n_total, dtype=np.int64)
            storage = groups.setdefault("storage", {})
            storage["gini"] = gini(hosted[self.benign_ids])
            storage["top_half_share"] = self.result.top_half_replica_share
            self.result.arch = groups
        self.result.metrics = self.metrics.snapshot()
        logger.info(
            "run complete: steady availability=%.3f",
            self.result.steady_state_availability(),
        )
        return self.result

    def _run_epoch(
        self,
        epoch: int,
        round_period: int,
        active_since_round: Set[int],
        availability: np.ndarray,
        overhead: np.ndarray,
        cohorts: Dict[str, np.ndarray],
        cohort_series: Dict[str, np.ndarray],
        snapshot_epochs: Dict[int, int],
    ) -> None:
        """One epoch of the main loop (split out for phase profiling)."""
        if self.faults is not None:
            self.faults.on_epoch_start(self, epoch)
        online_now = self.online_matrix[:, epoch]
        self._epoch_now = epoch
        if self.dht_probe is not None:
            self.dht_probe.begin_epoch(epoch, online_now)
        if self._read_path is not None:
            self._read_path.begin_epoch(epoch)
            self._serving_flags = self._read_path.serving(online_now).tolist()
        self._activate_joins(epoch)
        online_ids = np.nonzero(online_now)[0]
        active_since_round.update(int(i) for i in online_ids)
        with PROFILER.span("engine.interactions"):
            self._run_interactions(epoch, online_ids)

        # A node without mirrors selects immediately instead of waiting
        # for the next round: "users are most active when they have just
        # joined" and gain a foothold right away (Sec. 4.3).
        pairs_dirty = False
        for node_id in online_ids:
            node = self.nodes[int(node_id)]
            if node.departed or not node.joined or node.is_sybil:
                continue
            if not node.announced_mirrors:
                self._select_and_place(node, epoch)
                pairs_dirty = True
        if self.config.repair:
            with PROFILER.span("engine.repair"):
                pairs_dirty |= self._run_repair(epoch, online_ids)
        if pairs_dirty:
            self._rebuild_pairs()

        if (epoch + 1) % round_period == 0:
            participants = [
                node_id
                for node_id in active_since_round
                if self.nodes[node_id].joined and not self.nodes[node_id].departed
            ]
            with PROFILER.span("engine.selection_round"):
                self._run_selection_round(participants, epoch)
            active_since_round.clear()
            self._rebuild_pairs()

        with PROFILER.span("engine.measure"):
            # The benign mask and availability flags are pure functions of
            # state frozen for the rest of the epoch, so the headline
            # measurement and every cohort share one computation.
            benign_mask = self._joined_benign_mask()
            flags = self._availability_flags(online_now)
            availability[epoch], overhead[epoch] = self._measure(
                epoch, benign_mask, flags
            )
            for name, cohort in cohorts.items():
                cohort_series[name][epoch] = self._measure_cohort(
                    cohort, benign_mask, flags
                )
        self.metrics.gauge("engine.availability").set(availability[epoch])
        self.metrics.gauge("engine.replica_overhead").set(overhead[epoch])

        if epoch in snapshot_epochs:
            day = snapshot_epochs[epoch]
            self.result.stored_profiles_snapshots[day] = [
                self.nodes[i].store.replica_count()
                for i in range(self.n_total)
                if not self.nodes[i].is_sybil
            ]

        if self.invariant_checker is not None:
            with PROFILER.span("engine.invariants"):
                try:
                    self.invariant_checker.check_epoch(self, epoch)
                except Exception as exc:
                    if self._tracer.enabled:
                        self._tracer.emit(
                            "invariant_checked",
                            epoch=epoch,
                            ok=False,
                            violation=str(exc).splitlines()[0],
                        )
                    raise
            if self._tracer.enabled:
                self._tracer.emit(
                    "invariant_checked",
                    epoch=epoch,
                    ok=True,
                    checks=len(self.invariant_checker.names),
                )
        self.result.metrics_by_epoch.append(self.metrics.snapshot_scalars())

    # ------------------------------------------------------------------
    # epoch phases
    # ------------------------------------------------------------------
    def _activate_joins(self, epoch: int) -> None:
        online_now = self.online_matrix[:, epoch]
        # A node joins the OSN at its first online appearance — it must be
        # online to contact a bootstrap node (Sec. 3.2).
        ready = np.nonzero(
            ~self._col_joined
            & ~self._col_departed
            & (self._col_join_epochs <= epoch)
            & online_now
        )[0]
        self._col_joined[ready] = True
        # Ascending node id: the order the shadow ring is built in.
        for node_id in ready.tolist():
            self.nodes[node_id].joined = True
            if self.dht_probe is not None:
                self.dht_probe.on_join(node_id)
        if self.departure_epoch is not None and epoch == self.departure_epoch:
            for node_id in self.departing_ids:
                node = self.nodes[node_id]
                self.note_departed(node_id)
                # A departing node's stored replicas become unreachable.
                for owner in node.store.stored_owners():
                    self.mark_stale_announcement(owner, node_id)
                    self._trace_drop(owner, node_id, "mirror-departed", epoch)

    def _run_interactions(self, epoch: int, online_ids: np.ndarray) -> None:
        """Online nodes contact others and request friends' profiles."""
        config = self.config
        if len(online_ids) == 0:
            return
        # Per-epoch serving load per mirror (Sec. 5.2.5 overload model).
        self._served_this_epoch = {}
        ages_days = np.maximum(
            0.0, (epoch - self._col_join_epochs[online_ids]) / config.epochs_per_day
        )
        rates = config.activity.rates_per_day(ages_days) / config.epochs_per_day
        counts = self.np_rng.poisson(rates)

        nodes = self.nodes
        for node_id, interactions in zip(online_ids.tolist(), counts.tolist()):
            node = nodes[node_id]
            if not node.joined or node.departed or node.is_sybil:
                continue
            if node.join_epoch == epoch:
                # Join burst: a fresh node contacts several nodes right away
                # (bootstrap node, early friends — Sec. 4.3).
                interactions += 5
            for _ in range(interactions):
                self._one_interaction(node, epoch)

    def _one_interaction(self, node: _NodeState, epoch: int) -> None:
        """One user session: contact a node, then browse friend profiles.

        The draws are ``rng.random()``, then ``rng.choice(friends)`` or
        ``rng.randrange(n_total)``, then ``rng.choices(friends, k=...)``,
        made by ``repro.core.selection``'s ``below`` and ``choices``."""
        uniform, getrandbits = self.rng.random, self.rng.getrandbits
        friends = node.friends
        if friends and uniform() < FRIEND_CONTACT_PROBABILITY:
            target_id = friends[below(len(friends), getrandbits)]
        else:
            target_id = below(self.n_total, getrandbits)
            if target_id == node.node_id:
                return
        target = self.nodes[target_id]
        if target.joined and not target.departed:
            # Meeting a node makes it (and us) known — KB entries both ways.
            node.knowledge.add_node(
                target_id, is_friend=node.knowledge.is_friend(target_id)
            )
            if not target.is_sybil:
                target.knowledge.add_node(node.node_id)
            # Bootstrapping nodes harvest recommendations from every contact.
            if not node.has_experience:
                self._collect_recommendations(node, target)

        # Feed browsing: request several friends' profiles, recording
        # per-mirror outcomes in the respective experience sets (Fig. 4).
        if not friends:
            return
        browsed = choices(friends, min(PROFILES_PER_SESSION, len(friends)), uniform)
        for friend_id in set(browsed):
            friend = self.nodes[friend_id]
            if friend.joined and not friend.departed:
                self._request_profile(node, friend, epoch)

    def _collect_recommendations(self, node: _NodeState, target: _NodeState) -> None:
        if target.is_slanderer and self.slander is not None:
            forged = self.slander.forge_recommendations(
                target.node_id, range(self.n_base), self.rng
            )
            node.bootstrap.add_recommendations(forged)
            return
        if target.is_sybil:
            # Sybils recommend fellow sybils to lure storage.
            picks = self.flooding.accomplices(target.node_id, self.rng)
            node.bootstrap.add_recommendations(
                Recommendation(target.node_id, pick, quality=1.0) for pick in picks
            )
            return
        for mirror in target.announced_mirrors:
            node.bootstrap.add_recommendation(
                Recommendation(
                    recommender=target.node_id,
                    mirror=mirror,
                    quality=target.knowledge.experience_of(mirror) or None,
                )
            )

    def _request_profile(self, node: _NodeState, friend: _NodeState, epoch: int) -> None:
        """Fetch a friend's data from its announced mirrors, recording the
        per-mirror outcome into ES_node(friend) (paper Fig. 4).

        With a configured service capacity, an overloaded mirror denies
        the request — which the requester observes exactly like an offline
        mirror, so overload feeds the rankings (Sec. 5.2.5).
        """
        if self.dht_probe is not None:
            # Shadow-ring directory lookup: measures hops/failures under
            # the active routing policy; never affects the fetch below.
            self.dht_probe.on_lookup(node.node_id, friend.node_id)
        read_path = self._read_path
        if read_path is not None and read_path.try_serve(
            node.node_id, friend.node_id, epoch
        ):
            # Cache hit: served locally, mirrors untouched — so the
            # experience set records *nothing* for this read.  Starving
            # Eq. (1) of observations is the cache tier's real trade-off.
            return
        friend_id = friend.node_id
        mirrors = friend.announced_mirrors
        # The read path decides which online mirrors serve (Safebook: only
        # those whose shell relay is online too).
        online_now = (
            self._online_flags_at(epoch) if read_path is None else self._serving_flags
        )
        nodes = self.nodes
        # A departed node is offline for good, so an online mirror's store
        # is the whole answer.
        outcomes = [
            online_now[mirror_id] and nodes[mirror_id].store.stores_for(friend_id)
            for mirror_id in mirrors
        ]
        capacity = self.config.mirror_request_capacity
        if capacity is not None:
            served_by = self._served_this_epoch
            for index, mirror_id in enumerate(mirrors):
                if outcomes[index]:
                    served = served_by.get(mirror_id, 0)
                    if served >= capacity:
                        outcomes[index] = False  # request denied: mirror overloaded
                    else:
                        served_by[mirror_id] = served + 1
        node.experience_set_for(friend_id).observe_fetch(mirrors, outcomes)
        if read_path is not None:
            read_path.on_fetch(node.node_id, friend_id, epoch, any(outcomes))

    # ------------------------------------------------------------------
    # selection rounds
    # ------------------------------------------------------------------
    def _run_selection_round(self, participants: List[int], epoch: int) -> None:
        self._drops_this_round = 0
        self._placements_this_round = 0
        if self._selection_strategy is not None:
            # Round boundary for the strategy (e.g. super-peer election
            # and slot refresh) — a pure function of the engine view.
            self._selection_strategy.begin_round(self, epoch)

        # Phase 1: experience-set exchanges (and dropping-score exchange).
        with PROFILER.span("engine.sync"):
            for node_id in participants:
                self._exchange_experience(self.nodes[node_id], epoch)

        # Phase 2: ingest reports, re-rank, run Algorithm 1, place replicas.
        churn_hist = self.metrics.histogram("engine.selection.churn")
        churn_total = 0
        churn_count = 0
        for node_id in participants:
            node = self.nodes[node_id]
            if node.is_sybil:
                continue
            self._ingest_reports(node, epoch)
            old_set = set(node.selected_mirrors)
            self._select_and_place(node, epoch)
            churn = len(old_set.symmetric_difference(node.selected_mirrors))
            churn_hist.observe(churn)
            churn_total += churn
            churn_count += 1

        # Phase 3: sybils flood (Fig. 11).
        if self.flooding is not None:
            for sybil_id in sorted(self.flooding.sybil_ids):
                node = self.nodes[sybil_id]
                if node.joined and not node.departed:
                    self._sybil_flood(node)

        # Phase 4: protective-dropping hygiene — every mirror verifies each
        # stored owner's *published* mirror set against reality (Sec. 4.6:
        # "if v observes a copy of w's data in itself, but v is not listed
        # in w's published mirror set").  This is what catches flooders at
        # nodes they never revisit.
        score_hist = self.metrics.histogram("engine.dropping.score")
        with PROFILER.span("engine.dropping"):
            for node_id in participants:
                node = self.nodes[node_id]
                for owner in node.store.stored_owners():
                    score = node.store.dropping_score(owner)
                    if score > 0.0:
                        score_hist.observe(score)
                    removed = node.store.observe_published_mirrors(
                        owner, self.nodes[owner].announced_mirrors
                    )
                    for removed_owner in removed:
                        self.mark_stale_announcement(removed_owner, node_id)
                        self._trace_drop(removed_owner, node_id, "mismatch", epoch)

        self.metrics.counter("engine.selection.rounds").inc()
        if churn_count:
            self.result.mirror_churn_by_round.append(churn_total / churn_count)
            logger.debug(
                "selection round at epoch %d: %d participants, mean churn %.2f",
                epoch, churn_count, churn_total / churn_count,
            )
        placed = max(1, self._placements_this_round)
        self.result.drop_rate_by_round.append(self._drops_this_round / placed)

    def _exchange_experience(self, node: _NodeState, epoch: int = 0) -> None:
        """Send ES_u(w) to every friend w; swap stored-owner lists."""
        nodes = self.nodes
        node_id = node.node_id
        o_max = self.soup.o_max
        ties = self.ties
        faults = self.faults
        slander = self.slander if node.is_slanderer else None
        store = node.store
        # A node that stores nothing has no dropping score to update (and
        # cannot start storing inside this loop).
        stores_any = store.replica_count() > 0
        friend_views = []
        for friend_id in node.friends:
            friend = nodes[friend_id]
            if not friend.joined or friend.departed:
                continue
            if slander is not None:
                # What the slanderer observed of this friend's mirrors is
                # handed over and discarded: only forgeries leave.
                node.hand_over(friend_id)
                reports = slander.forge_reports(
                    node_id, friend.announced_mirrors, o_max
                )
                if ties is not None and reports:
                    reports = weigh_reports_by_tie(reports, friend_id, ties)
            else:
                batch = node.hand_over(
                    friend_id, 1.0 if ties is None else tie_weight(ties, friend_id, node_id)
                )
                reports = []
                if batch is not None:
                    if faults is None:
                        # The counts themselves change hands: no report per
                        # mirror.
                        friend.receive_batch(batch)
                    else:
                        # The fault injector duplicates and reorders single
                        # reports.
                        reports = batch.reports(o_max)
            if faults is not None:
                reports = faults.tamper_reports(node_id, friend_id, reports, epoch)
            if reports:
                friend.receive_reports(reports)

            if stores_any:
                friend_views.append(friend.store.stored_owner_view())

        # Dropping-score exchange: learn who stores at every friend at once
        # (no store changes inside the loop above).
        if friend_views:
            for owner in store.learn_friend_storage(*friend_views):
                self.mark_stale_announcement(owner, node_id)

    def _ingest_reports(self, node: _NodeState, epoch: int = 0) -> None:
        if self.faults is not None and node.pending_reports:
            self.faults.shuffle_reports(node.node_id, node.pending_reports, epoch)
        node.ingest_pending_reports()

    def _select_and_place(self, node: _NodeState, epoch: int) -> None:
        """Run Algorithm 1 for one node and apply the outcome.

        Candidates that are unreachable right now (offline, departed, not
        yet joined) cannot receive a storage request, so the greedy stage
        skips them and fills the ε target from reachable candidates —
        except that mirrors already holding our replica stay selectable
        while offline (the replica is already there).
        """
        holding = {
            mirror_id
            for mirror_id in node.announced_mirrors
            if self.holds(mirror_id, node.node_id)
        }
        old_mirrors = set(node.selected_mirrors)  # select() replaces them
        with PROFILER.span("engine.selection"):
            result = node.select(self._unreachable_at(epoch), holding)
        if result.estimated_error is not None:
            self.metrics.histogram(
                "engine.selection.error",
                buckets=(0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0),
            ).observe(result.estimated_error)
        if self._tracer.enabled:
            self._tracer.emit(
                "mirror_selected",
                owner=node.node_id,
                mirrors=list(result.mirrors),
                estimated_error=result.estimated_error,
                epoch=epoch,
            )

        new_mirrors = node.selected_mirrors
        new_set = set(new_mirrors)
        for mirror_id in old_mirrors.symmetric_difference(new_set):
            pair = (node.node_id, mirror_id)
            self._mirror_toggles[pair] = self._mirror_toggles.get(pair, 0) + 1

        # Withdraw replicas from de-selected mirrors.
        for mirror_id in old_mirrors - new_set:
            mirror = self.nodes[mirror_id]
            if mirror.store.remove(node.node_id):
                self._trace_drop(node.node_id, mirror_id, "withdrawn", epoch)

        # Place replicas at newly selected mirrors.  The exclusion contract
        # keeps an offline mirror out of the selection unless it already
        # holds the replica; one a strategy picks anyway is skipped for the
        # round, as SoupNode skips it.
        online_now = self._online_flags_at(epoch)
        accepted: List[int] = []
        is_friend = node.knowledge.is_friend
        for mirror_id in new_mirrors:
            if self.holds(mirror_id, node.node_id) or (
                online_now[mirror_id]
                and self._push_replica(node, mirror_id, is_friend(mirror_id), epoch)
            ):
                accepted.append(mirror_id)

        node.commit(accepted, epoch)
        if self.dht_probe is not None:
            self.dht_probe.on_publish(node.node_id, accepted, epoch)
        # The owner has just rebuilt its announced set from live accepts, so
        # earlier drop notices are no longer pending for it.
        self._stale_announced.pop(node.node_id, None)

        # Mirrors still storing us but not announced would flag a mismatch;
        # honest owners announce exactly their accepted set, so only stale
        # storers (which we just withdrew from) could disagree.
        for mirror_id in accepted:
            removed = self.nodes[mirror_id].store.observe_published_mirrors(
                node.node_id, accepted
            )
            for owner in removed:
                self.mark_stale_announcement(owner, mirror_id)
                self._trace_drop(owner, mirror_id, "mismatch", epoch)

    def _unreachable_at(self, epoch: int) -> Set[int]:
        """Nodes no storage request can reach this epoch (offline, departed
        or not yet joined) — computed once per epoch, shared by every
        selecting node: to be asked ``in``, never copied or changed."""
        if self._unreachable_epoch == epoch:
            return self._unreachable_cache
        reachable = (
            self._col_joined & ~self._col_departed & self.online_matrix[:, epoch]
        )
        self._unreachable_cache = set(np.nonzero(~reachable)[0].tolist())
        self._unreachable_epoch = epoch
        return self._unreachable_cache

    def _online_flags_at(self, epoch: int) -> List[bool]:
        """The epoch's column of the online matrix as Python bools: the
        per-mirror reads of the hot loops index a list, not a NumPy array
        (which would box a scalar per read)."""
        if self._online_flags_epoch != epoch:
            self._online_flags = self.online_matrix[:, epoch].tolist()
            self._online_flags_epoch = epoch
        return self._online_flags

    def _push_replica(
        self, node: _NodeState, mirror_id: int, is_friend: bool, epoch: int
    ) -> bool:
        """Ask an online mirror to store ``node``'s replica and push it.

        Whether the replica landed as far as the owner can tell: the
        mirror accepted and the payload arrived — or, without repair, a
        fire-and-forget push was lost unnoticed, which the owner announces
        anyway (the stale announcement the invariant checker flags; acked
        transfers roll the acceptance back cleanly).  A rejection excludes
        the mirror from the owner's next selection.
        """
        mirror = self.nodes[mirror_id]
        decision = mirror.store.request_store(node.node_id, is_friend=is_friend)
        self._placements_this_round += 1
        if not decision.accepted:
            node.rejected_by.add(mirror_id)
            self.metrics.counter("engine.replicas.rejected").inc()
            return False
        if decision.dropped_owner is not None:
            self.mark_stale_announcement(decision.dropped_owner, mirror_id)
            self._drops_this_round += 1
            self.metrics.counter("engine.replicas.dropped").inc()
            self._trace_drop(decision.dropped_owner, mirror_id, "capacity", epoch)
        if not self._place_replica_payload(node.node_id, mirror_id, epoch):
            mirror.store.remove(node.node_id)
            return not self.config.repair
        self.metrics.counter("engine.replicas.placed").inc()
        if self._tracer.enabled:
            self._tracer.emit(
                "replica_pushed", owner=node.node_id, mirror=mirror_id, epoch=epoch
            )
        return True

    # ------------------------------------------------------------------
    # reliability layer: failure detection + proactive repair
    # ------------------------------------------------------------------
    def _run_repair(self, epoch: int, online_ids: np.ndarray) -> bool:
        """Per-epoch failure detection and repair for online owners.

        Every online owner probes its announced mirrors: a mirror that
        answers *with* the replica clears its suspicion; one that answers
        *without* it (lost transfer, capacity eviction) is declared dead on
        the spot; a silent (offline/departed) mirror accumulates suspicion
        until :data:`REPAIR_SUSPICION_EPOCHS`, then is declared dead.  Dead
        mirrors trigger an immediate reselection + re-replication instead
        of waiting for the next daily round.  Returns True when any
        replica moved.
        """
        rel = self.result.reliability
        assert rel is not None
        online_now = self._online_flags_at(epoch)
        dirty = False
        for raw_id in online_ids:
            node = self.nodes[int(raw_id)]
            if node.departed or not node.joined or node.is_sybil:
                continue
            dead_now: List[int] = []
            for mirror_id in list(node.announced_mirrors):
                mirror = self.nodes[mirror_id]
                if online_now[mirror_id] and not mirror.departed:
                    if mirror.store.stores_for(node.node_id):
                        node.mirror_suspicion.pop(mirror_id, None)
                    else:
                        # The probe answered without our replica: direct
                        # evidence, no suspicion ramp needed.
                        dead_now.append(mirror_id)
                else:
                    level = node.mirror_suspicion.get(mirror_id, 0) + 1
                    node.mirror_suspicion[mirror_id] = level
                    if level >= REPAIR_SUSPICION_EPOCHS:
                        dead_now.append(mirror_id)
            if dead_now:
                self._repair_owner(node, dead_now, epoch)
                dirty = True
            self._note_deficit_state(node, epoch)
            if node.has_partial_set():
                rel.partial_set_epochs += 1
            # A dead-declared mirror seen online again becomes selectable.
            for mirror_id in sorted(node.dead_mirrors):
                if online_now[mirror_id] and not self.nodes[mirror_id].departed:
                    node.dead_mirrors.discard(mirror_id)
                    rel.revivals += 1
                    self.metrics.counter("engine.repair.revivals").inc()
        return dirty

    def _repair_owner(
        self, node: _NodeState, dead_now: List[int], epoch: int
    ) -> None:
        """Replace dead mirrors immediately: withdraw, reselect, re-place."""
        rel = self.result.reliability
        assert rel is not None
        for mirror_id in dead_now:
            node.dead_mirrors.add(mirror_id)
            node.mirror_suspicion.pop(mirror_id, None)
            rel.deaths_declared += 1
            if self._tracer.enabled:
                self._tracer.emit(
                    "failure_declared",
                    peer=mirror_id, by=node.node_id, epoch=epoch,
                )
            # Withdraw whatever the mirror still holds (a spurious verdict
            # costs one re-replication, never a stale announcement).
            self.nodes[mirror_id].store.remove(node.node_id)
            if mirror_id in node.announced_mirrors:
                node.announced_mirrors = [
                    mirror for mirror in node.announced_mirrors if mirror != mirror_id
                ]
        self._deficit_since.setdefault(node.node_id, epoch)
        self._repair_epochs_by_owner.setdefault(node.node_id, []).append(epoch)
        rel.repairs_triggered += 1
        self.metrics.counter("engine.repair.rounds").inc()
        before = set(node.announced_mirrors)
        self._select_and_place(node, epoch)
        replacements = len(set(node.announced_mirrors) - before)
        rel.repair_replacements += replacements
        if self._tracer.enabled:
            self._tracer.emit(
                "repair_round",
                owner=node.node_id,
                dead=list(dead_now),
                replacements=replacements,
                epoch=epoch,
            )

    def _note_deficit_state(self, node: _NodeState, epoch: int) -> None:
        """Close an owner's deficit window once its set is fully restored:
        every selected mirror accepted and actually stores the replica."""
        since = self._deficit_since.get(node.node_id)
        if since is None:
            return
        rel = self.result.reliability
        assert rel is not None
        selected = set(node.selected_mirrors)
        restored = (
            bool(selected)
            and selected == set(node.announced_mirrors)
            and all(self.holds(mirror_id, node.node_id) for mirror_id in selected)
        )
        if restored:
            self._deficit_since.pop(node.node_id, None)
            rel.repair_latency_epochs.append(epoch - since)
            self.metrics.histogram("engine.repair.latency_epochs").observe(
                epoch - since
            )

    def _place_replica_payload(
        self, owner_id: int, mirror_id: int, epoch: int
    ) -> bool:
        """Whether the replica payload actually arrived at the mirror.

        Without repair, a transfer is fire-and-forget: one fault draw, and
        a drop goes unnoticed (the stale announcement the invariant
        checker flags).  With repair, transfers are acknowledged and
        retried up to :data:`PUSH_RETRY_ATTEMPTS` times — each retry re-draws
        the fault deterministically from the injector's stream.
        """
        if self.faults is None:
            return True
        if not self.faults.drop_transfer(owner_id, mirror_id, epoch):
            return True
        if not self.config.repair:
            return False
        rel = self.result.reliability
        assert rel is not None
        retry_counter = self.metrics.counter("engine.transfer.retries")
        for attempt in range(PUSH_RETRY_ATTEMPTS - 1):
            rel.transfer_retries += 1
            retry_counter.inc()
            if self._tracer.enabled:
                self._tracer.emit(
                    "retry",
                    kind="replica_transfer",
                    owner=owner_id, mirror=mirror_id,
                    attempt=attempt + 2, epoch=epoch,
                )
            if not self.faults.drop_transfer(owner_id, mirror_id, epoch):
                return True
        rel.transfer_giveups += 1
        self.metrics.counter("engine.transfer.giveups").inc()
        logger.debug(
            "replica transfer %d->%d gave up after %d attempts (epoch %d)",
            owner_id, mirror_id, PUSH_RETRY_ATTEMPTS, epoch,
        )
        return False

    def _sybil_flood(self, node: _NodeState) -> None:
        """One sybil's flooding round (Fig. 11).

        Not :meth:`_push_replica`: a flood counts no placed/dropped
        replica and traces no ``replica_dropped`` for what it evicts, and
        the ``adverse_blacklisting`` golden digest pins exactly that.
        """
        assert self.flooding is not None
        targets = self.flooding.flood_targets(
            node.node_id, self._flood_candidates, self.rng
        )
        accepted: List[int] = []
        for target_id in targets:
            target = self.nodes[target_id]
            if not target.joined or target.departed:
                continue
            if target.store.stores_for(node.node_id):
                accepted.append(target_id)
                continue
            decision = target.store.request_store(node.node_id, is_friend=False)
            self._placements_this_round += 1
            if decision.accepted:
                accepted.append(target_id)
                if decision.dropped_owner is not None:
                    self.mark_stale_announcement(decision.dropped_owner, target_id)
                    self._drops_this_round += 1

        # The sybil announces only a small subset; every other storer
        # observes a mismatch and raises the dropping score by c.
        announced = self.flooding.announced_set(accepted, self.rng)
        node.announced_mirrors = announced
        node.selected_mirrors = accepted
        self._stale_announced.pop(node.node_id, None)
        for mirror_id in accepted:
            removed = self.nodes[mirror_id].store.observe_published_mirrors(
                node.node_id, announced
            )
            for owner in removed:
                self.mark_stale_announcement(owner, mirror_id)

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def _rebuild_pairs(self) -> None:
        """Flatten the stores of every node that has not departed into
        parallel (owner, mirror) arrays, mirror-major in node id order."""
        stored = [
            () if node.departed else node.store.stored_owner_view()
            for node in self.nodes
        ]
        counts = np.fromiter(map(len, stored), dtype=np.int64, count=len(stored))
        self._pair_owners = np.fromiter(
            chain.from_iterable(stored), dtype=np.int64, count=int(counts.sum())
        )
        self._pair_mirrors = np.repeat(
            np.arange(len(stored), dtype=np.int64), counts
        )

    def _joined_benign_mask(self) -> np.ndarray:
        return self._col_joined & ~self._col_departed & self._col_benign

    def _availability_flags(self, online_now: np.ndarray) -> np.ndarray:
        available = online_now.copy()
        serving = online_now
        if self._read_path is not None:
            serving = self._read_path.serving(online_now)
        if len(self._pair_owners):
            mirror_online = serving[self._pair_mirrors]
            available[self._pair_owners[mirror_online]] = True
        if self._read_path is not None:
            # Cache tier: an owner with a fresh copy at an online reader
            # is reachable even with every mirror dark.
            cached = self._read_path.available_owners(
                online_now, self._epoch_now
            )
            if cached:
                available[np.asarray(cached, dtype=np.int64)] = True
        return available

    def _measure(
        self, epoch: int, mask: np.ndarray, available: np.ndarray
    ) -> Tuple[float, float]:
        """Availability and replica overhead over the joined benign
        ``mask``, given the epoch's per-owner ``available`` flags."""
        population = int(mask.sum())
        if population == 0:
            if self._tracer.enabled:
                self._tracer.emit(
                    "availability_sample", epoch=epoch, population=0,
                    available=0, unavailable=[],
                )
            return 0.0, 0.0
        available_count = int(available[mask].sum())
        availability = available_count / population

        # Per-owner attribution ground truth: exactly which joined benign
        # owners the availability fraction is missing this epoch.
        unavailable_ids = np.nonzero(mask & ~available)[0]
        self._owner_unavailable_epochs[unavailable_ids] += 1
        self.metrics.counter(
            "engine.availability.unavailable_owner_epochs"
        ).inc(len(unavailable_ids))
        if self._tracer.enabled:
            self._tracer.emit(
                "availability_sample",
                epoch=epoch,
                population=population,
                available=available_count,
                unavailable=[int(i) for i in unavailable_ids],
            )

        if len(self._pair_owners):
            replica_counts = np.bincount(self._pair_owners, minlength=self.n_total)
            overhead = float(replica_counts[mask].mean())
        else:
            overhead = 0.0
        return availability, overhead

    def _measure_cohort(
        self, cohort: np.ndarray, benign_mask: np.ndarray, available: np.ndarray
    ) -> float:
        mask = benign_mask & cohort
        population = int(mask.sum())
        if population == 0:
            return 0.0
        return float(available[mask].sum()) / population

    def _cohort_masks(self) -> Dict[str, np.ndarray]:
        """Fig. 7 cohorts: top/bottom 10 % by online time and by friends."""
        n = self.n_base
        masks: Dict[str, np.ndarray] = {}
        p = self.online_probabilities[:n]
        degrees = np.array([len(self.nodes[i].friends) for i in range(n)])
        tenth = max(1, n // 10)

        for name, values in (("online", p), ("friends", degrees)):
            order = np.argsort(values, kind="stable")
            bottom = np.zeros(self.n_total, dtype=bool)
            top = np.zeros(self.n_total, dtype=bool)
            bottom[order[:tenth]] = True
            top[order[-tenth:]] = True
            masks[f"bottom_{name}"] = bottom
            masks[f"top_{name}"] = top
        return masks

    def _top_half_share(self) -> float:
        """Share of all replicas hosted by the top half of nodes by online
        time (Sec. 5.2.2: 'the upper half ... provides more than 90 %')."""
        if not len(self._pair_mirrors):
            return 0.0
        median_p = _median(self.online_probabilities[: self.n_base])
        top_half = self.online_probabilities >= median_p
        return float(top_half[self._pair_mirrors].mean())


def run_task(
    config: ScenarioConfig, graph: Optional[Graph] = None
) -> Tuple[SimulationResult, Dict[str, object]]:
    """Run one scenario and return ``(result, metrics_state)``.

    ``metrics_state`` is the run's full :class:`MetricsRegistry` state
    (``state_dict()``), which — unlike the summary snapshot already stored
    in ``result.metrics`` — can be merged loss-lessly across process
    boundaries.  This is the entry point sweep workers (:mod:`repro.runtime`)
    execute; everything it does is deterministic in ``config`` alone, so
    the same config produces byte-identical serialized results in any
    process.
    """
    if graph is None:
        graph = generate_dataset(config.dataset, scale=config.scale, seed=config.seed)
    simulation = SoupSimulation(graph, config)
    result = simulation.run()
    return result, simulation.metrics.state_dict()


def run_scenario(
    config: ScenarioConfig, graph: Optional[Graph] = None
) -> SimulationResult:
    """Build the dataset graph (unless given) and run one simulation."""
    result, _ = run_task(config, graph)
    return result
