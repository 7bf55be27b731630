"""The resilience harness: one cluster, either backend, chaos + load + gates.

Builds an N-node SOUP :class:`~repro.deploy.cluster.Cluster` of real
:class:`~repro.node.middleware.SoupNode` middleware instances on either
side of the transport seam — the
deterministic :class:`~repro.network.simnet.SimNetwork` or the socket-backed
:class:`~repro.deploy.live.transport.LiveTransport` — then drives an
open-loop request mix through it while a :class:`ChaosController` replays
a fault plan, and emits a ``soup-resilience/v1`` report.

The protocol-level metrics in the report (availability samples, chaos
events, durability accounting) are **structural**: they are computed from
middleware state that only mutates synchronously inside harness-ordered
calls, never from message arrival timing.  That is what makes the same
seed produce the same availability series on both backends (the
equivalence acceptance criterion) — while latency percentiles and
retry/timeout counters remain honestly backend-specific.

Availability is measured SuperNova-style, from the readers' side: at each
epoch boundary, over every (reader, owner) pair with the reader alive,
the owner's data counts as available if the reader can currently reach
the owner itself or any announced mirror that is online and actually
stores the owner's replica.  A partition therefore *does* hurt
availability (cross-group mirrors don't count for that reader) even
though no data was lost.

"Zero lost acked updates" is likewise structural: every acked replica
push is remembered as ``(owner, sequence)``; at the end of the run an
acked update is *lost* only if its owner is offline and no online node
still holds it (in an update log or a stored replica).
"""

from __future__ import annotations

import asyncio
import random
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.deploy.cluster import Cluster
from repro.deploy.live.chaos import ChaosController
from repro.deploy.live.load import DEFAULT_MIX, LoadOp, build_load_plan
from repro.deploy.live.transport import AsyncClock, LiveTransport
from repro.network.events import EventLoop
from repro.network.reliability import ReliabilityStats
from repro.network.simnet import SimNetwork
from repro.network.transport import SERVER_LINK, Transport
from repro.node.middleware import SoupNode
from repro.node.profile import DataItem
from repro.obs import (
    LATENCY_BUCKETS,
    LiveObservability,
    Tracer,
    get_registry,
    pop_registry,
    push_registry,
    set_tracer,
)

#: Report schema identifier (bump on breaking changes).
REPORT_SCHEMA = "soup-resilience/v1"


@dataclass
class ResilienceConfig:
    """One resilience run, fully specified (and fully replayable)."""

    n_nodes: int = 25
    seed: int = 7
    backend: str = "sim"
    #: Fault-plan spec string (see :mod:`repro.sim.faults`); empty = no chaos.
    chaos: str = ""
    epochs: int = 10
    #: Seconds per epoch — simulated seconds on the sim backend, wall
    #: seconds on the live one.
    epoch_s: float = 0.5
    load_rps: float = 40.0
    friends_per_node: int = 3
    items_per_node: int = 2
    #: Small RSA keys keep a 25-node smoke run fast; signing and
    #: verification are the ones a deployment runs (forgeries rejected).
    key_bits: int = 256
    #: Live backend only: wall seconds for sockets to settle after setup.
    settle_s: float = 0.25
    #: Observability plane output directory (flight recorders, heartbeat).
    #: Empty = plane disabled; the run is telemetry-blind, as before PR 8.
    obs_dir: str = ""

    def validate(self) -> None:
        if self.backend not in ("sim", "live"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.n_nodes < 3:
            raise ValueError("a resilience run needs at least 3 nodes")
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if self.epoch_s <= 0:
            raise ValueError("epoch duration must be positive")
        if self.load_rps <= 0:
            raise ValueError("load rate must be positive")


class ResilienceHarness:
    """Runs one resilience scenario and produces the report dict."""

    def __init__(self, config: ResilienceConfig) -> None:
        config.validate()
        self.config = config
        self.network: Optional[Transport] = None
        self.nodes: Dict[int, SoupNode] = {}
        self.order: List[int] = []
        self.chaos: Optional[ChaosController] = None
        self.samples: List[dict] = []
        self.baseline_availability: float = 1.0
        self._acked: Dict[tuple, int] = {}
        self._counts: Dict[str, int] = {}
        self._read_attempts = 0
        self._read_successes = 0
        self.obs: Optional[LiveObservability] = None
        self._saved_tracer: Optional[Tracer] = None

    # ------------------------------------------------------------------
    def run(self) -> dict:
        """Execute the scenario; returns the ``soup-resilience/v1`` report."""
        push_registry()
        try:
            report = asyncio.run(self._run())
            if self.obs is not None:
                self._obs_finalize(report)
            return report
        finally:
            if self._saved_tracer is not None:
                set_tracer(self._saved_tracer)
                self._saved_tracer = None
            if self.obs is not None:
                self.obs.close()
            pop_registry()

    # --- cluster construction (shared) --------------------------------
    def _build(self, network: Transport) -> None:
        cfg = self.config
        self.network = network
        self.cluster = Cluster(
            network,
            random.Random(cfg.seed),
            key_bits=cfg.key_bits,
        )
        self.cluster.add("gateway", link=SERVER_LINK)
        for index in range(1, cfg.n_nodes):
            self.cluster.add(f"user{index:02d}")
        self.nodes = self.cluster.nodes
        self.order = self.cluster.order

    def _seed_content(self) -> None:
        for node_id in self.order:
            self.nodes[node_id].run_selection_round()
        for node_id in self.order:
            for _ in range(self.config.items_per_node):
                self._post(node_id)
        # A second round lets early selectors see the now-announced peers.
        for node_id in self.order:
            self.nodes[node_id].run_selection_round()

    # --- observability plane -------------------------------------------
    def _obs_setup(self) -> None:
        """Attach the live observability plane (no-op without ``obs_dir``):
        per-node flight recorders, the routing tracer installed
        process-wide, and transport send/receive hooks on the live
        backend."""
        if not self.config.obs_dir:
            return
        self.obs = LiveObservability(self.config.obs_dir, self.order)
        if isinstance(self.network, LiveTransport):
            self.network.observer = self.obs
        self._saved_tracer = set_tracer(self.obs.tracer)
        self.obs.heartbeat(0, self.config.epochs, extra=self._heartbeat_extra())

    def _scoped(self, node_id: int):
        """Attribute events emitted inside the block to ``node_id``'s
        flight recorder (pass-through when the plane is off)."""
        return self.obs.scope(node_id) if self.obs is not None else nullcontext()

    def _owner_availability(self) -> Tuple[int, int, List[int]]:
        """Owner-level availability for the trace's ``availability_sample``
        events: an owner counts as unavailable when it is down (or paused)
        and no online, unpaused mirror actually serves its replica."""
        net = self.network
        unavailable: List[int] = []
        for owner_id in self.order:
            if net.is_online(owner_id) and not net.is_paused(owner_id):
                continue
            served = any(
                net.is_online(mirror_id)
                and not net.is_paused(mirror_id)
                and self.nodes[mirror_id].mirror_manager.store.stores_for(owner_id)
                for mirror_id in self.nodes[owner_id].mirror_manager.announced_mirrors
            )
            if not served:
                unavailable.append(owner_id)
        population = len(self.order)
        return population, population - len(unavailable), unavailable

    def _heartbeat_extra(self) -> dict:
        extra = {"backend": self.config.backend, "n_nodes": self.config.n_nodes}
        if self.samples:
            extra["availability"] = self.samples[-1]["availability"]
            extra["online"] = self.samples[-1]["online"]
        return extra

    def _obs_epoch(self, epoch: int) -> None:
        """Epoch boundary: sync Lamport clocks through the harness, emit
        the availability ground truth, refresh the streaming heartbeat."""
        if self.obs is None:
            return
        self.obs.epoch_sync(epoch)
        population, available, unavailable = self._owner_availability()
        self.obs.harness.emit(
            "availability_sample",
            epoch=epoch,
            population=population,
            available=available,
            unavailable=unavailable,
        )
        self.obs.heartbeat(
            epoch + 1, self.config.epochs, extra=self._heartbeat_extra()
        )

    def _obs_finalize(self, report: dict) -> None:
        """Close the recorders, re-analyze the merged live trace with the
        sim-side analyzer, and publish an ``obs`` report section gates can
        assert on."""
        from repro.obs.analysis import (
            TraceReadReport,
            analyze_events,
            merge_trace_files,
        )

        obs = self.obs
        obs.heartbeat(
            self.config.epochs, self.config.epochs,
            extra=self._heartbeat_extra(), done=True,
        )
        merged_metrics = obs.merged_registry()
        obs.close()
        read_report = TraceReadReport()
        analysis = analyze_events(
            merge_trace_files(obs.trace_paths(), report=read_report),
            report=read_report,
        )
        findings_by_rule: Dict[str, int] = {}
        for finding in analysis.findings:
            findings_by_rule[finding.rule] = (
                findings_by_rule.get(finding.rule, 0) + 1
            )
        snapshot = merged_metrics.snapshot_scalars()
        latency = merged_metrics.histogram(
            "live.msg.latency_s", buckets=LATENCY_BUCKETS
        )
        report["obs"] = {
            "dir": self.config.obs_dir,
            "flight_files": len(obs.trace_paths()),
            "trace_events": analysis.report.events,
            "trace_errors": len(analysis.report.errors),
            "events_by_type": dict(sorted(analysis.events_by_type.items())),
            "chaos_actions": len(analysis.chaos_actions),
            "unavailable_owner_epochs": analysis.total_unavailable_epochs,
            "anomalies": {
                "total": len(analysis.findings),
                "by_rule": dict(sorted(findings_by_rule.items())),
            },
            "live_msgs": {
                "sent": int(snapshot.get("live.msgs.sent", 0.0)),
                "recv": int(snapshot.get("live.msgs.recv", 0.0)),
                "bytes_sent": int(snapshot.get("live.bytes.sent", 0.0)),
            },
            "msg_latency": {
                "count": latency.count,
                "mean_s": round(latency.mean, 6),
                "p50_s": round(latency.quantile(0.5), 6),
                "p95_s": round(latency.quantile(0.95), 6),
                "p99_s": round(latency.quantile(0.99), 6),
            },
        }

    # --- workload ------------------------------------------------------
    def _ack_cb(self, owner_id: int) -> Callable[[int, object], None]:
        def on_ack(dest: int, payload: object) -> None:
            key = (owner_id, getattr(payload, "sequence", None))
            self._acked[key] = self._acked.get(key, 0) + 1

        return on_ack

    def _post(self, owner_id: int) -> None:
        item = DataItem.text(size_bytes=2_000, created_at=self.network.loop.now)
        self.nodes[owner_id].post_item(item, on_push_ack=self._ack_cb(owner_id))

    def _count(self, key: str) -> None:
        self._counts[key] = self._counts.get(key, 0) + 1

    def _execute_op(self, op: LoadOp) -> None:
        actor_id = self.order[op.actor]
        target_id = self.order[op.target]
        net = self.network
        if not net.is_online(actor_id) or net.is_paused(actor_id):
            self._count("skipped_actor_down")
            return
        node = self.nodes[actor_id]
        started = time.perf_counter()
        with self._scoped(actor_id):
            if op.kind == "read":
                ok = bool(node.request_profile(target_id))
                self._read_attempts += 1
                self._read_successes += int(ok)
            elif op.kind == "post":
                self._post(actor_id)
                ok = True
            else:
                ok = bool(node.send_message(target_id, "resilience-probe"))
        elapsed = time.perf_counter() - started
        get_registry().histogram(
            f"resilience.latency.{op.kind}_s", buckets=LATENCY_BUCKETS
        ).observe(elapsed)
        self._count(f"{op.kind}_{'ok' if ok else 'fail'}")

    def _maintenance(self, epoch: int) -> None:
        net = self.network
        for node_id in self.order:
            if not net.is_online(node_id) or net.is_paused(node_id):
                continue
            node = self.nodes[node_id]
            with self._scoped(node_id):
                node.run_selection_round()
                node.exchange_experience_sets()

    # --- measurement ---------------------------------------------------
    def _compute_availability(self) -> float:
        net = self.network
        readers = [
            node_id
            for node_id in self.order
            if net.is_online(node_id) and not net.is_paused(node_id)
        ]
        if not readers:
            return 0.0
        pairs = served = 0
        for owner_id in self.order:
            owner_online = net.is_online(owner_id)
            serving_mirrors = [
                mirror_id
                for mirror_id in self.nodes[owner_id].mirror_manager.announced_mirrors
                if net.is_online(mirror_id)
                and self.nodes[mirror_id].mirror_manager.store.stores_for(owner_id)
            ]
            for reader_id in readers:
                if reader_id == owner_id:
                    continue
                pairs += 1
                if owner_online and net.reachable(reader_id, owner_id):
                    served += 1
                elif any(
                    net.reachable(reader_id, mirror_id)
                    for mirror_id in serving_mirrors
                ):
                    served += 1
        return served / pairs if pairs else 1.0

    def _sample(self, epoch: int) -> None:
        net = self.network
        self.samples.append(
            {
                "epoch": epoch,
                "t": round(net.loop.now, 3),
                "availability": round(self._compute_availability(), 6),
                "online": sum(1 for node_id in self.order if net.is_online(node_id)),
            }
        )

    def _durability(self) -> dict:
        net = self.network
        lost = []
        for owner_id, sequence in self._acked:
            if net.is_online(owner_id):
                continue
            survives = False
            for node_id in self.order:
                if node_id == owner_id or not net.is_online(node_id):
                    continue
                manager = self.nodes[node_id].mirror_manager
                log = manager.update_log_for(owner_id)
                if log is not None and any(
                    entry.sequence == sequence for entry in log.entries()
                ):
                    survives = True
                    break
                if manager.store.stores_for(owner_id):
                    survives = True
                    break
            if not survives:
                lost.append([owner_id, sequence])
        return {
            "acked_updates": len(self._acked),
            "lost_acked_updates": len(lost),
            "lost": lost[:20],
        }

    def _recovery(self) -> dict:
        heals = self.chaos.partition_heal_events() if self.chaos else []
        if not heals:
            return {"applicable": False, "recovered": True, "seconds": 0.0}
        heal = heals[0]
        # Recover to the pre-chaos level (small epsilon for float dust).
        target = self.baseline_availability - 1e-6
        for sample in self.samples:
            if sample["epoch"] >= heal["epoch"] and sample["availability"] >= target:
                return {
                    "applicable": True,
                    "recovered": True,
                    "seconds": round(max(0.0, sample["t"] - heal["t"]), 3),
                }
        return {"applicable": True, "recovered": False, "seconds": None}

    def _latency_summary(self) -> dict:
        registry = get_registry()
        out = {}
        for kind, _ in DEFAULT_MIX:
            hist = registry.histogram(
                f"resilience.latency.{kind}_s", buckets=LATENCY_BUCKETS
            )
            out[kind] = {
                "count": hist.count,
                "mean_s": round(hist.mean, 6),
                "p50_s": round(hist.quantile(0.5), 6),
                "p95_s": round(hist.quantile(0.95), 6),
                "p99_s": round(hist.quantile(0.99), 6),
                "max_s": round(hist.maximum or 0.0, 6),
            }
        return out

    def _aggregate_reliability(self) -> dict:
        total = ReliabilityStats()
        for node in self.nodes.values():
            total.merge(node.reliability.stats)
        return asdict(total)

    def _report(self) -> dict:
        availabilities = [sample["availability"] for sample in self.samples]
        first_chaos = self.chaos.first_chaos_epoch() if self.chaos else None
        during = (
            [s["availability"] for s in self.samples if s["epoch"] >= first_chaos]
            if first_chaos is not None
            else availabilities
        ) or availabilities
        read_rate = (
            self._read_successes / self._read_attempts if self._read_attempts else 1.0
        )
        net = self.network
        return {
            "schema": REPORT_SCHEMA,
            "config": asdict(self.config),
            "chaos": {
                "spec": self.chaos.to_string() if self.chaos else "",
                "events": list(self.chaos.events) if self.chaos else [],
                "killed": len(self.chaos.killed) if self.chaos else 0,
            },
            "availability": {
                "baseline": round(self.baseline_availability, 6),
                "mean": round(sum(availabilities) / len(availabilities), 6)
                if availabilities
                else 1.0,
                "min": round(min(availabilities), 6) if availabilities else 1.0,
                "final": availabilities[-1] if availabilities else 1.0,
                "during_chaos_min": round(min(during), 6) if during else 1.0,
                "request_success_rate": round(read_rate, 6),
                "samples": self.samples,
            },
            "latency": self._latency_summary(),
            "requests": dict(sorted(self._counts.items())),
            "durability": self._durability(),
            "recovery": self._recovery(),
            "reliability": self._aggregate_reliability(),
            "net": {
                "delivered": net.messages_delivered,
                "failed": net.messages_failed,
                "failures_by_reason": dict(sorted(net.failures_by_reason.items())),
            },
        }

    # --- driver ---------------------------------------------------------
    async def _run(self) -> dict:
        """The one driver: the backend supplies the transport and how time
        passes (on the simulated one no ``await`` ever suspends)."""
        cfg = self.config
        live = cfg.backend == "live"
        network = LiveTransport(AsyncClock()) if live else SimNetwork(EventLoop())
        clock = network.loop

        async def wait_until(t: float) -> None:
            if not live:
                clock.run_until(t)
            elif t > clock.now:
                await asyncio.sleep(t - clock.now)

        async def settle(sim_seconds: float) -> None:
            # Let in-flight traffic land: simulated seconds, or a socket drain.
            if live:
                await network.drain(cfg.settle_s)
            else:
                clock.run_until(clock.now + sim_seconds)

        try:
            self._build(network)
            self._obs_setup()
            if live:
                await network.start()
            self.cluster.join_all()
            await settle(1.0)
            self.cluster.befriend_ring(extra=max(0, cfg.friends_per_node - 2))
            await settle(1.0)
            self._seed_content()
            await settle(2.0)
            self.baseline_availability = self._compute_availability()
            chaos = self.chaos = ChaosController.from_spec(
                cfg.chaos,
                network,
                self.nodes,
                self.order,
                base_seed=cfg.seed,
                protected={self.cluster.gateway.node_id},
            )
            plan = build_load_plan(
                cfg.n_nodes, cfg.load_rps, cfg.epochs * cfg.epoch_s, seed=cfg.seed
            )
            t_base = clock.now
            op_index = 0
            for epoch in range(cfg.epochs):
                chaos.on_epoch(epoch)
                horizon = (epoch + 1) * cfg.epoch_s
                while op_index < len(plan) and plan[op_index].at_s < horizon:
                    await wait_until(t_base + plan[op_index].at_s)
                    self._execute_op(plan[op_index])
                    op_index += 1
                await wait_until(t_base + horizon)
                self._maintenance(epoch)
                self._sample(epoch)
                self._obs_epoch(epoch)
            await settle(2.0)
            return self._report()
        finally:
            if live:
                await network.close()
