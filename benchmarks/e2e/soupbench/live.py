"""The ``live_*`` workloads: a ``SoupNode`` cluster on real TCP loopback.

One process, one event loop, one closed-loop client: the next op is issued
when the previous one has completed.  The whole cluster shares one core, so
the closed-loop rate is the knee of the system; a second client only adds
queueing (see README).

An op completes when its effect is visible where the user would look:

* **read** — the ``PROFILE_RESPONSE`` frame that ``request_profile`` put on
  the wire reaches the reader's handler;
* **post** — every mirror push of that update is acknowledged
  (``on_push_ack``); any give-up, or no completion within the timeout, is a
  failed op;
* **message** — the recipient's handler has verified the signature and
  delivered the object to its application inbox.

Ops are matched by the ``SoupObject.sequence`` seen leaving the node during
the call, so a frame that belongs to something else never completes an op.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.objects import ObjectType, SoupObject
from repro.deploy.live.transport import AsyncClock, LiveTransport
from repro.dht.bootstrap import BootstrapRegistry
from repro.dht.pastry import PastryOverlay
from repro.network.reliability import Envelope
from repro.network.transport import LinkSpec
from repro.node.middleware import SoupNode
from repro.node.profile import DataItem

from soupbench.hostclock import HostClock
from soupbench.layers import Tracer
from soupbench.spec import (
    KINDS,
    PER_LAYER,
    LivePlan,
    LiveSpec,
    build_live_plan,
)

#: Node identities are part of the cluster, not of the workload: the same
#: sixteen keys (hence the same Pastry ring) in every run, whatever the seed.
_KEY_SEED = 0x50_0B


class ObservedTransport(LiveTransport):
    """A ``LiveTransport`` that shows the benchmark what leaves a node and
    what a node's handler has finished processing."""

    def __init__(self, clock: AsyncClock) -> None:
        super().__init__(clock)
        self.on_send: Optional[Callable[[int, int, Any], None]] = None
        self.on_handled: Optional[Callable[[int, Any], None]] = None

    def register(self, node_id, handler, link=LinkSpec(), on_failure=None) -> None:
        def observed(sender: int, message: Any) -> None:
            handler(sender, message)
            if self.on_handled is not None:
                self.on_handled(node_id, message)

        super().register(node_id, observed, link=link, on_failure=on_failure)

    def send(self, sender: int, receiver: int, message: Any, size_bytes: int) -> None:
        if self.on_send is not None:
            self.on_send(sender, receiver, message)
        super().send(sender, receiver, message, size_bytes)


class Cluster:
    """The booted cluster of one live workload."""

    def __init__(self, spec: LiveSpec, plan: LivePlan) -> None:
        self.spec = spec
        self.plan = plan
        self.transport = ObservedTransport(AsyncClock())
        self.nodes: Dict[int, SoupNode] = {}
        self.order: List[int] = []

    # --- set-up ----------------------------------------------------------
    async def boot(self) -> None:
        spec, plan, transport = self.spec, self.plan, self.transport
        overlay = PastryOverlay()
        overlay.set_liveness(transport.is_online)
        registry = BootstrapRegistry()
        for position in range(spec.n_nodes):
            node = SoupNode(
                name=f"user{position:02d}",
                network=transport,
                overlay=overlay,
                registry=registry,
                peer_resolver=self.nodes.get,
                seed=_KEY_SEED + position,
                key_bits=spec.key_bits,
                crypto_mode="full",
            )
            self.nodes[node.node_id] = node
            self.order.append(node.node_id)
        await transport.start()

        nodes = [self.nodes[node_id] for node_id in self.order]
        nodes[0].join()
        nodes[0].make_bootstrap_node()
        for node in nodes[1:]:
            node.join(bootstrap_id=self.order[0])
        n = len(nodes)
        for position, node in enumerate(nodes):
            for other in ((position + 1) % n, plan.extra_friend[position]):
                if not node.social.is_friend(self.order[other]):
                    node.befriend(self.order[other])
        for node in nodes:
            node.run_selection_round()
        for _ in range(spec.items_per_node):
            for node in nodes:
                self._post(node)
        # A second round lets early selectors see the now-announced peers.
        for node in nodes:
            node.run_selection_round()
        await self.settle()

        for _ in range(max(0, spec.warm_log_entries - spec.items_per_node)):
            for node in nodes:
                self._post(node)
            await transport.drain(0.0)
        await self.settle()

        for position in plan.graceful:
            nodes[position].shutdown(graceful=True)
        for position in plan.abrupt:
            nodes[position].go_offline()
        await self.settle()

    def _post(self, node: SoupNode) -> None:
        node.post_item(
            DataItem.text(
                size_bytes=self.spec.item_bytes, created_at=self.transport.loop.now
            )
        )

    async def settle(self, deadline_s: float = 60.0) -> None:
        """Wait until no frame is queued and no reliable send awaits its ack."""
        started = time.perf_counter()
        while True:
            await self.transport.drain(0.0)
            if not any(n.reliability.pending_count() for n in self.nodes.values()):
                # One more pass for the frames the last acks released.
                await self.transport.drain(0.01)
                return
            if time.perf_counter() - started > deadline_s:
                raise RuntimeError("cluster did not settle")

    async def close(self) -> None:
        await self.transport.close()

    # --- state the metrics read --------------------------------------------
    def node_at(self, position: int) -> SoupNode:
        return self.nodes[self.order[position]]

    def replicas_per_owner(self) -> float:
        counts = [len(n.mirror_manager.announced_mirrors) for n in self.nodes.values()]
        return sum(counts) / len(counts)

    def reliability_totals(self) -> Dict[str, int]:
        totals = {"acks": 0, "retries": 0, "giveups": 0}
        for node in self.nodes.values():
            stats = node.reliability.stats
            totals["acks"] += stats.acked
            totals["retries"] += stats.retries
            totals["giveups"] += stats.give_ups
        return totals


# --- the closed-loop client ----------------------------------------------------

#: Outcomes of one op.
DONE, UNAVAILABLE, FAILED = "done", "unavailable", "failed"


class Client:
    """Issues one op at a time and waits for its completion."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.transport = cluster.transport
        self._aio = asyncio.get_running_loop()
        self._departed = {
            cluster.order[p] for p in cluster.plan.graceful + cluster.plan.abrupt
        }
        #: Frames sent since the current op began; read right after the
        #: SoupNode call returns, so they are the frames that call sent.
        self._sent: List[Tuple[int, int, Any]] = []
        #: Completion test of the op in flight, fed every handled frame.
        self._awaiting: Optional[Callable[[int, Any], Optional[str]]] = None
        self._future: Optional[asyncio.Future] = None
        self.transport.on_send = self._record_sent
        self.transport.on_handled = self._handled
        #: Why ops failed, by reason.
        self.failures: Dict[str, int] = {}

    def _record_sent(self, sender: int, receiver: int, message: Any) -> None:
        self._sent.append((sender, receiver, message))

    def _sequences_sent(self, receiver: int, object_type: ObjectType) -> List[int]:
        """Sequences of the SOUP objects of one type sent to ``receiver``
        since the op began."""
        return [
            message.sequence
            for _, to, message in self._sent
            if to == receiver
            and isinstance(message, SoupObject)
            and message.object_type is object_type
        ]

    def _handled(self, receiver: int, message: Any) -> None:
        if self._awaiting is None:
            return
        outcome = self._awaiting(receiver, message)
        if outcome is not None:
            self._resolve(outcome)

    def _resolve(self, outcome: str) -> None:
        self._awaiting = None
        if self._future is not None and not self._future.done():
            self._future.set_result(outcome)

    def _fail(self, reason: str) -> str:
        self.failures[reason] = self.failures.get(reason, 0) + 1
        return FAILED

    async def _wait(self) -> str:
        """Wait for the op in flight; a timeout is a failed op."""
        future = self._future
        timer = self._aio.call_later(
            self.cluster.spec.op_timeout_s, self._resolve, "timeout"
        )
        try:
            outcome = await future
        finally:
            timer.cancel()
            self._awaiting = None
            self._future = None
        return self._fail("timeout") if outcome == "timeout" else outcome

    async def op(self, kind: str, actor: int, target: int) -> Tuple[str, float, float]:
        """Run one op; returns (outcome, seconds inside the SoupNode call,
        seconds from its return to completion)."""
        run = getattr(self, "_" + kind)
        self._sent.clear()
        t0 = time.perf_counter()
        outcome = run(self.cluster.node_at(actor), self.cluster.order[target])
        t1 = time.perf_counter()
        if outcome is None:
            outcome = await self._wait()
        return outcome, t1 - t0, time.perf_counter() - t1

    # Each op starter returns an outcome if the op ended inside the call, or
    # None after creating ``_future`` and arming what will resolve it.
    def _read(self, node: SoupNode, target_id: int) -> Optional[str]:
        if not node.request_profile(target_id):
            # No reachable copy: the expected answer for a departed owner.
            if target_id in self._departed:
                return UNAVAILABLE
            return self._fail("read-of-online-owner-unserved")
        responses = self._sequences_sent(node.node_id, ObjectType.PROFILE_RESPONSE)
        if len(responses) != 1:
            return self._fail("read-without-response-frame")
        sequence, reader = responses[0], node.node_id

        def arrived(receiver: int, message: Any) -> Optional[str]:
            if (
                receiver == reader
                and isinstance(message, SoupObject)
                and message.sequence == sequence
            ):
                return DONE
            return None

        self._awaiting = arrived
        self._future = self._aio.create_future()
        return None

    def _post(self, node: SoupNode, _target_id: int) -> Optional[str]:
        acks = giveups = 0
        expected = -1  # unknown until post_item has returned

        def settle_if_complete() -> None:
            # Inside post_item only count; an ack that outlives its
            # (timed-out) op must not touch the next one.
            if future is None or self._future is not future:
                return
            if giveups:
                self._resolve(self._fail("push-giveup"))
            elif acks == expected:
                self._resolve(DONE)

        def on_ack(_dest: int, _payload: object) -> None:
            nonlocal acks
            acks += 1
            settle_if_complete()

        def on_giveup(_dest: int, _payload: object, _reason: str) -> None:
            nonlocal giveups
            giveups += 1
            settle_if_complete()

        item = DataItem.text(
            size_bytes=self.cluster.spec.item_bytes,
            created_at=self.transport.loop.now,
        )
        future: Optional[asyncio.Future] = None
        node.post_item(item, on_push_ack=on_ack, on_push_giveup=on_giveup)
        if giveups:
            return self._fail("push-giveup")
        expected = sum(
            1
            for sender, _, m in self._sent
            if sender == node.node_id and isinstance(m, Envelope)
        )
        if expected == 0:
            return self._fail("post-without-mirror")
        future = self._future = self._aio.create_future()
        return None

    def _message(self, node: SoupNode, target_id: int) -> Optional[str]:
        if not node.send_message(target_id, "e2e-probe"):
            return self._fail("message-unroutable")
        messages = self._sequences_sent(target_id, ObjectType.MESSAGE)
        if len(messages) != 1:
            return self._fail("message-not-direct")
        sequence = messages[0]
        inbox = self.cluster.nodes[target_id].applications.inbox

        def handled(receiver: int, message: Any) -> Optional[str]:
            if (
                receiver != target_id
                or not isinstance(message, SoupObject)
                or message.sequence != sequence
            ):
                return None
            if inbox and inbox[-1].sequence == sequence:
                return DONE
            return self._fail("message-rejected")

        self._awaiting = handled
        self._future = self._aio.create_future()
        return None


# --- measurement -----------------------------------------------------------------

#: Slices the per-kind percentiles of a traced run are medians over.
_SLICES = 10
#: Width of the slices the end-to-end rate and latency are read from.
_SLICE_S = 0.5


class Segment:
    """The ops of one timed region, in completion order."""

    def __init__(self) -> None:
        self.kinds: List[str] = []
        self.outcomes: List[str] = []
        self.call_s: List[float] = []
        self.wait_s: List[float] = []
        self.done_at: List[float] = []
        self.started = self.ended = 0.0

    @property
    def wall_s(self) -> float:
        return self.ended - self.started

    def count(self, outcome: str, kind: Optional[str] = None) -> int:
        return sum(
            1
            for o, k in zip(self.outcomes, self.kinds)
            if o == outcome and (kind is None or k == kind)
        )

    def call_and_wait_ms(self, kind: str) -> Tuple[List[float], List[float]]:
        """Of the completed ops of one kind: milliseconds inside the
        SoupNode call, and from its return to completion."""
        rows = [
            (call * 1e3, wait * 1e3)
            for k, outcome, call, wait in zip(
                self.kinds, self.outcomes, self.call_s, self.wait_s
            )
            if k == kind and outcome == DONE
        ]
        return [call for call, _ in rows], [wait for _, wait in rows]

    def latencies_ms(self, kind: Optional[str] = None) -> List[List[float]]:
        """Latencies of completed ops, one list per equal slice of the
        region's wall time."""
        slices: List[List[float]] = [[] for _ in range(_SLICES)]
        width = self.wall_s / _SLICES or 1.0
        for k, outcome, call, wait, done in zip(
            self.kinds, self.outcomes, self.call_s, self.wait_s, self.done_at
        ):
            if outcome == DONE and (kind is None or k == kind):
                index = min(_SLICES - 1, int((done - self.started) / width))
                slices[index].append((call + wait) * 1e3)
        return slices


async def drive(client: Client, ops, seconds: float, max_ops: Optional[int]) -> Segment:
    """Run ops from the plan until ``seconds`` have passed (or ``max_ops``
    ops, whichever a fixed-work caller gave)."""
    segment = Segment()
    kinds, outcomes = segment.kinds, segment.outcomes
    call_s, wait_s, done_at = segment.call_s, segment.wait_s, segment.done_at
    clock = time.perf_counter
    segment.started = now = clock()
    deadline = now + seconds
    while now < deadline and (max_ops is None or len(kinds) < max_ops):
        kind, actor, target = next(ops)
        outcome, in_call, waiting = await client.op(kind, actor, target)
        now = clock()
        kinds.append(kind)
        outcomes.append(outcome)
        call_s.append(in_call)
        wait_s.append(waiting)
        done_at.append(now)
    segment.ended = now
    return segment


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def median_of_slices(slices: List[List[float]], q: float) -> float:
    """Median over the non-empty slices of each slice's ``q`` percentile, so
    one scheduler stall moves one slice, not the metric."""
    per_slice = [percentile(s, q) for s in slices if s]
    return statistics.median(per_slice) if per_slice else 0.0


def reference_slices(segment: Segment, clock: HostClock) -> List[Tuple[float, float]]:
    """Per slice of about ``_SLICE_S`` of the region: completed ops per
    reference-host second, and the median latency of those ops in
    reference-host milliseconds (see ``hostclock``)."""
    n = max(1, int(segment.wall_s / _SLICE_S))
    width = segment.wall_s / n or 1.0
    latencies: List[List[float]] = [[] for _ in range(n)]
    for outcome, call, wait, done in zip(
        segment.outcomes, segment.call_s, segment.wait_s, segment.done_at
    ):
        if outcome == DONE:
            index = min(n - 1, int((done - segment.started) / width))
            latencies[index].append(call + wait)
    rows = []
    for index, in_slice in enumerate(latencies):
        start = segment.started + index * width
        seconds = clock.reference_seconds(start, start + width)
        if in_slice and seconds > 0.0:
            speed = clock.speed(start, start + width)
            rows.append((len(in_slice) / seconds, percentile(in_slice, 0.5) * speed * 1e3))
    return rows


def throughput(segment: Segment, clock: HostClock) -> float:
    """Completed ops per reference-host second in the best tenth of the
    slices.  What the speed samples leave unexplained only ever slows a
    slice down (a full garbage collection, a stall shorter than the sampling
    interval), so the upper decile repeats where the median does not."""
    return percentile([rate for rate, _ in reference_slices(segment, clock)], 0.9)


def latency_p50_ms(segment: Segment, clock: HostClock) -> float:
    """Median op latency in reference-host milliseconds, in the best tenth
    of the slices (the mirror image of :func:`throughput`)."""
    return percentile([p50 for _, p50 in reference_slices(segment, clock)], 0.1)


async def measure(
    cluster: Cluster,
    seconds: float,
    trace: bool,
    max_ops: Optional[int],
    clock: Optional[HostClock] = None,
) -> Dict[str, object]:
    """Drive the plan's ops through a booted cluster (closing it at the
    end) and report; ``setup_s`` is the caller's to add.  Without a started
    ``clock`` the times are plain wall time."""
    spec, plan = cluster.spec, cluster.plan
    clock = clock or HostClock()
    # The op stream is a function of the seed alone.
    ops = plan.ops()
    try:
        transport = cluster.transport
        client = Client(cluster)
        delivered0, failed0 = transport.messages_delivered, transport.messages_failed
        reasons0 = dict(transport.failures_by_reason)
        reliability0 = cluster.reliability_totals()

        tracer = Tracer(enabled=trace)
        if trace:
            # Tracing off, then on, over the same cluster and op stream.
            half_ops = None if max_ops is None else max_ops // 2
            plain = await drive(client, ops, seconds / 2, half_ops)
            with tracer:
                traced = await drive(client, ops, seconds / 2, half_ops)
        else:
            plain = await drive(client, ops, seconds, max_ops)
            traced = Segment()
        await cluster.settle()

        reliability = {
            key: value - reliability0[key]
            for key, value in cluster.reliability_totals().items()
        }
        failed_frames = transport.messages_failed - failed0
        frame_reasons = {
            reason: count - reasons0.get(reason, 0)
            for reason, count in transport.failures_by_reason.items()
            if count - reasons0.get(reason, 0)
        }
        frames = transport.messages_delivered - delivered0
        replicas = cluster.replicas_per_owner()
    finally:
        await cluster.close()

    segments = [plain, traced]
    attempted = sum(len(s.kinds) for s in segments)
    done = sum(s.count(DONE) for s in segments)
    failed = sum(s.count(FAILED) for s in segments)
    completions = {
        kind: sum(s.count(DONE, kind) for s in segments) for kind, _ in spec.mix
    }

    problems: List[str] = []
    if failed:
        problems.append(f"{failed} failed ops: {client.failures}")
    if reliability["giveups"]:
        problems.append(f"{reliability['giveups']} reliable sends given up")
    if failed_frames != sum(frame_reasons.values()):
        problems.append(f"{failed_frames} failed frames, reasons {frame_reasons}")
    if attempted == 0:
        problems.append("no op attempted")

    detail: Dict[str, object] = {
        "plan_digest": plan.digest(),
        "departed": {"graceful": plan.graceful, "abrupt": plan.abrupt},
        "ops": {
            "attempted": attempted,
            "done": done,
            "unavailable": sum(s.count(UNAVAILABLE) for s in segments),
            "failed": failed,
        },
        "completions": completions,
        "op_failures": client.failures,
        "frames_delivered": frames,
        "frames_failed": frame_reasons,
        "reliability": reliability,
        "slices": len(reference_slices(plain, clock)),
        "problems": problems,
    }
    exact: Dict[str, object] = {
        "plan_digest": detail["plan_digest"],
        "replicas_per_owner": replicas,
    }
    if max_ops is not None:
        # Fixed work: everything countable repeats.
        exact.update(
            {
                "ops": detail["ops"],
                "completions": completions,
                "frames_delivered": frames,
                "reliability": reliability,
            }
        )

    if not trace:
        metrics: Dict[str, float] = {
            "throughput_per_s": throughput(plain, clock),
            "latency_p50_ms": latency_p50_ms(plain, clock),
            "served_share": done / attempted if attempted else 0.0,
            "replicas_per_owner": replicas,
        }
        pooled = [v for s in plain.latencies_ms() for v in s]
        detail["wall_clock"] = {
            "throughput_per_s": round(plain.count(DONE) / plain.wall_s, 3),
            "latency_p50_ms": round(percentile(pooled, 0.5), 6),
        }
    else:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(tracer.trace.metrics())
        for kind in KINDS:
            by_slice = plain.latencies_ms(kind)
            in_call, waiting = plain.call_and_wait_ms(kind)
            metrics[f"node.{kind}_call_ms_p50"] = percentile(in_call, 0.5)
            metrics[f"transport.{kind}_wait_ms_p50"] = percentile(waiting, 0.5)
            metrics[f"{kind}_p50_ms"] = percentile([v for s in by_slice for v in s], 0.5)
            metrics[f"{kind}_p99_ms"] = median_of_slices(by_slice, 0.99)
        plain_rate, traced_rate = throughput(plain, clock), throughput(traced, clock)
        metrics.update(
            {
                "wire.frames": frames,
                "wire.frames_per_op": frames / attempted if attempted else 0.0,
                "wire.failed_frames": failed_frames,
                "reliability.acks": reliability["acks"],
                "reliability.retries": reliability["retries"],
                "reliability.giveups": reliability["giveups"],
                "failed_op_share": 1.0 - done / attempted if attempted else 1.0,
                "trace.units": len(traced.kinds),
                "trace.wall_s": traced.wall_s,
                "trace.overhead_ratio": plain_rate / traced_rate if traced_rate else 0.0,
            }
        )
        detail["ext.builtins.top"] = tracer.trace.top_builtins()

    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
        "exact": exact,
    }


async def _run(
    spec: LiveSpec,
    plan: LivePlan,
    seconds: float,
    trace: bool,
    max_ops: Optional[int],
    setups: int,
    clock: HostClock,
) -> Dict[str, object]:
    setup_s: List[float] = []
    setup_wall_s: List[float] = []
    cluster: Optional[Cluster] = None
    for _ in range(setups):
        if cluster is not None:
            await cluster.close()
        t0 = time.perf_counter()
        cluster = Cluster(spec, plan)
        await cluster.boot()
        t1 = time.perf_counter()
        setup_s.append(clock.reference_seconds(t0, t1))
        setup_wall_s.append(t1 - t0)
    result = await measure(cluster, seconds, trace, max_ops, clock)
    result["detail"]["setup_s"] = [round(s, 4) for s in setup_s]
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setup_s)
        result["detail"]["wall_clock"]["setup_s"] = [round(s, 4) for s in setup_wall_s]
    return result


def run(
    spec: LiveSpec,
    seed: int,
    seconds: float,
    trace: bool,
    clock: HostClock,
    max_ops: Optional[int] = None,
) -> Dict[str, object]:
    """Run the workload; returns the worker's result dict.  The cluster is
    set up ``spec.setups`` times, for a median ``setup_s``, and the last one
    is measured."""
    plan = build_live_plan(spec, seed)
    return asyncio.run(_run(spec, plan, seconds, trace, max_ops, spec.setups, clock))
