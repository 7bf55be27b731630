"""Workloads and metric names of the end-to-end benchmark (pure data).

Nothing here imports ``repro``: the workload table, the metric names and the
seeded op plan exist before any key, graph or socket does, so a plan is a
function of ``(workload, seed)`` alone and is identical across runs and
commits.  ``BENCHMARK.json`` at the repo root repeats the names; the
self-tests hold the two equal.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Tuple

# --- metrics ---------------------------------------------------------------

#: End-to-end metrics: name -> unit.  Every workload reports every one, with
#: tracing off (see README "Metric definitions" for what each means per
#: workload).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "served_share": "ratio",
    "replicas_per_owner": "count",
    "peak_rss_mb": "MB",
}

#: Layers whose self time and call count the tracer reports as
#: ``<layer>.self_s`` and ``<layer>.calls``.
LAYERS_WITH_CALLS: Tuple[str, ...] = (
    "sim.engine",
    "core.dropping",
    "core.experience",
    "core.knowledge",
    "core.ranking",
    "core.selection",
    "core.columnar",
    "core.objects",
    "node.middleware",
    "dht",
    "mirror",
    "obs",
)

#: Layers reported as ``<layer>.self_s`` only.
LAYERS_SELF_ONLY: Tuple[str, ...] = (
    "behavior",
    "sim.attacks",
    "arch",
    "security",
    "network.reliability",
    "network.transport",
    "deploy.live.transport",
    "eventloop",
    "ext.numpy",
    "ext.builtins",
    "ext.stdlib",
    "bench",
    "repro.unassigned",
)

KINDS: Tuple[str, ...] = ("read", "post", "message")


def _per_layer() -> Dict[str, str]:
    metrics: Dict[str, str] = {
        # Parts of setup_s, from timestamps.
        "graphs.generate_s": "s",
        "sim.engine.init_s": "s",
    }
    for layer in LAYERS_WITH_CALLS:
        metrics[f"{layer}.self_s"] = "s"
        metrics[f"{layer}.calls"] = "count"
    for layer in LAYERS_SELF_ONLY:
        metrics[f"{layer}.self_s"] = "s"
    metrics.update(
        {
            # Single functions inside a layer, from the same trace.
            "dht.lookups": "count",
            "security.sign_calls": "count",
            "security.verify_calls": "count",
            "security.modexp_s": "s",
            "wire.pickle_s": "s",
            "wire.socket_s": "s",
            # Counters the program keeps itself.
            "wire.frames": "count",
            "wire.frames_per_op": "ratio",
            "wire.failed_frames": "count",
            "reliability.acks": "count",
            "reliability.retries": "count",
            "reliability.giveups": "count",
            # Useful-work ratios of a simulation result.
            "sim.drop_rate_mean": "ratio",
            "sim.mirror_churn_mean": "count",
            "sim.repairs_triggered": "count",
            "sim.transfer_retries": "count",
        }
    )
    for kind in KINDS:
        # Untraced, two timestamps per op: inside the SoupNode call, and
        # from its return to completion.
        metrics[f"node.{kind}_call_ms_p50"] = "ms"
        metrics[f"transport.{kind}_wait_ms_p50"] = "ms"
        metrics[f"{kind}_p50_ms"] = "ms"
        metrics[f"{kind}_p99_ms"] = "ms"
    metrics.update(
        {
            "failed_op_share": "ratio",
            "trace.units": "count",
            "trace.wall_s": "s",
            "trace.overhead_ratio": "ratio",
        }
    )
    return metrics


#: Per-layer metrics: name -> unit.  Reported by the traced run; a layer a
#: workload never enters reads 0.
PER_LAYER: Dict[str, str] = _per_layer()


# --- workloads -------------------------------------------------------------


@dataclass(frozen=True)
class SimSpec:
    """One epoch-simulator workload: ``ScenarioConfig`` keyword arguments."""

    name: str
    why: str
    scenario: Tuple[Tuple[str, object], ...]
    #: Sanity range of the final day (the exact-value comparison between
    #: runs does the real work).
    min_served_share: float = 0.0
    max_replicas: float = float("inf")

    def scenario_kwargs(self, seed: int) -> Dict[str, object]:
        return {"dataset": "facebook", "seed": seed, **dict(self.scenario)}


@dataclass(frozen=True)
class LiveSpec:
    """One live-cluster workload."""

    name: str
    why: str
    #: Op mix as (kind, weight).
    mix: Tuple[Tuple[str, float], ...]
    #: Nodes that leave after seeding: the first half by
    #: ``shutdown(graceful=True)``, the rest by ``go_offline()``.
    departing: int = 0
    #: Post until every owner's UpdateLog at its mirrors holds this many
    #: entries (the log's cap), so appends cost the same from the first
    #: timed op to the last.
    warm_log_entries: int = 0
    n_nodes: int = 16
    key_bits: int = 512
    items_per_node: int = 2
    item_bytes: int = 2_000
    op_timeout_s: float = 5.0
    #: How often a run sets the cluster up (``setup_s`` is the median); the
    #: last cluster is the one measured.
    setups: int = 3


SIM_SCALE = SimSpec(
    name="sim_scale",
    why=(
        "4,513-node facebook graph, join day + one steady day: per-node engine "
        "state, core.experience and core.knowledge do the work; attacks, repair "
        "and the node stack do none"
    ),
    scenario=(("scale", 0.05), ("n_days", 2)),
    min_served_share=0.90,
    max_replicas=10.0,
)

SIM_ADVERSE = SimSpec(
    name="sim_adverse",
    why=(
        "1,805 nodes + 902 sybils, 4 days with departure, slander, flooding and "
        "repair: work moves into selection rounds, core.dropping and repair, so "
        "a steady-sync gain paid for there shows"
    ),
    scenario=(
        ("scale", 0.02),
        ("n_days", 4),
        ("departure_fraction", 0.2),
        ("departure_day", 2.0),
        ("slander_fraction", 0.1),
        ("sybil_fraction", 0.5),
        ("repair", True),
    ),
)

LIVE_READ = LiveSpec(
    name="live_read",
    why=(
        "16 SoupNodes on TCP loopback, 4 departed: request_profile = DHT lookup "
        "+ one unsigned frame, so dht, transport and the event loop do the work; "
        "security and the update log none"
    ),
    mix=(("read", 1.0),),
    departing=4,
)

LIVE_WRITE = LiveSpec(
    name="live_write",
    why=(
        "same cluster, all online, update logs at cap: 70% post_item (sign + "
        "reliable fan-out to mirrors + acks) / 30% send_message (sign + verify); "
        "security, mirror and reliability do the work, dht little"
    ),
    mix=(("post", 0.7), ("message", 0.3)),
    warm_log_entries=500,
    # One set-up is 8,000 signed posts, as long as half the timed region.
    setups=2,
)

WORKLOADS: Dict[str, object] = {
    spec.name: spec for spec in (SIM_SCALE, SIM_ADVERSE, LIVE_READ, LIVE_WRITE)
}


# --- the seeded plan of a live workload ---------------------------------------

Op = Tuple[str, int, int]  # (kind, actor position, target position)


@dataclass(frozen=True)
class LivePlan:
    """Everything random about a live workload, fixed by the seed."""

    #: One extra friend per position, on top of the ring.
    extra_friend: Tuple[int, ...]
    graceful: Tuple[int, ...]
    abrupt: Tuple[int, ...]
    #: Positions that stay online and issue the ops.
    actors: Tuple[int, ...]
    seed_label: str
    mix: Tuple[Tuple[str, float], ...]
    n_nodes: int

    def ops(self) -> Iterator[Op]:
        """The endless op stream (a fresh iterator repeats it exactly)."""
        rng = random.Random(self.seed_label + "/ops")
        kinds = [kind for kind, _ in self.mix]
        weights = list(itertools.accumulate(w for _, w in self.mix))
        actors, n = self.actors, self.n_nodes
        while True:
            draw = rng.random() * weights[-1]
            kind = next(k for k, edge in zip(kinds, weights) if draw < edge)
            actor = actors[rng.randrange(len(actors))]
            target = rng.randrange(n - 1)
            if target >= actor:
                target += 1
            yield kind, actor, target

    def digest(self, n_ops: int = 1_000) -> str:
        """Identity of the plan: the fixed parts and its first ops."""
        head = list(itertools.islice(self.ops(), n_ops))
        text = repr((self.extra_friend, self.graceful, self.abrupt, head))
        return hashlib.sha256(text.encode()).hexdigest()


def _other(rng: random.Random, n: int, position: int) -> int:
    other = rng.randrange(n - 1)
    return other + 1 if other >= position else other


def build_live_plan(spec: LiveSpec, seed: int) -> LivePlan:
    label = f"soup-e2e/{spec.name}/{seed}"
    rng = random.Random(label)
    n = spec.n_nodes
    extra = tuple(_other(rng, n, position) for position in range(n))
    # Position 0 bootstraps the others and stays.
    departing: List[int] = rng.sample(range(1, n), spec.departing)
    half = spec.departing // 2
    gone = set(departing)
    return LivePlan(
        extra_friend=extra,
        graceful=tuple(departing[:half]),
        abrupt=tuple(departing[half:]),
        actors=tuple(p for p in range(n) if p not in gone),
        seed_label=label,
        mix=spec.mix,
        n_nodes=n,
    )


def _tiny(spec: object) -> object:
    """The same workload at self-test size (seconds, not minutes)."""
    if isinstance(spec, SimSpec):
        scenario = dict(spec.scenario)
        scenario.update(scale=0.004, n_days=min(int(scenario["n_days"]), 3))
        if "departure_day" in scenario:
            scenario["departure_day"] = 1.0
        return replace(
            spec, scenario=tuple(scenario.items()), min_served_share=0.0
        )
    assert isinstance(spec, LiveSpec)
    return replace(spec, warm_log_entries=min(spec.warm_log_entries, 8))


#: The workloads at the size the self-tests run them (``run.py --tiny``).
TINY_WORKLOADS: Dict[str, object] = {
    name: _tiny(spec) for name, spec in WORKLOADS.items()
}
