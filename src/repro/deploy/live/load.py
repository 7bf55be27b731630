"""Open-loop load generation for the resilience harness.

The fig15-style request mix (profile reads dominate, posts and messages
ride along) is laid out *before* the run as a fixed schedule: request
``i`` fires at ``start + i / rate`` regardless of how long earlier
requests took.  Open-loop is the honest way to load a system under
chaos — a closed loop would politely slow down exactly when the cluster
struggles, hiding the latency the gates are supposed to bound.

The plan is pure data (seeded, backend-agnostic); the harness executes
it against sim time or wall time.  Latencies are recorded into
:mod:`repro.obs` histograms, one per operation kind.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

#: Default request mix — reads dominate, like the Fig. 15 mirror-load
#: study (profile requests are the bread-and-butter operation).
DEFAULT_MIX: Tuple[Tuple[str, float], ...] = (
    ("read", 0.70),
    ("post", 0.20),
    ("message", 0.10),
)


@dataclass(frozen=True)
class LoadOp:
    """One scheduled request: ``actor`` performs ``kind`` against ``target``.

    ``actor``/``target`` are *positions* in the cluster's stable node
    order, not node ids — the plan is built before key generation, so it
    is identical across backends and runs by construction.
    """

    at_s: float
    kind: str
    actor: int
    target: int


def build_load_plan(
    n_nodes: int,
    rate_rps: float,
    duration_s: float,
    seed: int = 0,
    mix: Sequence[Tuple[str, float]] = DEFAULT_MIX,
    start_s: float = 0.0,
) -> List[LoadOp]:
    """Lay out the full open-loop schedule for a run."""
    if n_nodes < 2:
        raise ValueError("load generation needs at least two nodes")
    if rate_rps <= 0:
        raise ValueError("request rate must be positive")
    rng = random.Random(f"load/{seed}")
    total = sum(weight for _, weight in mix)
    ops: List[LoadOp] = []
    for index in range(int(rate_rps * duration_s)):
        draw = rng.random() * total
        kind = mix[-1][0]
        for candidate, weight in mix:
            if draw < weight:
                kind = candidate
                break
            draw -= weight
        actor = rng.randrange(n_nodes)
        target = rng.randrange(n_nodes - 1)
        if target >= actor:
            target += 1
        ops.append(LoadOp(start_s + index / rate_rps, kind, actor, target))
    return ops
