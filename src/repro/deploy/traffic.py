"""Mirror-load model: serving popular data at high request rates (Fig. 15).

The paper's stress test: one mirror hosts 20 real Facebook profiles
(206 MB across 2035 unique items; 35 % of items < 10 KB, 93 % < 100 KB,
large items rare) and serves text/photo/video requests "according to the
request probabilities for each data type as described in [23]" at 1, 10 and
20 requests per second.  Average consumption stays well below 600 KB/s even
at 20 req/s; an increasing rate hits the rare large items more often,
causing the spikes, and an overloaded mirror may time requests out.

The model builds the same inventory, draws requests from a text-heavy mix,
and serves them through a finite uplink with a FIFO backlog — producing the
per-second bandwidth series and timeout counts the figure shows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np


#: Request mix per data type, after [23] (web/OSN traffic is dominated by
#: small text/photo fetches; video is a rare, heavy tail).
REQUEST_MIX = (("text", 0.70), ("photo", 0.295), ("video", 0.005))


def build_inventory(
    rng: random.Random,
    n_profiles: int = 20,
    total_items: int = 2035,
    target_total_bytes: float = 206e6,
) -> Dict[str, List[int]]:
    """Create the hosted item inventory matching the Sec. 7 measurements.

    Item sizes are drawn per type from the measured shape (35 % < 10 KB,
    93 % < 100 KB) and then rescaled so the totals match the published
    206 MB across 2035 items.
    """
    from repro.node.profile import sample_item_size

    counts = {
        "text": int(total_items * 0.40),
        "photo": int(total_items * 0.57),
    }
    counts["video"] = max(1, total_items - sum(counts.values()))

    inventory = {
        kind: [sample_item_size(kind, rng) for _ in range(count)]
        for kind, count in counts.items()
    }
    total = sum(sum(sizes) for sizes in inventory.values())
    scale = target_total_bytes / total
    return {
        kind: [max(64, int(size * scale)) for size in sizes]
        for kind, sizes in inventory.items()
    }


@dataclass
class MirrorLoadResult:
    """Outcome of one constant-rate serving run."""

    request_rate: float
    #: (second, KB/s) series of bytes actually served.
    bandwidth_series: List[Tuple[int, float]]
    requests_served: int
    requests_timed_out: int

    @property
    def mean_kb_per_s(self) -> float:
        if not self.bandwidth_series:
            return 0.0
        return float(np.mean([kb for _, kb in self.bandwidth_series]))

    @property
    def peak_kb_per_s(self) -> float:
        return max((kb for _, kb in self.bandwidth_series), default=0.0)


#: The mirror's uplink capacity.
MIRROR_UPLINK_BYTES_PER_S = 800_000.0
#: A request still in the backlog after this long times out.
REQUEST_TIMEOUT_S = 10.0


@dataclass
class MirrorLoadModel:
    """One mirror serving its stored profiles through a finite uplink."""

    seed: int = 0

    def run(self, request_rate: float, duration_s: int = 300) -> MirrorLoadResult:
        """Serve Poisson-arriving requests for ``duration_s`` seconds."""
        if request_rate <= 0:
            raise ValueError(f"request rate must be positive, got {request_rate}")
        rng = random.Random(self.seed)
        np_rng = np.random.default_rng(self.seed)
        inventory = build_inventory(rng)
        kinds = [kind for kind, _ in REQUEST_MIX]
        mix = np.array([p for _, p in REQUEST_MIX])
        mix = mix / mix.sum()

        backlog: List[Tuple[float, int]] = []  # (arrival time, bytes left)
        series: List[Tuple[int, float]] = []
        served = 0
        timed_out = 0

        for second in range(duration_s):
            # Arrivals this second.
            for _ in range(int(np_rng.poisson(request_rate))):
                kind = kinds[int(np_rng.choice(len(kinds), p=mix))]
                size = rng.choice(inventory[kind])
                backlog.append((float(second), size))

            # Expire requests stuck in the backlog beyond the timeout.
            fresh: List[Tuple[float, int]] = []
            for arrival, remaining in backlog:
                if second - arrival > REQUEST_TIMEOUT_S:
                    timed_out += 1
                else:
                    fresh.append((arrival, remaining))
            backlog = fresh

            # Serve FIFO up to the uplink capacity.
            budget = MIRROR_UPLINK_BYTES_PER_S
            sent = 0.0
            next_backlog: List[Tuple[float, int]] = []
            for arrival, remaining in backlog:
                if budget <= 0:
                    next_backlog.append((arrival, remaining))
                    continue
                chunk = min(remaining, budget)
                budget -= chunk
                sent += chunk
                if remaining > chunk:
                    next_backlog.append((arrival, int(remaining - chunk)))
                else:
                    served += 1
            backlog = next_backlog
            series.append((second, sent / 1024.0))

        return MirrorLoadResult(
            request_rate=request_rate,
            bandwidth_series=series,
            requests_served=served,
            requests_timed_out=timed_out,
        )

    def sweep(self, rates=(1.0, 10.0, 20.0), duration_s: int = 300) -> List[MirrorLoadResult]:
        """The Fig. 15 sweep over request rates."""
        return [self.run(rate, duration_s=duration_s) for rate in rates]
