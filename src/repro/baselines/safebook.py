"""Safebook-style replication: mirrors only among direct friends.

Safebook [11] (like MyZone [12] and ProofBook [13]) mirrors each user's
data at a subset of her direct friends, "a user thus depends on her social
contacts for data storage".  Two structural costs limit its availability:

* users with few suitable friends cannot build a strong mirror set;
* data is served through Safebook's *matryoshka* shells — a request must
  traverse an online relay in an outer shell to reach an online mirror, so
  every replica path needs **two** concurrent online nodes.

With the uniform p = 0.3 assumption of Table 4, per-path success is
p² ≈ 0.09 and even 24 friend mirrors only reach ~90 % availability —
exactly the number the paper reports for Safebook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

import numpy as np

if TYPE_CHECKING:
    from repro.graphs.friendship import FriendshipGraph


@dataclass
class SafebookModel:
    """Analytic simulation of friends-only mirroring."""

    #: Upper bound on mirrors per user (Safebook's shells hold 13-24).
    max_mirrors: int = 24
    #: Minimum online probability for a friend to qualify as a mirror at
    #: all (Safebook requires reachable, reasonably available contacts).
    min_mirror_probability: float = 0.05

    def assign_mirrors(
        self,
        graph: FriendshipGraph,
        online_probabilities: np.ndarray,
        rng: np.random.Generator,
    ) -> List[List[int]]:
        """Each node mirrors at up to ``max_mirrors`` of its best friends."""
        mirrors: List[List[int]] = []
        for node in range(graph.number_of_nodes()):
            friends = [
                f
                for f in graph.neighbors(node)
                if online_probabilities[f] >= self.min_mirror_probability
            ]
            friends.sort(key=lambda f: -online_probabilities[f])
            mirrors.append(friends[: self.max_mirrors])
        return mirrors

    def assign_relays(
        self, mirrors: List[List[int]], n: int, rng: np.random.Generator
    ) -> List[np.ndarray]:
        """One matryoshka-shell relay per replica path (a random node —
        the outer-shell contact the request must traverse)."""
        return [
            rng.integers(0, n, size=len(ms)) if ms else np.zeros(0, dtype=int)
            for ms in mirrors
        ]

    def availability_series(
        self,
        online_matrix: np.ndarray,
        mirrors: List[List[int]],
        relays: List[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-epoch availability: a path works iff mirror AND relay are
        online; ``relays=None`` models direct mirror access (no shells)."""
        n, n_epochs = online_matrix.shape
        series = np.zeros(n_epochs)
        mirror_index = [np.array(m, dtype=int) for m in mirrors]
        for t in range(n_epochs):
            online = online_matrix[:, t]
            available = online.copy()
            for node in range(n):
                if available[node] or not len(mirror_index[node]):
                    continue
                paths = online[mirror_index[node]]
                if relays is not None:
                    paths = paths & online[relays[node]]
                available[node] = bool(paths.any())
            series[t] = available.mean()
        return series

    def summary(
        self,
        graph: FriendshipGraph,
        online_probabilities: np.ndarray,
        seed: int = 0,
        n_epochs: int = 24 * 7,
    ) -> Dict[str, float]:
        """Steady-state availability/overhead for the Table 4 rows."""
        from repro.behavior.online import OnlineModel, sample_timezones

        rng = np.random.default_rng(seed)
        mirrors = self.assign_mirrors(graph, online_probabilities, rng)
        relays = self.assign_relays(mirrors, len(online_probabilities), rng)
        model = OnlineModel(
            base_probabilities=online_probabilities,
            timezone_offsets=sample_timezones(len(online_probabilities), rng),
        )
        matrix = model.generate_matrix(n_epochs, rng)
        series = self.availability_series(matrix, mirrors, relays)
        counts = [len(m) for m in mirrors]
        return {
            "availability": float(series.mean()),
            "replicas": float(np.mean(counts)),
            "replicas_min": float(np.min(counts)),
            "replicas_max": float(np.max(counts)),
            "nodes_without_mirrors": int(sum(1 for c in counts if c == 0)),
        }
