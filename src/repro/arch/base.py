"""Strategy interfaces for pluggable DOSN architectures.

SOUP's evaluation (Sec. 5.3, Table 4) compares against PeerSoN and
Safebook.  This module extracts the hard-wired seams into explicit
strategy interfaces, so each alternative architecture runs through the
same engine, overlay and churn machinery as SOUP itself:

* :class:`MirrorSelectionStrategy` — wraps the Eq. (1) ranking +
  Algorithm 1 seam: ``repro.core.selection.ReplicationState.select``,
  which the simulator's nodes and ``MirrorManager`` share.  The interface
  and the paper's own :class:`SoupSelectionStrategy` live next to
  Algorithm 1 in :mod:`repro.core.selection` and are re-exported here.
* :class:`PlacementStrategy` — remaps the key under which a directory
  entry is published/looked up (``PastryOverlay.publish/lookup``).
* :class:`RoutingPolicy` — offers extra next-hop candidates to Pastry's
  prefix routing (``PastryOverlay._next_hop``), subject to the overlay's
  monotone-progress rule so termination is preserved.
* :class:`ReadPathStrategy` — intercepts profile reads before they hit
  the mirrors (``SoupSimulation._request_profile`` /
  ``SoupNode.request_profile``) and decides which online mirrors the
  simulator counts as serving.

An :class:`Architecture` bundles one (or none) of each.  The default
``"soup"`` architecture binds *no* strategies: every node keeps running
:class:`SoupSelectionStrategy`, and the other seams take zero extra
branches, keeping the paper-faithful path on the committed digests of
``tests/sim/test_golden_digests.py``.

Strategies are deliberately **RNG-free**: all randomness stays inside
Algorithm 1 (:func:`repro.core.selection.select_mirrors`), driven by the
engine's own ``random.Random`` stream.  That keeps same-seed runs
byte-identical even for non-default architectures, and makes every
head-to-head comparison replayable from ``(config, seed)`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.core.selection import (  # noqa: F401  (re-exported)
    MirrorSelectionStrategy,
    SoupSelectionStrategy,
)

#: Architecture names accepted by ``ScenarioConfig.architecture`` (and the
#: ``soup compare`` CLI).  Registration order is the comparison-table order.
ARCHITECTURES: Dict[str, Callable[[], "Architecture"]] = {}


def register_architecture(name: str):
    """Class/function decorator adding a factory to :data:`ARCHITECTURES`."""

    def wrap(factory):
        ARCHITECTURES[name] = factory
        return factory

    return wrap


def architecture_names() -> List[str]:
    return list(ARCHITECTURES)


def gini(counts: np.ndarray) -> float:
    """Gini coefficient of a non-negative load distribution.

    0 = every node carries the same load, →1 = one node carries it all.
    The storage-share fairness number in the comparison table: SOUP's own
    claim is that the *upper half* by online time carries >90 % of the
    replicas (Sec. 5.2.2), so a useful baseline comparison needs the whole
    distribution summarized, not just that one split.
    """
    values = np.sort(np.asarray(counts, dtype=float))
    n = len(values)
    total = values.sum()
    if n == 0 or total <= 0.0:
        return 0.0
    # Standard rank formulation: G = (2 Σ i·x_i)/(n Σ x) - (n+1)/n.
    ranks = np.arange(1, n + 1)
    return float(2.0 * (ranks * values).sum() / (n * total) - (n + 1) / n)


def unavailability(uptime, mirrors: Iterable[int]) -> float:
    """Π (1 - uptime[mirror]): the ε estimate Algorithm 1 reports, for a
    mirror set a strategy chose without it."""
    perr = 1.0
    for mirror in mirrors:
        perr *= 1.0 - float(uptime[mirror])
    return perr


# ----------------------------------------------------------------------
# strategy interfaces
# ----------------------------------------------------------------------
class PlacementStrategy:
    """Remaps directory keys before the overlay routes them.

    ``map_key`` must be a pure function of the key and registered state —
    publish and lookup both call it, so both sides agree on where an
    entry lives without any extra coordination traffic.
    """

    name = "placement"

    def bind_social_graph(self, friends_of, dht_id_of) -> None:
        """Offer the friendship adjacency + node→DHT-id mapping.

        Called once after population build (engine) or friendship setup
        (deployment); socially-aware strategies derive their anchors and
        shortcuts here.  Default: ignore it.
        """

    def map_key(self, key: int) -> int:
        return key

    def metrics(self) -> Dict[str, float]:
        return {}


class RoutingPolicy:
    """Offers additional next-hop candidates to Pastry prefix routing.

    The overlay filters every offered candidate through its monotone
    ``(ring_distance, node_id)`` progress rule, so a policy can only
    *shorten* routes, never create loops or change the responsible node.
    """

    name = "routing"

    def bind_social_graph(self, friends_of, dht_id_of) -> None:
        """Same contract as :meth:`PlacementStrategy.bind_social_graph`."""

    def extra_candidates(self, node_id: int, key: int) -> Iterable[int]:
        return ()

    def metrics(self) -> Dict[str, float]:
        return {}


class ReadPathStrategy:
    """Intercepts profile reads before they reach the owner's mirrors."""

    name = "read_path"

    def begin_epoch(self, epoch: int) -> None:
        """Epoch boundary (TTL bookkeeping)."""

    def try_serve(self, reader: int, owner: int, epoch: int) -> bool:
        """True when the read was served locally (mirrors untouched)."""
        return False

    def on_fetch(
        self, reader: int, owner: int, epoch: int, success: bool
    ) -> None:
        """A mirror-path fetch completed (populate on success)."""

    def invalidate(self, owner: int) -> None:
        """Owner's data changed or departed — drop cached copies."""

    def fresh_readers(self, owner: int) -> Iterable[int]:
        """Readers currently holding a live cached copy of ``owner``."""
        return ()

    def available_owners(self, online_now: np.ndarray, epoch: int) -> Iterable[int]:
        """Owners reachable through the cache tier this epoch."""
        return ()

    def serving(self, online_now: np.ndarray) -> np.ndarray:
        """Which nodes can serve a replica this epoch: a subset of the
        online ones (the simulator's mirror reads and availability)."""
        return online_now

    def metrics(self) -> Dict[str, float]:
        return {}


# ----------------------------------------------------------------------
# the default architecture: plain SOUP
# ----------------------------------------------------------------------
@dataclass
class Architecture:
    """One architecture = a named bundle of (optional) strategies.

    ``None`` means "keep the hard-wired SOUP behaviour at that seam" —
    the engine takes the exact pre-refactor code path, so an architecture
    only pays for the seams it actually overrides.
    """

    name: str
    selection: Optional[MirrorSelectionStrategy] = None
    placement: Optional[PlacementStrategy] = None
    routing: Optional[RoutingPolicy] = None
    read_path: Optional[ReadPathStrategy] = None
    #: Extra per-architecture metric groups merged into :meth:`metrics`
    #: (the shadow-DHT probe reports through this).
    extra_metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def metrics(self) -> Dict[str, Dict[str, float]]:
        """Nested ``{component: {metric: value}}`` for the result's
        ``arch`` section — flattened to ``arch.<component>.<metric>`` in
        ``SimulationResult.summary()`` for sweep aggregation."""
        groups: Dict[str, Dict[str, float]] = {}
        for component, strategy in (
            ("selection", self.selection),
            ("placement", self.placement),
            ("routing", self.routing),
            ("cache", self.read_path),
        ):
            if strategy is not None:
                numbers = strategy.metrics()
                if numbers:
                    groups[component] = dict(numbers)
        for component, numbers in self.extra_metrics.items():
            merged = groups.setdefault(component, {})
            merged.update(numbers)
        return groups


@register_architecture("soup")
def _make_soup() -> Architecture:
    """The paper's own design: no seam overridden."""
    return Architecture(name="soup")


def create_architecture(name: str) -> Architecture:
    """Instantiate a registered architecture."""
    factory = ARCHITECTURES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown architecture {name!r} (known: {sorted(ARCHITECTURES)})"
        )
    return factory()
