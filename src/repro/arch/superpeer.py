"""Super-peer mirror economy (SuperNova-style baseline).

Sharma & Datta's SuperNova organizes a DOSN around *super-peers*: nodes
with high availability and spare capacity volunteer to host data for
"weak" nodes that cannot assemble a good mirror set from their own
social neighbourhood.  This baseline reproduces that economy on top of
SOUP's machinery:

* **Election.**  Each selection round, joined benign nodes with observed
  uptime ≥ :data:`MIN_UPTIME` (0.6) are ranked by (uptime, capacity) and
  the top :data:`SUPERPEER_FRACTION` (5 %) of the population volunteer as
  super-peers.  Departed or churned-out super-peers are
  demoted and replaced — re-election on churn.
* **Capacity accounting.**  Every super-peer advertises a bounded number
  of hosting *slots*, half its storage capacity.  Commitments decrement the free
  slots; a full super-peer stops being offered.
* **Selection.**  Weak owners (observed uptime below the election bar)
  get available super-peers spliced into their candidate ranking at a
  high trust rank, so Algorithm 1 greedily picks them first; strong
  owners keep the plain SOUP ranking.  Algorithm 1 itself — the ε
  target, the social filter, exploration — runs unchanged, so the
  K-replication invariant holds by construction.

The strategy draws no RNG and mutates no engine state: elections are a
pure function of the engine view, so same-seed runs stay
byte-identical.
"""

from __future__ import annotations

import random
from typing import Container, Dict, Iterable, List, Sequence, Tuple

from repro.arch.base import (
    Architecture,
    MirrorSelectionStrategy,
    register_architecture,
)
from repro.core.config import SoupConfig
from repro.core.selection import SelectionResult, select_mirrors

#: Rank assigned to an offered super-peer slot.  Just below a perfect
#: 1.0 experience so first-hand evidence of a *better* mirror still
#: wins, but above every bootstrap-prior candidate.
SUPERPEER_RANK = 0.95
#: Share of the population elected super-peer each round.
SUPERPEER_FRACTION = 0.05
#: Observed uptime that makes a node electable, and below which an owner
#: counts as weak and is offered super-peer slots.
MIN_UPTIME = 0.6


class SuperPeerEconomy(MirrorSelectionStrategy):
    """Elected super-peers host mirrors for weak nodes."""

    name = "superpeer"

    def __init__(self) -> None:
        #: super-peer id -> free hosting slots this round.
        self.free_slots: Dict[int, int] = {}
        #: Current super-peer set, in election (quality) order.
        self.superpeers: List[int] = []
        self._uptime: Dict[int, float] = {}

        # Counters for the `arch.selection.*` metric group.
        self.elections = 0
        self.demotions = 0
        self.weak_owners_boosted = 0
        self.slots_committed = 0
        self._slots_total_last = 0

    # ------------------------------------------------------------------
    def begin_round(self, view, epoch: int) -> None:
        """Re-elect the super-peer roster from the engine view.

        Deterministic: candidates are ranked by (uptime, capacity,
        node id) — no RNG, no dependence on dict iteration order.
        """
        previous = set(self.superpeers)
        uptime = view.observed_uptime(epoch)
        capacities = view.capacities
        # The engine view hands dense arrays indexed by node id; the
        # deployment view hands dicts keyed by (sparse) SOUP ids.
        if hasattr(capacities, "keys"):
            population = sorted(capacities.keys())
        else:
            population = range(len(capacities))
        n_total = len(population)
        candidates = [
            node_id
            for node_id in population
            if view.is_electable(node_id) and uptime[node_id] >= MIN_UPTIME
        ]
        candidates.sort(
            key=lambda nid: (-uptime[nid], -capacities[nid], nid)
        )
        quota = max(1, int(round(n_total * SUPERPEER_FRACTION)))
        elected = candidates[:quota]

        self.demotions += sum(1 for nid in previous if nid not in set(elected))
        self.elections += 1
        self.superpeers = elected
        self._uptime = {nid: float(uptime[nid]) for nid in elected}
        # A super-peer pledges half its storage capacity to the economy,
        # keeping the rest for organically selected replicas.
        self.free_slots = {nid: max(1, int(capacities[nid] // 2)) for nid in elected}
        self._slots_total_last = sum(self.free_slots.values())
        self._owner_uptime = uptime

    # ------------------------------------------------------------------
    def augment_ranking(
        self, owner: int, ranking: Sequence[Tuple[int, float]], exclude: Container[int]
    ) -> List[Tuple[int, float]]:
        """Splice open super-peers into a weak owner's candidate list."""
        uptime = getattr(self, "_owner_uptime", None)
        if uptime is None or uptime[owner] >= MIN_UPTIME:
            return list(ranking)
        offers = [
            nid
            for nid in self.superpeers
            if self.free_slots.get(nid, 0) > 0 and nid != owner and nid not in exclude
        ]
        if not offers:
            return list(ranking)
        self.weak_owners_boosted += 1
        offered = set(offers)
        kept = [(nid, rank) for nid, rank in ranking if nid not in offered]
        return [(nid, SUPERPEER_RANK) for nid in offers] + kept

    def select(
        self,
        owner: int,
        ranking: Sequence[Tuple[int, float]],
        friends: Iterable[int],
        config: SoupConfig,
        rng: random.Random,
        exploration_pool: Iterable[int] = (),
        exclude: Container[int] = (),
    ) -> SelectionResult:
        return select_mirrors(
            ranking=self.augment_ranking(owner, ranking, exclude),
            friends=friends,
            config=config,
            rng=rng,
            exploration_pool=exploration_pool,
            exclude=exclude,
        )

    def on_commit(self, owner: int, accepted: List[int], epoch: int) -> None:
        for mirror_id in accepted:
            free = self.free_slots.get(mirror_id)
            if free is not None and free > 0:
                self.free_slots[mirror_id] = free - 1
                self.slots_committed += 1

    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        total = self._slots_total_last
        free = sum(self.free_slots.values())
        return {
            "superpeer_count": float(len(self.superpeers)),
            "elections": float(self.elections),
            "demotions": float(self.demotions),
            "weak_owners_boosted": float(self.weak_owners_boosted),
            "slots_committed": float(self.slots_committed),
            "slot_utilization": (
                (total - free) / total if total > 0 else 0.0
            ),
        }


@register_architecture("superpeer")
def _make_superpeer() -> Architecture:
    return Architecture(
        name="superpeer",
        selection=SuperPeerEconomy(),
    )
