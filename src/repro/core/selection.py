"""Algorithm 1: choosing mirrors from the candidate ranking.

Three stages (paper Sec. 4.5):

1. **Greedy ε-availability.**  Add top-ranked candidates one by one until the
   estimated probability of the data being unavailable,
   ``perr = Π (1 - r_i)``, drops below the target error rate ε (Eq. 2).

2. **Social filter.**  For every selected stranger, if some unselected friend
   ``v'`` satisfies ``r_{v'} · β > r_v``, the friend replaces the stranger
   (Eq. 3 — the paper prints ``max(β·r, 1)`` where the cap is clearly meant
   as an upper bound, i.e. ``min(β·r, 1)``; we implement the cap).

3. **Exploration.**  Add one random node without a ranking, "to prevent a
   possible overlooking of even better suited nodes".

:class:`ReplicationState` is one node's selection state and runs one round
of it; the epoch engine's nodes and every ``SoupNode``'s ``MirrorManager``
are subclasses, so both protocol implementations make the decision here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    AbstractSet,
    Collection,
    Container,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.config import SoupConfig
from repro.core.dropping import ReplicaStore
from repro.core.experience import ExperienceBatch, ExperienceReport, ExperienceSet
from repro.core.knowledge import KnowledgeBase
from repro.core.ranking import (
    BOOTSTRAP_PRIOR,
    BootstrapRanker,
    RegularRanker,
    candidate_ranking,
)

#: Hard cap on mirror-set size, so low-quality rankings cannot make the
#: greedy loop run away (the paper reports ≤ ~13 replicas even under
#: attack; the cap is far above normal operation).  Exploration may add
#: one node beyond it.
MAX_MIRRORS = 30


@dataclass
class SelectionResult:
    """Outcome of one run of Algorithm 1."""

    mirrors: List[int]
    #: Estimated P(data unavailable) after the greedy stage, Π(1 - r_i).
    estimated_error: float
    #: Strangers replaced by friends in the social-filter stage.
    replacements: List[Tuple[int, int]] = field(default_factory=list)
    #: The random exploration node, if one was available to add.
    exploration_node: Optional[int] = None

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.mirrors

    def __len__(self) -> int:
        return len(self.mirrors)


class Exclusion:
    """The nodes one owner must not select, as a membership test.

    ``unreachable`` is shared by every owner selecting at the same moment
    (in the simulator: the whole population that is offline, departed or
    not yet joined) and is never copied; ``own`` is the owner's small
    personal set (itself, mirrors that rejected or failed it) and
    ``holding`` the mirrors that already store its replica, which stay
    selectable while unreachable.  Building one costs O(1), asking it
    costs O(1) — where a materialised set would cost the population size
    per owner; :meth:`among` materialises only the part that concerns a
    given handful of candidates.
    """

    __slots__ = ("own", "unreachable", "holding")

    def __init__(
        self,
        own: AbstractSet[int],
        unreachable: AbstractSet[int],
        holding: AbstractSet[int],
    ) -> None:
        self.own = own
        self.unreachable = unreachable
        self.holding = holding

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.own or (
            node_id in self.unreachable and node_id not in self.holding
        )

    def among(self, ids: Collection[int]) -> Set[int]:
        """The members of ``ids`` that are excluded, as a plain set — built
        in O(len(ids)) by set algebra, without touching the rest of
        ``unreachable``."""
        return (
            self.unreachable.intersection(ids) - self.holding
        ) | self.own.intersection(ids)


def boosted_rank(rank: float, is_friend: bool, beta: float) -> float:
    """Apply the social filter boost of Eq. (3), capped at 1."""
    if not is_friend:
        return rank
    return min(beta * rank, 1.0)


def select_mirrors(
    ranking: Sequence[Tuple[int, float]],
    friends: Iterable[int],
    config: SoupConfig,
    rng: random.Random,
    exploration_pool: Iterable[int] = (),
    exclude: Container[int] = (),
) -> SelectionResult:
    """Run Algorithm 1.

    ``ranking`` is the candidate list (node id, experience value) from
    either ranking mode, best first.  ``exploration_pool`` holds known but
    unranked nodes eligible as the random addition.  ``exclude`` holds the
    nodes that must never be chosen (the owner itself, blacklisting peers,
    unreachable ones): a set, or an :class:`Exclusion` over a shared
    population-sized one, of which only the part among the candidates is
    materialised.
    """
    # Only ever asked about candidates, which are not excluded.
    friend_set: Set[int] = set(friends)
    if isinstance(exclude, Exclusion):
        exploration_pool = list(exploration_pool)
        exclude = exclude.among([node for node, _ in ranking] + exploration_pool)

    candidates = [
        (node, max(0.0, min(1.0, rank)))
        for node, rank in ranking
        if node not in exclude
    ]
    # Shuffle before the stable sort so that rank ties (e.g. many unknown
    # candidates at the bootstrap prior) break randomly instead of by node
    # id — otherwise the whole OSN would pile onto the same few nodes.
    rng.shuffle(candidates)
    candidates.sort(key=itemgetter(1), reverse=True)

    # --- Stage 1: greedy until perr < epsilon ---------------------------
    mirrors: List[int] = []
    perr = 1.0
    for node, rank in candidates:
        # The paper's loop runs "while perr > ε": reaching ε exactly stops.
        if perr <= config.epsilon or len(mirrors) >= MAX_MIRRORS:
            break
        if rank <= 0.0:
            # Candidates below this point (the list is sorted) cannot reduce
            # perr; adding them would only inflate the replica overhead.
            break
        mirrors.append(node)
        perr *= 1.0 - rank

    # --- Stage 2: social filter ------------------------------------------
    ranks = dict(candidates)
    selected: Set[int] = set(mirrors)
    spare_friends = [
        (node, rank)
        for node, rank in candidates
        if node in friend_set and node not in selected
    ]
    # Best spare friends first, so the strongest friends do the replacing.
    spare_friends.sort(key=itemgetter(1), reverse=True)
    replacements: List[Tuple[int, int]] = []
    for index, stranger in enumerate(list(mirrors)):
        if stranger in friend_set:
            continue
        stranger_rank = ranks.get(stranger, 0.0)
        if spare_friends:
            friend, friend_rank = spare_friends[0]
            if boosted_rank(friend_rank, True, config.beta) > stranger_rank:
                mirrors[index] = friend
                selected.discard(stranger)
                selected.add(friend)
                replacements.append((stranger, friend))
                spare_friends.pop(0)

    # --- Stage 3: random exploration --------------------------------------
    exploration_candidates = [
        node
        for node in exploration_pool
        if node not in selected and node not in exclude
    ]
    exploration_node: Optional[int] = None
    if exploration_candidates and len(mirrors) < MAX_MIRRORS:
        exploration_node = rng.choice(exploration_candidates)
        mirrors.append(exploration_node)

    return SelectionResult(
        mirrors=mirrors,
        estimated_error=perr,
        replacements=replacements,
        exploration_node=exploration_node,
    )


class MirrorSelectionStrategy:
    """Chooses a node's mirror set each selection opportunity.

    :meth:`ReplicationState.select` supplies the inputs Algorithm 1
    consumes; a strategy may rewrite the candidate ranking, delegate to
    :func:`select_mirrors`, or replace the algorithm outright.  The
    K-replication contract every implementation must honour (enforced by
    ``tests/property/test_arch_properties.py``): never more than
    :data:`MAX_MIRRORS` mirrors, never a node from ``exclude``
    (owner, blacklisting/rejecting peers, offline candidates), and no
    duplicates.  ``exclude`` may stand for a population-sized set, so a
    strategy only ever asks it ``in`` — including for candidates it adds
    itself — and never iterates or copies it.  ``repro.arch`` holds the
    alternatives to the paper's own :class:`SoupSelectionStrategy`.
    """

    name = "strategy"

    def begin_round(self, view, epoch: int) -> None:
        """Called once per selection round before any :meth:`select`.

        ``view`` is the engine (duck-typed): strategies may read uptime
        (``observed_uptime``), capacities, departure flags and where
        replicas live (``holds``) — but must not mutate engine state or
        draw RNG.
        """

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
        raise NotImplementedError

    def on_commit(self, owner: int, accepted: List[int], epoch: int) -> None:
        """The mirror set that actually accepted (capacity accounting)."""

    def metrics(self) -> Dict[str, float]:
        return {}


class SoupSelectionStrategy(MirrorSelectionStrategy):
    """Paper-faithful Algorithm 1, unchanged — the identity strategy."""

    name = "soup"

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
            ranking=ranking,
            friends=friends,
            config=config,
            rng=rng,
            exploration_pool=exploration_pool,
            exclude=exclude,
        )


class ReplicationState:
    """One node's replication state, and one selection round over it.

    What the paper gives the Mirror Manager (Sec. 6) and both protocol
    implementations keep per node: the knowledge base, the rankers, the
    replica store, experience sets and reports, and the selected /
    announced / rejecting / dead mirrors.  The simulator's nodes and
    ``repro.node.MirrorManager`` subclass it, so a selection round is
    decided here once: :meth:`select` runs the installed strategy over the
    candidate ranking, :meth:`commit` records the set that accepted.
    Callers place replicas and instrument; this class does neither.
    """

    #: Algorithm 1 unless an architecture installs another strategy.
    selection_strategy: MirrorSelectionStrategy = SoupSelectionStrategy()

    def __init__(
        self,
        owner_id: int,
        config: SoupConfig,
        capacity_profiles: float,
        rng: random.Random,
    ) -> None:
        self.owner_id = owner_id
        self.config = config
        #: Algorithm 1's random draws (the simulator shares one stream).
        self.rng = rng
        self.knowledge = KnowledgeBase(owner=owner_id)
        self.bootstrap = BootstrapRanker()
        self.ranker = RegularRanker(self.knowledge, config)
        self.store = ReplicaStore(owner_id, capacity_profiles, config)
        #: ES_u(w) for each friend w, accumulated between exchanges.
        self.experience_sets: Dict[int, ExperienceSet] = {}
        #: What friends sent about *my* mirrors, pending ingestion, in
        #: arrival order: one batch of counts per exchange with a friend,
        #: and single reports (forged, re-weighed or tampered with).
        self.pending_reports: List[Union[ExperienceBatch, ExperienceReport]] = []
        #: The mirror set the last selection chose.  This and the announced
        #: set are only ever replaced whole, so both start as the shared
        #: empty tuple: no container per node until a selection.
        self.selected_mirrors: Sequence[int] = ()
        #: The mirror set published in the directory (announced).
        self.announced_mirrors: Sequence[int] = ()
        #: Mirrors that rejected a storage request since the last
        #: selection, which excludes them once.
        self.rejected_by: Set[int] = set()
        #: Mirrors the failure detector declared dead: excluded from
        #: selection until seen alive again.
        self.dead_mirrors: Set[int] = set()
        #: ε estimate of the last selection; above ``config.epsilon`` the
        #: node runs on a *partial* mirror set (candidates exhausted).
        self.last_estimated_error: Optional[float] = None
        #: Regular mode (Sec. 4.4) once friends' reports have arrived.
        self.has_experience = False

    # --- experience ----------------------------------------------------------
    def experience_set_for(self, friend: int) -> ExperienceSet:
        es = self.experience_sets.get(friend)
        if es is None:
            es = ExperienceSet(observed_friend=friend)
            self.experience_sets[friend] = es
        return es

    def hand_over(self, friend: int, weight: float = 1.0) -> Optional[ExperienceBatch]:
        """ES_u(friend) for an exchange: the counts themselves, as one batch
        (``None`` if nothing was observed since the last exchange)."""
        es = self.experience_sets.get(friend)
        if es is None:
            return None
        return es.hand_over(self.owner_id, weight)

    def receive_batch(self, batch: ExperienceBatch) -> None:
        self.pending_reports.append(batch)

    def receive_reports(self, reports: Iterable[ExperienceReport]) -> None:
        self.pending_reports.extend(reports)

    def ingest_pending_reports(self) -> int:
        if not self.pending_reports:
            return 0
        count = len(self.pending_reports)
        self.ranker.ingest_reports(self.pending_reports)
        self.pending_reports.clear()
        self.has_experience = True
        return count

    # --- selection -------------------------------------------------------------
    def select(
        self, unreachable: AbstractSet[int], holding: AbstractSet[int] = frozenset()
    ) -> SelectionResult:
        """Run the strategy (Algorithm 1 by default) over the candidate
        ranking, never choosing the owner, a mirror that rejected it since
        the last selection, a dead one, or an ``unreachable`` node unless it
        is ``holding`` the replica already.  Records the new selection."""
        exclude = Exclusion(
            own={self.owner_id} | self.rejected_by | self.dead_mirrors,
            unreachable=unreachable,
            holding=holding,
        )
        ranking, friends, unranked = candidate_ranking(
            self.knowledge, self.bootstrap, BOOTSTRAP_PRIOR
        )
        result = self.selection_strategy.select(
            self.owner_id,
            ranking,
            friends,
            self.config,
            self.rng,
            exploration_pool=unranked,
            exclude=exclude,
        )
        self.rejected_by.clear()
        self.selected_mirrors = list(result.mirrors)
        self.last_estimated_error = result.estimated_error
        return result

    def has_partial_set(self) -> bool:
        """Whether the last selection fell short of the ε target (candidate
        pool exhausted — the set is committed anyway, degraded)."""
        return (
            self.last_estimated_error is not None
            and self.last_estimated_error > self.config.epsilon
        )

    def commit(self, accepted: List[int], epoch: int) -> None:
        """Announce the mirror set that accepted the replica and close the
        selection round (knowledge-base TTLs, the strategy's accounting)."""
        self.announced_mirrors = list(accepted)
        self.knowledge.end_selection_round(accepted)
        self.selection_strategy.on_commit(self.owner_id, self.announced_mirrors, epoch)
