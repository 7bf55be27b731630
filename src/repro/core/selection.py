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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    AbstractSet,
    Collection,
    Container,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.config import SoupConfig


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
        if perr <= config.epsilon or len(mirrors) >= config.max_mirrors:
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
    if exploration_candidates and len(mirrors) < config.max_mirrors:
        exploration_node = rng.choice(exploration_candidates)
        mirrors.append(exploration_node)

    return SelectionResult(
        mirrors=mirrors,
        estimated_error=perr,
        replacements=replacements,
        exploration_node=exploration_node,
    )
