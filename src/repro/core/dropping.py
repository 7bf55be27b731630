"""Protective dropping (paper Sec. 4.6).

A mirror with exhausted storage must decide which replica to drop, and must
defend itself against sybil flooders.  For each node ``w`` storing data at
``v``, ``v`` maintains a dropping score ``d_w``:

* when an experience-set exchange with friend ``u`` reveals that ``w`` also
  stores at ``u``, ``d_w += 1`` (flooders who store everywhere score high;
  dropping a widely-replicated profile also hurts availability least);
* friends are protected: their score decreases by ``1/β`` per exchange;
* if ``v`` holds a copy of ``w``'s data but is **not** in ``w``'s published
  mirror set, ``d_w += c`` (announced/real mismatch signals flooding);
* at ``d_w ≥ θ`` the owner is blacklisted (θ=300, c=100: three strikes).

A node learns from all its friends of a round in one
:meth:`ReplicaStore.learn_friend_storage` call, which equals one call per
friend, in order: the same scores, score-table order and removals.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from operator import sub
from typing import Container, Dict, Iterable, KeysView, List, NamedTuple, Optional, Set

from repro.core.config import SoupConfig


class StoreDecision(NamedTuple):
    """Outcome of a storage request at a mirror (a plain tuple underneath)."""

    accepted: bool
    dropped_owner: Optional[int] = None
    reason: str = ""


class ReplicaStore:
    """A mirror's replica storage with protective dropping.

    ``capacity_profiles`` is the node's storage budget expressed in profile
    units (Sec. 5.1: Gaussian with median 50 profiles); every replica is
    one whole profile, so the store is full at that many replicas.
    """

    def __init__(self, owner: int, capacity_profiles: float, config: SoupConfig) -> None:
        if capacity_profiles <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_profiles}")
        self.owner = owner
        self.capacity_profiles = capacity_profiles
        self._config = config
        #: Stored owner -> whether it is a friend (friends are never
        #: evicted), in storage order.
        self._replicas: Dict[int, bool] = {}
        #: Dropping scores.  Insertion order is the order blacklisting
        #: reports removals in, so entries are only ever added, never moved.
        self._scores: Dict[int, float] = {}
        #: Upper bound of every non-blacklisted score (stale-high after a
        #: decrease, tightened by each blacklist scan): while it is below θ
        #: no scan can find anything, so none is made.  Every score write
        #: raises it — :meth:`_set_score` and :meth:`learn_friend_storage`.
        self._ceiling = 0.0
        self._blacklist: Set[int] = set()

    # --- inspection -------------------------------------------------------
    def stores_for(self, owner: int) -> bool:
        return owner in self._replicas

    def stored_owners(self) -> List[int]:
        return list(self._replicas)

    def stored_owner_view(self) -> KeysView[int]:
        """The stored owners as a live set-like view — no copy, so not to be
        held across a mutation of this store."""
        return self._replicas.keys()

    def replica_count(self) -> int:
        return len(self._replicas)

    def dropping_score(self, owner: int) -> float:
        return self._scores.get(owner, 0.0)

    def is_blacklisted(self, owner: int) -> bool:
        return owner in self._blacklist

    def blacklisted_owners(self) -> Set[int]:
        return set(self._blacklist)

    # --- storage protocol ---------------------------------------------------
    def request_store(self, owner: int, is_friend: bool = False) -> StoreDecision:
        """Handle a storage request; may evict a high-score replica.

        Friends' replicas are protected from eviction.  A request from a
        blacklisted owner is always rejected.  A request from an owner
        already stored refreshes its friendship flag and takes no room.
        """
        if owner == self.owner:
            raise ValueError("a node does not mirror its own data")
        if owner in self._blacklist:
            return StoreDecision(accepted=False, reason="blacklisted")
        if self.capacity_profiles < 1:
            return StoreDecision(accepted=False, reason="larger than capacity")
        if owner in self._replicas:
            self._replicas[owner] = is_friend
            return StoreDecision(accepted=True, reason="already stored")

        dropped: Optional[int] = None
        while len(self._replicas) + 1 > self.capacity_profiles:
            victim = self._pick_victim(requesting_owner=owner)
            if victim is None:
                return StoreDecision(accepted=False, reason="storage exhausted")
            del self._replicas[victim]
            dropped = victim

        self._replicas[owner] = is_friend
        return StoreDecision(accepted=True, dropped_owner=dropped, reason="stored")

    def remove(self, owner: int) -> bool:
        """Drop a replica because the owner de-selected this mirror."""
        return self._replicas.pop(owner, None) is not None

    def _pick_victim(self, requesting_owner: int) -> Optional[int]:
        """Choose the replica to drop: highest dropping score, never friends;
        ties break toward the lowest owner id."""
        scores = self._scores
        return min(
            (
                owner
                for owner, is_friend in self._replicas.items()
                if not is_friend and owner != requesting_owner
            ),
            key=lambda owner: (-scores.get(owner, 0.0), owner),
            default=None,
        )

    # --- dropping-score maintenance -----------------------------------------
    def _set_score(self, owner: int, score: float) -> None:
        self._scores[owner] = score
        if score > self._ceiling:
            self._ceiling = score

    def learn_friend_storage(self, *stored_at_friends: Iterable[int]) -> List[int]:
        """Update scores from one round of ES exchanges with friends.

        Each argument holds the owners storing replicas at one friend (pass
        the friend's :meth:`stored_owner_view`; it is intersected with our
        stored owners).  Per friend, owners we also store score +1 and our
        friends get the -1/β protection.  The result equals one call per
        argument, in order, bit for bit: every score takes the same float
        steps in the same order, a new owner enters the score table at the
        first friend that touches it, and blacklisting fires after the
        same friend.  Returns owners whose replicas were removed by
        blacklisting, in that order.
        """
        if not stored_at_friends:
            return []
        replicas = self._replicas
        scores = self._scores
        protection = 1.0 / self._config.beta
        n_views = len(stored_at_friends)
        hits = [replicas.keys() & view for view in stored_at_friends]
        hit_any = set().union(*hits)
        ceiling = self._ceiling
        learnt: Dict[int, float] = {}
        # start score -> after one protection step per view (friends
        # stored in the same round share their score history).
        protected: Dict[float, float] = {}
        for owner, is_friend in replicas.items():
            if owner in hit_any:
                score = scores.get(owner, 0.0)
                for hit in hits:
                    if owner in hit:
                        score += 1.0
                        if is_friend:
                            score -= protection
                        if score > ceiling:
                            ceiling = score
                    elif is_friend:
                        score -= protection
                learnt[owner] = score
            elif is_friend:
                # One protection step per view; a decrease never lifts
                # the ceiling.
                start = scores.get(owner, 0.0)
                score = protected.get(start)
                if score is None:
                    score = protected[start] = reduce(
                        sub, repeat(protection, n_views), start
                    )
                learnt[owner] = score
        if ceiling >= self._config.theta and n_views > 1:
            # A blacklist check may fire between two friends: take them
            # one at a time.
            removed = []
            for view in stored_at_friends:
                removed += self.learn_friend_storage(view)
            return removed
        fresh = [owner for owner in learnt if owner not in scores]
        if fresh:
            # Friends are first touched by the first view, other owners by
            # their first hit; the sort is stable, so store order breaks ties.
            fresh.sort(
                key=lambda owner: 0
                if replicas[owner]
                else next(k for k, hit in enumerate(hits) if owner in hit)
            )
            for owner in fresh:
                scores[owner] = learnt[owner]
        scores.update(learnt)
        self._ceiling = ceiling
        if ceiling < self._config.theta:
            return []
        return self._check_blacklist()

    def observe_published_mirrors(self, owner: int, announced: Container[int]) -> List[int]:
        """Compare the owner's published mirror set against reality.

        If we store the owner's data but are not announced as its mirror,
        the score jumps by ``c`` — "such a mismatch between the announced
        and the real mirror set may indicate a flooding attempt".  Returns
        owners whose replicas were removed by blacklisting.
        """
        if owner not in self._replicas:
            return []
        if self.owner not in announced:
            self._set_score(
                owner, self._scores.get(owner, 0.0) + self._config.mismatch_penalty
            )
        if self._ceiling < self._config.theta:
            return []
        return self._check_blacklist()

    def _check_blacklist(self) -> List[int]:
        """Blacklist every owner whose score has reached θ.  Returns the
        ones whose replica was stored here (now evicted), in score-table
        order."""
        theta = self._config.theta
        removed = []
        ceiling = 0.0
        for owner, score in self._scores.items():
            if owner in self._blacklist:
                continue
            if score >= theta:
                self._blacklist.add(owner)
                if self._replicas.pop(owner, None) is not None:
                    removed.append(owner)
            elif score > ceiling:
                ceiling = score
        self._ceiling = ceiling
        return removed
