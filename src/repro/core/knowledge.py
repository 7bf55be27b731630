"""The per-node knowledge base ``KB_u`` (paper Fig. 3).

``u`` knows a set of nodes ``v``: whether ``v`` is a friend (``sr(u,v)``),
the experience value ``exp_v`` when ``v`` serves as a mirror, and a TTL
"that decreases every time u does not choose v as a mirror" (Sec. 4.4) so
stale strangers eventually drop out of the candidate pool.

A simulation knows one node per friendship (3.6 M at paper scale), so a
known node is a dict slot, not an object: one ordered map from node to
experience value holds every known node in KB order, a second map holds
the TTLs of strangers only (friends never expire), and a set holds the
current mirrors.  The maps hold only ints and floats, which the cyclic
collector does not track.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, Iterator, List, Optional, Tuple

_NO_MIRRORS: AbstractSet[int] = frozenset()

#: Selection rounds a stranger stays known without being chosen as a
#: mirror (Sec. 4.4's TTL); choosing it restarts the countdown.
STRANGER_TTL = 30


class KnowledgeBase:
    """All nodes ``u`` knows about, with friendship, experience and TTL.

    A node is a friend exactly when it is known and has no TTL.
    """

    def __init__(self, owner: int) -> None:
        self.owner = owner
        #: Every known node -> its experience value, in KB order (first
        #: learnt first).
        self._experience: Dict[int, float] = {}
        #: Strangers -> selection rounds left, in KB order.
        self._ttl: Dict[int, int] = {}
        #: The known nodes in the mirror set of the last selection round,
        #: replaced whole each round (the shared empty set before the first).
        self._mirrors: AbstractSet[int] = _NO_MIRRORS

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._experience

    def __len__(self) -> int:
        return len(self._experience)

    def __iter__(self) -> Iterator[int]:
        """The known node ids in KB order — a live view: do not add or
        prune nodes while iterating."""
        return iter(self._experience)

    def is_friend(self, node_id: int) -> bool:
        return node_id in self._experience and node_id not in self._ttl

    def is_mirror(self, node_id: int) -> bool:
        return node_id in self._mirrors

    def experience_of(self, node_id: int) -> float:
        return self._experience.get(node_id, 0.0)

    def ttl_of(self, node_id: int) -> Optional[int]:
        """Selection rounds a stranger has left; ``None`` for a friend
        (friends never expire) or an unknown node."""
        return self._ttl.get(node_id)

    def add_node(self, node_id: int, is_friend: bool = False) -> None:
        """Learn about a node (no-op if already known; friendship upgrades)."""
        if node_id in self._experience:
            if is_friend:
                self._ttl.pop(node_id, None)
            return
        if node_id == self.owner:
            raise ValueError("a node does not keep a KB entry about itself")
        self._experience[node_id] = 0.0
        if not is_friend:
            self._ttl[node_id] = STRANGER_TTL

    def add_friends(self, node_ids: Iterable[int]) -> None:
        """``add_node(node_id, is_friend=True)`` for each id, in order, in
        one pass: how a node learns its whole friend list at start-up."""
        experience = self._experience
        if not experience:
            learnt = dict.fromkeys(node_ids, 0.0)
            if self.owner in learnt:
                raise ValueError("a node does not keep a KB entry about itself")
            self._experience = learnt
            return
        ttl = self._ttl
        for node_id in node_ids:
            if node_id in experience:
                ttl.pop(node_id, None)
            elif node_id == self.owner:
                raise ValueError("a node does not keep a KB entry about itself")
            else:
                experience[node_id] = 0.0

    def set_friend(self, node_id: int, is_friend: bool = True) -> None:
        """Learn ``node_id`` as a friend, or as a stranger with
        ``is_friend=False``.  A friend turned back into a stranger starts
        its countdown afresh at :data:`STRANGER_TTL` (no protocol path does
        this: a friendship, once known, stays)."""
        if is_friend:
            self.add_node(node_id, is_friend=True)
        elif node_id not in self._experience:
            self.add_node(node_id)
        elif node_id not in self._ttl:
            # Keep the TTL map in KB order, so prunes come out in it.
            ttl = self._ttl
            self._ttl = {
                known: STRANGER_TTL if known == node_id else ttl[known]
                for known in self._experience
                if known == node_id or known in ttl
            }

    def set_experience(self, node_id: int, experience: float) -> None:
        """Record a new Eq.-(1) experience value for a (candidate) mirror."""
        self.set_experiences(((node_id, experience),))

    def set_experiences(self, values: Iterable[Tuple[int, float]]) -> None:
        """Record ``(node, experience)`` pairs in order: each value is
        clamped to [0, 1], an unknown node is learnt, a stranger's TTL
        restarts."""
        experience = self._experience
        ttl = self._ttl
        stranger_ttl = STRANGER_TTL
        for node_id, value in values:
            if node_id in ttl:
                ttl[node_id] = stranger_ttl
            elif node_id not in experience:
                self.add_node(node_id)
            experience[node_id] = max(0.0, min(1.0, value))

    def experience_values(self) -> Dict[int, float]:
        """Every known node's experience value, in KB order — the live map
        itself, to be read, never written."""
        return self._experience

    def end_selection_round(self, mirrors: Iterable[int]) -> List[int]:
        """Close a selection round in one pass over the strangers: flag the
        new mirror set and restart its TTLs, then age every other stranger
        one round and prune the expired.  Friends never expire — the
        social graph itself keeps them known.  Returns the ids of pruned
        nodes, in KB order."""
        mirror_set = set(mirrors)
        experience = self._experience
        self._mirrors = {node_id for node_id in mirror_set if node_id in experience}
        stranger_ttl = STRANGER_TTL
        ttl = self._ttl
        pruned = []
        # Only values change inside the loop, never keys.
        for node_id, remaining in ttl.items():
            if node_id in mirror_set:
                ttl[node_id] = stranger_ttl
            elif remaining > 1:
                ttl[node_id] = remaining - 1
            else:
                pruned.append(node_id)
        for node_id in pruned:
            del ttl[node_id]
            del experience[node_id]
        return pruned

    def selection_view(
        self,
    ) -> Tuple[List[Tuple[int, float]], List[int], List[int], List[int]]:
        """What one selection round reads: ``(ranked, friends, unranked,
        known)`` — the candidates with positive experience, best first
        (ties by id), then the friends, the nodes without experience
        (exploration candidates) and every known id, each in KB order."""
        experience = self._experience
        ttl = self._ttl
        # Native tuple order: best experience first, ties by id.
        positive = sorted(
            [(-value, node_id) for node_id, value in experience.items() if value > 0.0]
        )
        ranked = [(node_id, -negated) for negated, node_id in positive]
        unranked = [
            node_id for node_id, value in experience.items() if not value > 0.0
        ]
        friends = [node_id for node_id in experience if node_id not in ttl]
        return ranked, friends, unranked, list(experience)
