"""The per-node knowledge base ``KB_u`` (paper Fig. 3).

Every entry is about a node ``v`` that ``u`` knows: whether ``v`` is a friend
(``sr(u,v)``), the experience value ``exp_v`` when ``v`` serves as a mirror,
and a TTL "that decreases every time u does not choose v as a mirror"
(Sec. 4.4) so stale strangers eventually drop out of the candidate pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass(slots=True)
class KBEntry:
    """One knowledge-base row: a known node and what ``u`` knows about it.

    A simulation keeps one per friendship (3.6 M at paper scale), so the
    row has ``__slots__`` instead of an instance dict.
    """

    node_id: int
    is_friend: bool = False
    experience: float = 0.0
    ttl: int = 0
    is_mirror: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.experience <= 1.0:
            raise ValueError(f"experience must be in [0, 1], got {self.experience}")


class KnowledgeBase:
    """All nodes ``u`` knows about, with friendship, experience and TTL."""

    def __init__(self, owner: int, default_ttl: int = 30) -> None:
        self.owner = owner
        self.default_ttl = default_ttl
        self._entries: Dict[int, KBEntry] = {}

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[KBEntry]:
        """The entries in insertion order — a live view: do not add or
        prune entries while iterating."""
        return iter(self._entries.values())

    def get(self, node_id: int) -> Optional[KBEntry]:
        return self._entries.get(node_id)

    def add_node(self, node_id: int, is_friend: bool = False) -> KBEntry:
        """Learn about a node (no-op if already known; friendship upgrades)."""
        if node_id == self.owner:
            raise ValueError("a node does not keep a KB entry about itself")
        entry = self._entries.get(node_id)
        if entry is None:
            entry = KBEntry(node_id=node_id, is_friend=is_friend, ttl=self.default_ttl)
            self._entries[node_id] = entry
        elif is_friend:
            entry.is_friend = True
        return entry

    def add_friends(self, node_ids: Iterable[int]) -> None:
        """``add_node(node_id, is_friend=True)`` for each id, in order, in
        one pass: how a node learns its whole friend list at start-up."""
        entries = self._entries
        default_ttl = self.default_ttl
        for node_id in node_ids:
            entry = entries.get(node_id)
            if entry is not None:
                entry.is_friend = True
            elif node_id == self.owner:
                raise ValueError("a node does not keep a KB entry about itself")
            else:
                entries[node_id] = KBEntry(node_id, True, 0.0, default_ttl)

    def set_friend(self, node_id: int, is_friend: bool = True) -> None:
        self.add_node(node_id).is_friend = is_friend

    def set_experience(self, node_id: int, experience: float) -> None:
        """Record a new Eq.-(1) experience value for a (candidate) mirror."""
        self.set_experiences(((node_id, experience),))

    def set_experiences(self, values: Iterable[Tuple[int, float]]) -> None:
        """Record ``(node, experience)`` pairs in order: each value is
        clamped to [0, 1], an unknown node is learnt, the TTL restarts."""
        entries = self._entries
        default_ttl = self.default_ttl
        for node_id, experience in values:
            entry = entries.get(node_id)
            if entry is None:
                entry = self.add_node(node_id)
            entry.experience = max(0.0, min(1.0, experience))
            entry.ttl = default_ttl

    def experience_of(self, node_id: int) -> float:
        entry = self._entries.get(node_id)
        return entry.experience if entry is not None else 0.0

    def end_selection_round(self, mirrors: Iterable[int]) -> List[int]:
        """Close a selection round in one pass over the entries: flag the
        new mirror set and restart its TTLs, then age every other entry
        one round and prune the expired.  Friends never expire — the
        social graph itself keeps them known.  Returns the ids of pruned
        entries."""
        mirror_set = set(mirrors)
        default_ttl = self.default_ttl
        pruned = []
        for node_id, entry in self._entries.items():
            if node_id in mirror_set:
                entry.is_mirror = True
                entry.ttl = default_ttl
                continue
            entry.is_mirror = False
            if not entry.is_friend:
                entry.ttl -= 1
                if entry.ttl <= 0:
                    pruned.append(node_id)
        for node_id in pruned:
            del self._entries[node_id]
        return pruned

    def selection_view(
        self,
    ) -> Tuple[List[Tuple[int, float]], List[int], List[int], List[int]]:
        """What one selection round reads, from one pass over the entries:
        ``(ranked, friends, unranked, known)`` — the candidates with
        positive experience, best first (ties by id), then the friends,
        the nodes without experience (exploration candidates) and every
        known id, each in KB order."""
        positive: List[Tuple[float, int]] = []
        friends: List[int] = []
        unranked: List[int] = []
        for node_id, entry in self._entries.items():
            if entry.is_friend:
                friends.append(node_id)
            experience = entry.experience
            if experience > 0.0:
                positive.append((-experience, node_id))
            else:
                unranked.append(node_id)
        # Native tuple order: best experience first, ties by id.
        positive.sort()
        ranked = [(node_id, -negated) for negated, node_id in positive]
        return ranked, friends, unranked, list(self._entries)
