"""Slow, obviously-right passes over a knowledge base, kept as test oracles.

``KnowledgeBase.selection_view`` and ``end_selection_round`` each do in one
pass what these did in several; ``test_fast_helpers.py`` pins the fast
forms to them, order included.  The oracles read a knowledge base through
its public per-id API only; the round-closing passes work on a copy of it
as rows (:func:`rows`) and return what the knowledge base should hold.
"""

from typing import Iterable, List, Optional, Tuple

from repro.core.knowledge import KnowledgeBase

#: ``(node_id, is_friend, experience, ttl, is_mirror)``; ``ttl`` is
#: ``None`` for a friend.
Row = Tuple[int, bool, float, Optional[int], bool]


def rows(kb: KnowledgeBase) -> List[Row]:
    """Everything ``kb`` knows, one row per known node, in KB order."""
    return [
        (node_id, kb.is_friend(node_id), kb.experience_of(node_id),
         kb.ttl_of(node_id), kb.is_mirror(node_id))
        for node_id in kb
    ]


def friends(kb: KnowledgeBase) -> List[int]:
    return [node_id for node_id in kb if kb.is_friend(node_id)]


def ranked_candidates(kb: KnowledgeBase) -> List[Tuple[int, float]]:
    """All known nodes sorted by experience value, best first."""
    ranked = [(node_id, kb.experience_of(node_id)) for node_id in kb]
    ranked.sort(key=lambda pair: (-pair[1], pair[0]))
    return ranked


def unranked_nodes(kb: KnowledgeBase) -> List[int]:
    """Known nodes with no experience yet (exploration candidates)."""
    return [node_id for node_id in kb if kb.experience_of(node_id) == 0.0]


def mark_mirrors(table: List[Row], mirrors: Iterable[int], default_ttl: int) -> List[Row]:
    """Flag the current mirror set and refresh those strangers' TTLs."""
    mirror_set = set(mirrors)
    return [
        (node_id, is_friend, experience,
         default_ttl if node_id in mirror_set and not is_friend else ttl,
         node_id in mirror_set)
        for node_id, is_friend, experience, ttl, _ in table
    ]


def decay_ttls(table: List[Row]) -> Tuple[List[int], List[Row]]:
    """Age all non-mirror strangers one round and prune the expired:
    ``(pruned ids, rows kept)``."""
    pruned: List[int] = []
    kept: List[Row] = []
    for node_id, is_friend, experience, ttl, is_mirror in table:
        if not (is_mirror or is_friend):
            ttl -= 1
            if ttl <= 0:
                pruned.append(node_id)
                continue
        kept.append((node_id, is_friend, experience, ttl, is_mirror))
    return pruned, kept
