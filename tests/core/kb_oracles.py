"""Slow, obviously-right passes over a knowledge base, kept as test oracles.

``KnowledgeBase.selection_view`` and ``end_selection_round`` each do in one
pass what these did in several; ``test_fast_helpers.py`` pins the fast
forms to them, order included.
"""

from typing import Iterable, List, Tuple

from repro.core.knowledge import KnowledgeBase


def friends(kb: KnowledgeBase) -> List[int]:
    return [entry.node_id for entry in kb if entry.is_friend]


def ranked_candidates(kb: KnowledgeBase) -> List[Tuple[int, float]]:
    """All known nodes sorted by experience value, best first."""
    ranked = [(entry.node_id, entry.experience) for entry in kb]
    ranked.sort(key=lambda pair: (-pair[1], pair[0]))
    return ranked


def unranked_nodes(kb: KnowledgeBase) -> List[int]:
    """Known nodes with no experience yet (exploration candidates)."""
    return [entry.node_id for entry in kb if entry.experience == 0.0]


def mark_mirrors(kb: KnowledgeBase, mirrors: Iterable[int]) -> None:
    """Flag the current mirror set and refresh those entries' TTLs."""
    mirror_set = set(mirrors)
    for entry in kb:
        entry.is_mirror = entry.node_id in mirror_set
        if entry.is_mirror:
            entry.ttl = kb.default_ttl


def decay_ttls(kb: KnowledgeBase) -> List[int]:
    """Age all non-mirror, non-friend entries one round; prune expired."""
    pruned = []
    for entry in list(kb):
        if entry.is_mirror or entry.is_friend:
            continue
        entry.ttl -= 1
        if entry.ttl <= 0:
            pruned.append(entry.node_id)
            del kb._entries[entry.node_id]
    return pruned
