"""The SOUP core: mirror selection, the paper's primary contribution.

This package implements Sec. 4 of the paper end to end:

* :mod:`repro.core.config` — all protocol constants (α, β, ε, θ, c, o_max …)
  with the paper's published defaults.
* :mod:`repro.core.objects` — signed SOUP objects, the universal message
  format exchanged between nodes (Fig. 1).
* :mod:`repro.core.experience` — experience sets ``ES_u(w)`` and the aged,
  observation-capped experience update of Eq. (1).
* :mod:`repro.core.knowledge` — the per-node knowledge base ``KB_u``
  (Fig. 3) with TTL decay.
* :mod:`repro.core.ranking` — mirror-candidate ranking in bootstrapping mode
  (Sec. 4.3) and regular mode (Sec. 4.4).
* :mod:`repro.core.selection` — Algorithm 1: greedy ε-availability selection,
  the social filter (Eq. 3) and the random exploration node; and
  ``ReplicationState``, one node's selection state and round, which the
  simulator's nodes and every ``SoupNode``'s mirror manager share.
* :mod:`repro.core.dropping` — protective dropping with per-owner dropping
  scores and blacklisting (Sec. 4.6).
"""

from repro.core.config import SoupConfig
from repro.core.dropping import ReplicaStore, StoreDecision
from repro.core.experience import (
    ExperienceBatch,
    ExperienceReport,
    ExperienceSet,
    ObservationRecord,
    update_experience,
)
from repro.core.knowledge import KnowledgeBase
from repro.core.objects import ObjectType, SoupObject
from repro.core.ranking import BootstrapRanker, Recommendation, RegularRanker
from repro.core.selection import ReplicationState, SelectionResult, select_mirrors

__all__ = [
    "SoupConfig",
    "ReplicaStore",
    "StoreDecision",
    "ExperienceBatch",
    "ExperienceReport",
    "ExperienceSet",
    "ObservationRecord",
    "update_experience",
    "KnowledgeBase",
    "ObjectType",
    "SoupObject",
    "BootstrapRanker",
    "Recommendation",
    "RegularRanker",
    "ReplicationState",
    "SelectionResult",
    "select_mirrors",
]
