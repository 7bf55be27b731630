"""Adversary models (paper Sec. 5.2.6).

* **Slander attack** — compromised identities "manipulate experience sets
  (or recommendations to bootstrapping users)" at the maximum rate: they
  report availability 0 with ``o_max`` claimed observations for every real
  mirror of their victims, and recommend useless nodes with perfect claimed
  quality to newcomers.  Eq. (1)'s observation cap and per-friend averaging
  bound their influence.

* **Flooding attack** — an adversary creates sybil identities that flood
  benign nodes with storage requests, trying to exhaust storage so benign
  replicas get dropped.  Sybils store at far more nodes than they announce
  in their published mirror set, which is exactly the announced-vs-real
  mismatch protective dropping penalizes (Sec. 4.6).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set

from repro.core.experience import ExperienceReport
from repro.core.ranking import Recommendation


def sample_others(
    members: Sequence[int], position: int, count: int, rng: random.Random
) -> List[int]:
    """``rng.sample(others, min(count, len(others)))``, where ``others`` is
    ``members`` without ``members[position]`` (all of ``members`` when
    ``position == len(members)``), without building ``others``.

    ``sample`` reads its population only through ``len`` and indexing, so
    drawing indices from ``range(len(others))`` makes the same draws, and
    index ``j`` of ``others`` is index ``j`` of ``members`` before
    ``position`` and ``j + 1`` from it on.  O(count) per call where the
    list would cost O(len(members)).
    """
    size = len(members) - (position < len(members))
    return [
        members[j + (j >= position)]
        for j in rng.sample(range(size), min(count, size))
    ]


def _positions(members: Sequence[int]) -> Dict[int, int]:
    return {member: position for position, member in enumerate(members)}


@dataclass
class SlanderAttack:
    """State and behaviour of the slander adversary."""

    attacker_ids: Set[int]
    #: ``attacker_ids`` in its iteration order, fixed at construction, and
    #: each attacker's position in it.
    _attackers: List[int] = field(init=False, repr=False, compare=False)
    _position: Dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._attackers = list(self.attacker_ids)
        self._position = _positions(self._attackers)

    def is_attacker(self, node_id: int) -> bool:
        return node_id in self.attacker_ids

    def forge_reports(
        self, attacker: int, victim_mirrors: Sequence[int], o_max: int
    ) -> List[ExperienceReport]:
        """Maximum-rate false reports: every victim mirror 'always failed'."""
        return [
            ExperienceReport(
                reporter=attacker, mirror=mirror, observations=o_max, availability=0.0
            )
            for mirror in victim_mirrors
        ]

    def forge_recommendations(
        self, attacker: int, population: Sequence[int], rng: random.Random, count: int = 5
    ) -> List[Recommendation]:
        """Lure bootstrapping users toward fellow attackers (or random junk
        nodes) with perfect claimed quality."""
        attackers = self._attackers
        position = self._position.get(attacker, len(attackers))
        accomplices = len(attackers) - (position < len(attackers))
        if accomplices:
            picks = sample_others(attackers, position, count, rng)
        else:
            picks = rng.sample(population, min(count, len(population)))
        return [
            Recommendation(recommender=attacker, mirror=pick, quality=1.0)
            for pick in picks
        ]


@dataclass
class FloodingAttack:
    """State and behaviour of the sybil-flooding adversary."""

    sybil_ids: Set[int]
    #: Storage requests per sybil per selection round.
    flood_requests: int = 20
    #: How many mirrors a sybil admits to in its published entry; everything
    #: beyond this is an announced-vs-real mismatch at the extra mirrors.
    announced_mirrors: int = 5
    #: ``sybil_ids`` in its iteration order, fixed at construction, and
    #: each sybil's position in it.
    _sybils: List[int] = field(init=False, repr=False, compare=False)
    _position: Dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._sybils = list(self.sybil_ids)
        self._position = _positions(self._sybils)

    def is_sybil(self, node_id: int) -> bool:
        return node_id in self.sybil_ids

    def accomplices(self, sybil: int, rng: random.Random) -> List[int]:
        """Up to three fellow sybils ``sybil`` recommends to lure storage."""
        return sample_others(self._sybils, self._position[sybil], 3, rng)

    def benign_population(self, population: Iterable[int]) -> List[int]:
        """The nodes a sybil may flood, in ``population`` order — the same
        for every sybil and round, so a simulation builds it once."""
        return [node for node in population if node not in self.sybil_ids]

    def flood_targets(
        self, sybil: int, candidates: Sequence[int], rng: random.Random
    ) -> List[int]:
        """The nodes this sybil floods with storage requests this round,
        drawn from ``candidates`` (see :meth:`benign_population`)."""
        if not candidates:
            return []
        count = min(self.flood_requests, len(candidates))
        return rng.sample(candidates, count)

    def announced_set(self, accepted_mirrors: Sequence[int], rng: random.Random) -> List[int]:
        """The (undersized) mirror set a sybil publishes."""
        mirrors = list(accepted_mirrors)
        if len(mirrors) <= self.announced_mirrors:
            return mirrors
        return rng.sample(mirrors, self.announced_mirrors)
