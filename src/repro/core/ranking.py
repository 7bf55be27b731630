"""Mirror-candidate ranking: bootstrapping mode and regular mode.

A node runs in **bootstrapping mode** right after joining: it has no friends
reporting experience sets yet, so it ranks candidates from the
recommendations of the nodes it contacts ("every time a new node u contacts
a node v, v suggests the set of mirrors that works well for itself to u",
Sec. 4.3).  If no recommendations arrive it falls back to random contacts.

Once the node has friends and receives their experience sets it transitions
to **regular mode** and ranks candidates with Eq. (1) (Sec. 4.4), maintained
in the knowledge base.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from repro.core.config import SoupConfig
from repro.core.experience import (
    SUCCESSES,
    ExperienceBatch,
    ExperienceReport,
    update_experience,
)
from repro.core.knowledge import KnowledgeBase

_INF = math.inf

#: Rank assumed for a recommendation of unknown quality, and for a known
#: contact nobody has reported on (the random-contact fallback).
BOOTSTRAP_PRIOR = 0.3
#: Pseudo-observation weight shrinking an under-observed mirror's exp
#: toward :data:`BOOTSTRAP_PRIOR` under ``"aged_counts"``.  Counters noisy
#: estimates being selected for their luck (winner's curse): a mirror seen
#: online twice out of two observations is *not* treated as 100 % available.
COUNT_PRIOR_WEIGHT = 2.0


class Recommendation(NamedTuple):
    """A mirror suggestion received from a contacted node.

    ``quality`` is the recommender's own experience value for that mirror;
    recommenders that do not disclose quality yield :data:`BOOTSTRAP_PRIOR`.
    A plain tuple underneath.
    """

    recommender: int
    mirror: int
    quality: Optional[float] = None


class BootstrapRanker:
    """Ranks candidates from stranger recommendations (Sec. 4.3).

    The rank of a candidate is the plain mean of the qualities attached
    to its recommendations, discounted because stranger
    recommendations are less trustworthy than own-friend experience: the
    paper notes a recommended mirror "might not be a good choice for u for
    various reasons" and bootstrapping should not be used for long.
    """

    #: Discount applied to recommended qualities versus first-hand experience.
    TRUST_DISCOUNT = 0.8

    def __init__(self) -> None:
        self._qualities: Dict[int, List[float]] = {}
        #: :meth:`ranking` as last computed; ``None`` after a new
        #: recommendation.  A regular-mode node takes none, so it sorts once.
        self._ranking: Optional[Tuple[Tuple[int, float], ...]] = None
        #: Recommendations dropped for a non-finite quality (the clamp
        #: below would turn NaN into 1.0).
        self.rejected_recommendations = 0

    def add_recommendation(self, recommendation: Recommendation) -> None:
        quality = recommendation.quality
        if quality is None:
            quality = BOOTSTRAP_PRIOR
        elif not math.isfinite(quality):
            self.rejected_recommendations += 1
            return
        quality = max(0.0, min(1.0, quality))
        self._qualities.setdefault(recommendation.mirror, []).append(quality)
        self._ranking = None

    def add_recommendations(self, recommendations: Iterable[Recommendation]) -> None:
        for recommendation in recommendations:
            self.add_recommendation(recommendation)

    @property
    def recommendation_count(self) -> int:
        return sum(len(v) for v in self._qualities.values())

    def ranking(self) -> Tuple[Tuple[int, float], ...]:
        """Candidates with discounted mean quality, best first."""
        if self._ranking is None:
            discount = self.TRUST_DISCOUNT
            ranked = sorted(
                (-(discount * (sum(qualities) / len(qualities))), mirror)
                for mirror, qualities in self._qualities.items()
            )
            self._ranking = tuple((mirror, -negated) for negated, mirror in ranked)
        return self._ranking


def candidate_ranking(
    knowledge: KnowledgeBase, bootstrap: BootstrapRanker, prior: float
) -> Tuple[List[Tuple[int, float]], List[int], List[int]]:
    """Algorithm 1's inputs for one owner: ``(ranking, friends, unranked)``.

    The ranking is assembled in trust order: (1) first-hand Eq.-(1)
    experience; (2) stranger recommendations (bootstrap mode); (3) every
    other known contact at the bootstrap ``prior`` — the paper's "randomly
    select mirrors from her contacts" fallback, which also keeps
    Algorithm 1 supplied with trial candidates until enough measured
    mirrors exist to reach the ε target.  ``friends`` and ``unranked``
    (the exploration pool) come from the same knowledge-base pass.
    """
    ranking, friends, unranked, known_ids = knowledge.selection_view()
    ranked = {candidate for candidate, _ in ranking}
    for candidate, rank in bootstrap.ranking():
        if candidate not in ranked:
            ranking.append((candidate, rank))
            ranked.add(candidate)
    ranking += [(node_id, prior) for node_id in known_ids if node_id not in ranked]
    return ranking, friends, unranked


class RegularRanker:
    """Ranks candidates from friends' experience sets via Eq. (1).

    Wraps the knowledge base: :meth:`ingest_reports` applies one exchange
    round's reports to it, and :func:`candidate_ranking` reads the result.
    """

    def __init__(self, knowledge: KnowledgeBase, config: SoupConfig) -> None:
        self._knowledge = knowledge
        self._config = config
        #: mirror -> [decayed request weight, decayed success weight]
        #: (used by the "aged_counts" estimator).
        self._counters: Dict[int, List[float]] = {}
        #: Reports skipped as malformed (see :func:`well_formed`).
        self.rejected_reports = 0

    def ingest_reports(
        self, received: Iterable[Union[ExperienceBatch, ExperienceReport]]
    ) -> Dict[int, float]:
        """Apply one exchange round, in arrival order; returns updated exp
        values.

        ``received`` holds what friends handed over: batches of their own
        counts (:class:`ExperienceBatch`) and single reports.  A malformed
        report (see :func:`well_formed`) is skipped and counted in
        :attr:`rejected_reports`: one NaN would otherwise stay in a
        mirror's experience for good.
        """
        if self._config.experience_normalization == "aged_counts":
            return self._ingest_aged_counts(received)
        o_max = self._config.o_max
        received = [
            report
            for item in received
            for report in (
                item.reports(o_max) if type(item) is ExperienceBatch else (item,)
            )
        ]
        reports = [report for report in received if well_formed(report)]
        self.rejected_reports += len(received) - len(reports)
        updated = update_experience(
            self._knowledge.experience_values(),
            reports,
            self._config.alpha,
            self._config.o_max,
        )
        owner = self._knowledge.owner
        self._knowledge.set_experiences(
            (mirror, value) for mirror, value in updated.items() if mirror != owner
        )
        return updated

    def _ingest_aged_counts(
        self, received: Iterable[Union[ExperienceBatch, ExperienceReport]]
    ) -> Dict[int, float]:
        """Aged-counter estimator: decay all counters, add capped reports.

        Each friend's per-round influence is capped at ``o_max``
        observations (the Eq.-(1) security property); decay implements the
        recency weighting; exp is the smoothed success ratio, which stays
        stable when a round carries only one or two observations.

        A batch and a report take the same steps per mirror: ``weight =
        min(observations, o_max) · weight``, then the request counter gains
        ``weight`` and the success counter ``weight · availability``.
        """
        retention = self._config.count_retention
        o_max = self._config.o_max
        for counter in self._counters.values():
            counter[0] *= retention
            counter[1] *= retention

        updated: Dict[int, float] = {}
        owner = self._knowledge.owner
        counters = self._counters
        rejected = 0
        # One pass per received mirror: comparisons, no min/max calls.
        for item in received:
            if type(item) is ExperienceBatch:
                # A friend's own counts: well formed by construction, every
                # request count at least 1.
                _reporter, scale, counts = item
                if scale <= 0.0:
                    continue
                for mirror, packed in counts.items():
                    if mirror == owner:
                        continue
                    requests = packed >> 32
                    weight = (o_max if requests > o_max else requests) * scale
                    counter = counters.get(mirror)
                    if counter is None:
                        counter = counters[mirror] = [0.0, 0.0]
                    counter[0] += weight
                    counter[1] += weight * ((packed & SUCCESSES) / requests)
                continue
            _reporter, mirror, observations, availability, weight = item
            # well_formed(), inlined.
            if not (
                0 <= observations < _INF
                and 0.0 <= availability <= 1.0
                and -_INF < weight < _INF
            ):
                rejected += 1
                continue
            if mirror == owner or weight <= 0.0:
                continue
            # Per-friend cap first (Eq. 1's security property), then the
            # extension weight (tie strength, Sec. 8) scales the influence.
            weight = (o_max if observations > o_max else observations) * weight
            if weight <= 0:
                continue
            counter = counters.get(mirror)
            if counter is None:
                counter = counters[mirror] = [0.0, 0.0]
            counter[0] += weight
            counter[1] += weight * availability
        self.rejected_reports += rejected
        prior, prior_weight = BOOTSTRAP_PRIOR, COUNT_PRIOR_WEIGHT
        for mirror, (requests, successes) in counters.items():
            if requests <= 0.0:
                continue
            # Shrink toward the prior while observations are scarce.
            value = (successes + prior_weight * prior) / (requests + prior_weight)
            updated[mirror] = 1.0 if value > 1.0 else value if value > 0.0 else 0.0
        self._knowledge.set_experiences(updated.items())
        return updated


def well_formed(report: ExperienceReport) -> bool:
    """Whether a received report can enter the experience estimate: finite
    observations ≥ 0, availability in [0, 1] and a finite weight."""
    return (
        0 <= report.observations < _INF
        and 0.0 <= report.availability <= 1.0
        and -_INF < report.weight < _INF
    )
