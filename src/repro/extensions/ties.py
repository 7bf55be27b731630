"""Tie-strength-aware SOUP (paper Sec. 8, "Use of social relations").

"Friend relations in OSNs are multi-faceted and the existence of the
relation itself only contributes very little to its tie strength" [33].
The extension: during mirror selection "SOUP could prefer closely related
users represented by a strong tie. The selecting node could value their
experience sets more than those of mere acquaintances, which could further
reduce the impact of manipulated experience sets. Or, the value of the
social filter β could be adjusted to the strength of the relation."

Implemented here:

* :class:`TieStrengthModel` — per-edge strengths in (0, 1], sampled
  heavy-tailed (most ties weak, few strong — the Gilbert-Karahalios
  observation), with infiltration edges (attacker↔victim) drawn weak,
  because sybil/slander identities rarely earn strong ties [24, 31].
* :func:`weigh_reports_by_tie` — scales experience reports by the tie to
  the reporter (plugged into :class:`repro.core.ranking.RegularRanker`
  through the report ``weight`` field).
* :func:`tie_adjusted_beta` — a per-friend social-filter boost.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.experience import ExperienceReport

#: Beta-distribution shape of honest ties: right-skewed, most weak.
HONEST_ALPHA = 1.2
HONEST_BETA = 2.8
#: Infiltration ties (attacker edges) are uniform in
#: [MIN_TIE_STRENGTH, INFILTRATION_MAX]: uniformly weak.
INFILTRATION_MAX = 0.3
#: The weakest tie any edge gets.
MIN_TIE_STRENGTH = 0.02


def _edge_key(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a <= b else (b, a)


class TieStrengthModel:
    """Tie strengths over a friendship edge set."""

    def __init__(self) -> None:
        self._strengths: Dict[Tuple[int, int], float] = {}

    def assign(
        self,
        edges: Iterable[Tuple[int, int]],
        rng: np.random.Generator,
        attacker_ids: Optional[Set[int]] = None,
    ) -> None:
        """Sample a strength for every edge; attacker edges drawn weak."""
        attacker_ids = attacker_ids or set()
        edges = list(edges)
        honest_draws = rng.beta(HONEST_ALPHA, HONEST_BETA, size=len(edges))
        weak_draws = rng.uniform(MIN_TIE_STRENGTH, INFILTRATION_MAX, size=len(edges))
        for (a, b), honest, weak in zip(edges, honest_draws, weak_draws):
            infiltration = a in attacker_ids or b in attacker_ids
            strength = weak if infiltration else max(MIN_TIE_STRENGTH, honest)
            self._strengths[_edge_key(a, b)] = float(strength)

    def strength(self, a: int, b: int) -> float:
        """The tie strength between two users (0 if not friends)."""
        return self._strengths.get(_edge_key(a, b), 0.0)

    def set_strength(self, a: int, b: int, strength: float) -> None:
        if not 0.0 <= strength <= 1.0:
            raise ValueError(f"tie strength must be in [0, 1], got {strength}")
        self._strengths[_edge_key(a, b)] = strength

    def __len__(self) -> int:
        return len(self._strengths)

    def mean_strength(self) -> float:
        if not self._strengths:
            return 0.0
        return float(np.mean(list(self._strengths.values())))


def tie_weight(
    ties: TieStrengthModel, receiver: int, reporter: int, floor: float = 0.1
) -> float:
    """How much the receiver weighs what the reporter sends: their tie
    strength, never below ``floor`` (see :func:`weigh_reports_by_tie`)."""
    return max(floor, ties.strength(receiver, reporter))


def weigh_reports_by_tie(
    reports: Iterable[ExperienceReport],
    receiver: int,
    ties: TieStrengthModel,
    floor: float = 0.1,
) -> List[ExperienceReport]:
    """Scale each report's weight by the receiver's tie to the reporter.

    ``floor`` keeps even acquaintances minimally audible, so a node with
    only weak ties still converges (no discrimination — Sec. 4.1).
    """
    weighted = []
    for report in reports:
        weight = report.weight * tie_weight(ties, receiver, report.reporter, floor)
        weighted.append(
            ExperienceReport(
                reporter=report.reporter,
                mirror=report.mirror,
                observations=report.observations,
                availability=report.availability,
                weight=weight,
            )
        )
    return weighted


def tie_adjusted_beta(base_beta: float, strength: float) -> float:
    """Per-friend social-filter boost: β grows with the tie strength.

    A strength-0.5 tie receives the paper's base β; stronger ties get a
    proportionally larger boost, weaker ties approach no boost (β → 1).
    """
    if base_beta < 1.0:
        raise ValueError(f"beta must be >= 1, got {base_beta}")
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"strength must be in [0, 1], got {strength}")
    return 1.0 + (base_beta - 1.0) * 2.0 * strength
