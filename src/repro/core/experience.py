"""Experience sets and the Eq. (1) experience update.

A node ``u`` records, for each friend ``w``, an experience set ``ES_u(w)``:
per mirror of ``w``, how many times ``u`` tried to fetch ``w``'s data from
that mirror and how often it succeeded (Fig. 3/4).  Periodically ``u``
transmits ``ES_u(w)`` to ``w``; from all such reports ``w`` updates each
mirror's experience value::

    exp_v = (1 - α) · exp_v_old + α · (1/n) · Σ_j  (o(j,v) · av(j,v)) / o_max

where ``o(j,v)`` is the number of observations friend ``j`` reports about
mirror ``v`` (capped at ``o_max``), ``av(j,v)`` the availability ``j``
observed, and ``n`` the number of reporting friends (Sec. 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)


@dataclass
class ObservationRecord:
    """Requests/successes observed for one mirror."""

    requests: int = 0
    successes: int = 0

    def observe(self, success: bool) -> None:
        self.requests += 1
        if success:
            self.successes += 1

    @property
    def availability(self) -> float:
        """Observed availability ``av ∈ [0, 1]``; 0 when nothing observed."""
        if self.requests == 0:
            return 0.0
        return self.successes / self.requests

    def copy(self) -> "ObservationRecord":
        return ObservationRecord(self.requests, self.successes)


class ExperienceReport(NamedTuple):
    """One friend's report about one mirror, as received in an ES exchange.

    ``observations`` is already capped at ``o_max`` by the sender;
    ``availability`` is the success ratio over those observations.
    ``weight`` scales the report's influence at the receiver — 1.0 for the
    base protocol; the tie-strength extension (Sec. 8) weighs reports from
    close friends above those from mere acquaintances.

    A plain tuple underneath.  What a node builds from its own counts is an
    :class:`ExperienceBatch`; reports are what the receiver cannot trust to
    be well formed (forgeries, the fault injector's tampering) and what the
    ``by_cap`` normalization of Eq. (1) reads.
    """

    reporter: int
    mirror: int
    observations: int
    availability: float
    weight: float = 1.0


#: What one failed / one successful fetch adds to a packed count
#: (``requests << 32 | successes``).
MISS = 1 << 32
HIT = MISS | 1
#: The successes half of a packed count.
SUCCESSES = MISS - 1


class ExperienceBatch(NamedTuple):
    """``ES_u(w)`` as handed over in one exchange: ``counts`` is the
    experience set's own map, mirror -> packed count (see
    :class:`ExperienceSet`), given away by the reporter and read-only from
    then on.  ``weight`` scales every mirror's influence as
    :attr:`ExperienceReport.weight` does.  One batch per (reporter, friend)
    and exchange, however many mirrors it names.
    """

    reporter: int
    weight: float
    counts: Dict[int, int]

    def observations(self, o_max: int) -> Iterator[Tuple[int, int, float]]:
        """``(mirror, requests capped at o_max, availability)`` per observed
        mirror, in the order the mirrors were first observed."""
        for mirror, packed in self.counts.items():
            requests = packed >> 32
            yield mirror, (o_max if requests > o_max else requests), (
                packed & SUCCESSES
            ) / requests

    def reports(self, o_max: int) -> List[ExperienceReport]:
        """The batch as one :class:`ExperienceReport` per mirror, capped at
        ``o_max``: the paper's security trade-off, so that no single
        (possibly malicious) reporter can claim unbounded influence."""
        reporter = self.reporter
        weight = self.weight
        return [
            ExperienceReport(reporter, mirror, observations, availability, weight)
            for mirror, observations, availability in self.observations(o_max)
        ]


class ExperienceSet:
    """``ES_u(w)``: node u's observations of friend w's mirrors.

    Observations accumulate between exchanges; :meth:`hand_over` gives the
    counts away for transmission and starts afresh, so each exchange only
    carries observations "since the last experience set exchange"
    (Sec. 4.4).

    An observation is a dict slot: ``mirror -> requests << 32 | successes``,
    one int per mirror (no per-mirror object), to which a fetch adds
    :data:`HIT` or :data:`MISS`.  The layout holds while a mirror collects
    fewer than 2³² successes between two exchanges (a carry would count one
    more request); requests are unbounded.
    """

    __slots__ = ("observed_friend", "_counts")

    def __init__(self, observed_friend: int) -> None:
        self.observed_friend = observed_friend
        self._counts: Dict[int, int] = {}

    def observe(self, mirror: int, success: bool) -> None:
        """Record one attempt to fetch the friend's data from ``mirror``."""
        counts = self._counts
        counts[mirror] = counts.get(mirror, 0) + (HIT if success else MISS)

    def observe_fetch(self, mirrors: Sequence[int], outcomes: Sequence[bool]) -> None:
        """Record one fetch attempt at every mirror of the friend at once:
        ``observe(mirror, outcome)`` for each pair, in order."""
        counts = self._counts
        get = counts.get
        hit, miss = HIT, MISS
        for mirror, success in zip(mirrors, outcomes):
            counts[mirror] = get(mirror, 0) + (hit if success else miss)

    def record_for(self, mirror: int) -> ObservationRecord:
        """The accumulated record for ``mirror`` (empty if never observed)."""
        packed = self._counts.get(mirror, 0)
        return ObservationRecord(packed >> 32, packed & SUCCESSES)

    def observed_mirrors(self) -> List[int]:
        return list(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def hand_over(self, reporter: int, weight: float = 1.0) -> Optional[ExperienceBatch]:
        """Give the counts away as one batch and start a fresh set; ``None``
        when nothing was observed since the last exchange."""
        counts = self._counts
        if not counts:
            return None
        self._counts = {}
        return ExperienceBatch(reporter, weight, counts)


def update_experience(
    old_values: Mapping[int, float],
    reports: Iterable[ExperienceReport],
    alpha: float,
    o_max: int,
) -> Dict[int, float]:
    """Apply Eq. (1) exactly as printed to produce new experience values
    per mirror.

    ``old_values`` maps mirror id -> previous experience value (missing
    mirrors default to 0).  The fresh term is
    ``(1/n)·Σ min(o_j, o_max)·av_j / o_max``: every friend's influence is
    capped at ``o_max`` observations, the security property Eq. (1) was
    designed for.  Under sparse observation it divides the estimate by the
    unused cap headroom, driving exp towards 0 and mirror sets towards the
    maximum — the divergence the ablation bench demonstrates.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    grouped: Dict[int, List[ExperienceReport]] = {}
    for report in reports:
        if report.observations < 0 or not 0.0 <= report.availability <= 1.0:
            raise ValueError(f"malformed report: {report}")
        grouped.setdefault(report.mirror, []).append(report)

    updated: Dict[int, float] = {}
    for mirror, mirror_reports in grouped.items():
        fresh = sum(
            min(r.observations, o_max) * r.availability / o_max
            for r in mirror_reports
        ) / len(mirror_reports)
        old = old_values.get(mirror, 0.0)
        updated[mirror] = (1.0 - alpha) * old + alpha * fresh
    return updated
