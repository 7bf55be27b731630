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
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence


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
    close friends above those from mere acquaintances.  ``bandwidth_kb_s``
    optionally carries the observed mirror bandwidth for the extended
    recommendations of Sec. 8 (None in the base protocol).

    A plain tuple underneath: an exchange round builds one per observed
    mirror per friend, and receivers unpack it.
    """

    reporter: int
    mirror: int
    observations: int
    availability: float
    weight: float = 1.0
    bandwidth_kb_s: Optional[float] = None


class ExperienceSet:
    """``ES_u(w)``: node u's observations of friend w's mirrors.

    Observations accumulate between exchanges; :meth:`drain` produces the
    capped reports for transmission and resets the counters, so each
    exchange only carries observations "since the last experience set
    exchange" (Sec. 4.4).
    """

    __slots__ = ("observed_friend", "_counts")

    def __init__(self, observed_friend: int) -> None:
        self.observed_friend = observed_friend
        # Packed counters ``mirror -> [requests, successes]``: observe() is
        # the single hottest call of the epoch loop (one per mirror per
        # profile request), so the per-mirror state is two list slots
        # instead of an ObservationRecord allocation.  record_for() still
        # materializes ObservationRecord for callers.
        self._counts: Dict[int, List[int]] = {}

    def observe(self, mirror: int, success: bool) -> None:
        """Record one attempt to fetch the friend's data from ``mirror``."""
        counter = self._counts.get(mirror)
        if counter is None:
            counter = self._counts[mirror] = [0, 0]
        counter[0] += 1
        if success:
            counter[1] += 1

    def observe_fetch(self, mirrors: Sequence[int], outcomes: Sequence[bool]) -> None:
        """Record one fetch attempt at every mirror of the friend at once:
        ``observe(mirror, outcome)`` for each pair, in order."""
        counts = self._counts
        for mirror, success in zip(mirrors, outcomes):
            counter = counts.get(mirror)
            if counter is None:
                counter = counts[mirror] = [0, 0]
            counter[0] += 1
            if success:
                counter[1] += 1

    def record_for(self, mirror: int) -> ObservationRecord:
        """The accumulated record for ``mirror`` (empty if never observed)."""
        counter = self._counts.get(mirror)
        if counter is None:
            return ObservationRecord()
        return ObservationRecord(counter[0], counter[1])

    def observed_mirrors(self) -> List[int]:
        return list(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def drain(self, reporter: int, o_max: int) -> List[ExperienceReport]:
        """Produce capped reports for an ES exchange and reset the set.

        Capping at ``o_max`` enforces the paper's security trade-off: no
        single (possibly malicious) reporter can claim unbounded influence.
        """
        # One report per observed mirror of every friend, every round:
        # built by tuple.__new__ (no constructor frame), capped by a
        # comparison (no min call).
        new = tuple.__new__
        reports = [
            new(
                ExperienceReport,
                (
                    reporter,
                    mirror,
                    o_max if requests > o_max else requests,
                    successes / requests,
                    1.0,
                    None,
                ),
            )
            for mirror, (requests, successes) in self._counts.items()
            if requests
        ]
        self._counts.clear()
        return reports


def update_experience(
    old_values: Mapping[int, float],
    reports: Iterable[ExperienceReport],
    alpha: float,
    o_max: int,
    normalization: str = "by_observations",
) -> Dict[int, float]:
    """Apply Eq. (1) to produce new experience values per mirror.

    ``old_values`` maps mirror id -> previous experience value (missing
    mirrors default to 0).  Two normalizations of the fresh term are
    supported; both cap every friend's influence at ``o_max`` observations,
    the security property Eq. (1) was designed for:

    * ``"by_observations"`` (default) — observation-weighted mean
      availability: ``Σ min(o_j, o_max)·av_j / Σ min(o_j, o_max)``.  Friends
      with more observations carry more weight, and the estimate tracks the
      availability friends actually observed even when observations are
      sparse.  This is the behaviour the paper's published results exhibit
      (stable ≤7-replica mirror sets require exp ≈ observed availability).

    * ``"by_cap"`` — the formula exactly as printed:
      ``(1/n)·Σ min(o_j, o_max)·av_j / o_max``.  Identical when every
      reporter saturates the cap, but under sparse observation it divides
      the estimate by the unused cap headroom, driving exp towards 0 and
      mirror sets towards the maximum — useful for the ablation bench that
      demonstrates exactly that divergence.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if normalization not in ("by_observations", "by_cap"):
        raise ValueError(f"unknown normalization: {normalization!r}")
    grouped: Dict[int, List[ExperienceReport]] = {}
    for report in reports:
        if report.observations < 0 or not 0.0 <= report.availability <= 1.0:
            raise ValueError(f"malformed report: {report}")
        grouped.setdefault(report.mirror, []).append(report)

    updated: Dict[int, float] = {}
    for mirror, mirror_reports in grouped.items():
        if normalization == "by_observations":
            total_weight = sum(min(r.observations, o_max) for r in mirror_reports)
            if total_weight == 0:
                continue
            fresh = (
                sum(
                    min(r.observations, o_max) * r.availability
                    for r in mirror_reports
                )
                / total_weight
            )
        else:
            n = len(mirror_reports)
            fresh = (
                sum(
                    min(r.observations, o_max) * r.availability / o_max
                    for r in mirror_reports
                )
                / n
            )
        old = old_values.get(mirror, 0.0)
        updated[mirror] = (1.0 - alpha) * old + alpha * fresh
    return updated
