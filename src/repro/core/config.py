"""Protocol configuration with the paper's published defaults.

Every tunable the paper names is a field here, with the value the authors
report as best:

* α = 0.75 — experience aging factor (Sec. 4.4: "Setting α = 0.75 provided
  us with the best trade-off between adaptation and stability").
* β = 1.25 — social filter; a friend qualifies as a mirror if it provides at
  least 80 % of an unrelated candidate's performance (Sec. 4.5).
* ε = 0.01 — target error rate: every user aims at 99 % data availability
  (Sec. 5.1).
* θ = 300, c = 100 — protective-dropping blacklist threshold and mismatch
  penalty; the "three-strike principle" (Sec. 4.6).
* o_max — per-exchange observation cap confining the influence of any single
  reporter in Eq. (1) (Sec. 4.4).

What is a field and what is not: a value is a field here if the paper names
it as a tunable (the ones above and the storage median of Sec. 5.1) or if a
caller outside tests and examples sets it.  A value with one useful setting
is a constant in the code that uses it instead — the ranking prior and its
weight (:mod:`repro.core.ranking`), the mirror-set cap
(:data:`repro.core.selection.MAX_MIRRORS`), the knowledge-base TTL
(:data:`repro.core.knowledge.STRANGER_TTL`), the storage spread
(:func:`~repro.behavior.capacity.sample_capacities`) and the update-buffer
cap (:data:`repro.node.sync.UPDATE_BUFFER_PER_TARGET`).

The same rule holds for a constructor keyword anywhere in :mod:`repro`: a
class takes a value as a keyword only if some caller in ``src/`` passes a
second one.  Otherwise the value is an upper-case module constant beside
the code that reads it, read when the code runs (never bound as a default
argument), so a test changes it with ``monkeypatch.setattr(module, NAME,
value)`` — the retry, circuit-breaker and failure-detector constants of
:mod:`repro.network.reliability`, for example.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SoupConfig:
    """All SOUP protocol parameters.

    The defaults reproduce the paper's configuration; experiments override
    individual fields (e.g. the α/β ablation benches).
    """

    # --- Eq. (1): experience aging -------------------------------------
    alpha: float = 0.75
    #: Cap on observations a single friend may report per exchange (o_max).
    #: The paper does not publish its value; the cap must sit at the
    #: *typical honest* per-period observation volume so that honest reports
    #: saturate it (o/o_max ≈ 1, making exp track the availability friends
    #: actually observed) while a single malicious reporter cannot claim
    #: unbounded weight.  With daily exchanges and feed-browsing sessions a
    #: friend pair accumulates a few observations per period, hence 3.
    o_max: int = 3
    #: How experience values are estimated from friend reports:
    #:
    #: * ``"aged_counts"`` (default) — per-mirror success/request counters
    #:   decayed by ``count_retention`` each exchange round; exp is the
    #:   smoothed success ratio.  Implements Eq. (1)'s recency-weighting
    #:   intent ("a more recent observation carries more weight") while
    #:   staying robust when a round carries only one or two observations —
    #:   under the paper's decaying activity model, per-round observation
    #:   volume is small, and applying the printed EWMA directly would let a
    #:   single unlucky sample evict a good mirror.
    #: * ``"by_cap"`` — Eq. (1) exactly as printed (ablation bench).
    experience_normalization: str = "aged_counts"
    #: Retention factor for "aged_counts": each exchange round multiplies
    #: accumulated observation counters by this before adding new reports.
    count_retention: float = 0.85

    # --- Algorithm 1: selection ----------------------------------------
    #: Target error rate ε: select mirrors until P(data unavailable) < ε.
    epsilon: float = 0.01
    #: Social filter β: friends win if β·rank beats a stranger's rank.
    beta: float = 1.25

    # --- Sec. 4.6: protective dropping ----------------------------------
    #: Blacklist threshold θ.
    theta: float = 300.0
    #: Dropping-score increase c for announced-vs-stored mirror mismatches.
    mismatch_penalty: float = 100.0

    # --- Storage ----------------------------------------------------------
    #: Median node storage capacity, in profiles (Sec. 5.1: Gaussian with a
    #: median of space for mirroring data of 50 users).
    storage_median_profiles: int = 50

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.beta < 1.0:
            raise ValueError(f"beta must be >= 1 (it boosts friends), got {self.beta}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.o_max < 1:
            raise ValueError(f"o_max must be positive, got {self.o_max}")
        if self.experience_normalization not in ("aged_counts", "by_cap"):
            raise ValueError(
                "experience_normalization must be 'aged_counts' or 'by_cap', "
                f"got {self.experience_normalization!r}"
            )
        if not 0.0 < self.count_retention < 1.0:
            raise ValueError(
                f"count_retention must be in (0, 1), got {self.count_retention}"
            )
        if self.theta <= 0 or self.mismatch_penalty <= 0:
            raise ValueError("theta and mismatch_penalty must be positive")

    @property
    def strikes_to_blacklist(self) -> int:
        """How many mirror-set mismatches blacklist a node (paper: 3)."""
        return int(self.theta // self.mismatch_penalty)
