"""Scenario configuration for the replication simulator.

One :class:`ScenarioConfig` fully describes an experiment: which dataset at
what scale, how long, which behaviour models, and which adverse events
(altruist arrival, mass departure, slander, flooding).  Every figure in the
paper's Sec. 5 corresponds to one or a sweep of these configs — see the
benchmark modules for the exact parameterizations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.behavior.activity import ActivityModel
from repro.core.config import SoupConfig


class OnlineDistribution(enum.Enum):
    """Node online-time distributions used across experiments.

    ``POWER_LAW`` is SOUP's own assumption (Sec. 5.1).  ``PEERSON`` and
    ``UNIFORM_03`` reproduce the related-work assumptions of Table 4:
    PeerSoN's four-bucket mix and Safebook's uniform p = 0.3.
    """

    POWER_LAW = "powerlaw"
    PEERSON = "peerson"
    UNIFORM_03 = "uniform03"


#: PeerSoN's online-time buckets (fraction of nodes, online probability).
#: The published buckets cover 95 % of nodes; the remainder is assigned the
#: lowest published probability band's complement (p = 0.1).
PEERSON_BUCKETS = ((0.10, 0.90), (0.25, 0.87), (0.30, 0.75), (0.30, 0.30), (0.05, 0.10))


def sample_distribution(
    distribution: OnlineDistribution, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample per-node online probabilities for any supported distribution."""
    from repro.behavior.online import sample_online_probabilities

    if distribution is OnlineDistribution.POWER_LAW:
        return sample_online_probabilities(n, rng)
    if distribution is OnlineDistribution.UNIFORM_03:
        return np.full(n, 0.3)
    if distribution is OnlineDistribution.PEERSON:
        probabilities = np.empty(n)
        fractions = np.array([f for f, _ in PEERSON_BUCKETS])
        values = np.array([p for _, p in PEERSON_BUCKETS])
        assignments = rng.choice(len(values), size=n, p=fractions / fractions.sum())
        probabilities[:] = values[assignments]
        return probabilities
    raise ValueError(f"unsupported distribution: {distribution}")


@dataclass
class ScenarioConfig:
    """Everything one simulation run needs.

    The defaults reproduce the paper's base experiment (Fig. 5) at a
    laptop-friendly scale; the benchmark modules override fields per figure.
    """

    # --- population ------------------------------------------------------
    dataset: str = "facebook"
    scale: float = 0.02
    seed: int = 0

    # --- time -------------------------------------------------------------
    n_days: int = 20
    epochs_per_day: int = 24
    #: Cadence of ES exchanges + selection rounds, in days.
    round_period_days: float = 1.0

    # --- models -------------------------------------------------------------
    soup: SoupConfig = field(default_factory=SoupConfig)
    activity: ActivityModel = field(default_factory=ActivityModel)
    online_distribution: OnlineDistribution = OnlineDistribution.POWER_LAW

    # --- openness: altruistic nodes (Fig. 8) ---------------------------------
    altruist_fraction: float = 0.0
    altruist_join_day: float = 10.0

    # --- resiliency: mass departure (Fig. 9) ---------------------------------
    departure_fraction: float = 0.0
    departure_day: float = 10.0

    # --- attacks (Figs. 10, 11; Sec. 4.4 traitor) --------------------------------
    #: Fraction of extra identities performing the traitor attack: they
    #: "offer exceptional storage capacities and online time to get
    #: selected as a mirror by many users, just to disappear later".
    traitor_fraction: float = 0.0
    #: Day the traitors disappear.
    betrayal_day: float = 8.0
    #: Fraction of OSN nodes performing the slander attack.
    slander_fraction: float = 0.0
    #: Sybil identities created per benign node (m = 0.5 means sybils equal
    #: half the regular identities, per Fig. 11's percentages).
    sybil_fraction: float = 0.0
    #: Storage requests each sybil issues per selection round.
    sybil_flood_requests: int = 20

    # --- service capacity (Sec. 5.2.5) -------------------------------------------
    #: Profile requests a mirror can serve per epoch; None = unlimited.
    #: With a cap, "mirrors of popular data deny service due to
    #: overloading... these mirrors will receive a lower ranking, and SOUP
    #: will distribute the load among additional mirrors".
    mirror_request_capacity: Optional[int] = None

    # --- extensions (Sec. 8) ----------------------------------------------------
    #: Tie-strength extension: weigh friends' experience reports by the
    #: strength of the relation (strong ties more audible; infiltration
    #: ties weak), further dampening slander.
    use_tie_strength: bool = False

    # --- measurement -----------------------------------------------------------
    #: Days at which to snapshot the stored-profile CDF (Fig. 6).
    cdf_snapshot_days: tuple = (1, 14, 30)

    # --- reliability & repair ---------------------------------------------------
    #: Enable the reliability layer in the engine: acknowledged replica
    #: transfers with retries, suspicion-based mirror failure detection,
    #: and proactive repair (immediate reselection + re-replication when a
    #: mirror is declared dead).  Off by default — the base experiments
    #: reproduce the paper's passive-recovery behaviour.
    repair: bool = False

    # --- architecture (repro.arch) ----------------------------------------------
    #: Which architecture runs the seams: ``"soup"`` (the paper's design,
    #: byte-identical to the pre-refactor engine) or any other name
    #: registered in ``repro.arch`` (docs/ARCHITECTURES.md lists them).
    architecture: str = "soup"
    #: Run the shadow DHT probe (repro.arch.dhtprobe): an observational
    #: Pastry ring mirroring joins/departures/publishes/lookups so the
    #: run reports mean lookup hops and control traffic.  Off by default
    #: (the probe never feeds back, but it costs time); ``soup compare``
    #: enables it on every row so hop counts are comparable.
    measure_dht: bool = False

    # --- correctness harness ----------------------------------------------------
    #: Run the per-epoch runtime invariant checker (repro.sim.invariants);
    #: a failed check raises InvariantViolation with a one-line repro string.
    check_invariants: bool = False
    #: Subset of invariant names to check (None = all engine invariants).
    invariant_names: Optional[tuple] = None
    #: Fault-injection plan (repro.sim.faults spec string), e.g.
    #: ``"drop_transfer:rate=1.0:from_epoch=120;crash:epoch=240:count=2"``.
    faults: Optional[str] = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject impossible parameterizations with field-specific errors.

        Called from ``__post_init__`` so a bad value fails at construction —
        which for a sweep means at spec-expansion time, not mid-run with a
        process pool already fanned out.
        """
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.n_days <= 0:
            raise ValueError(f"n_days must be positive, got {self.n_days}")
        if self.epochs_per_day <= 0:
            raise ValueError(
                f"epochs_per_day must be positive, got {self.epochs_per_day}"
            )
        if self.round_period_days <= 0:
            raise ValueError(
                f"round_period_days must be positive, got {self.round_period_days}"
            )
        for name in (
            "altruist_join_day", "departure_day", "betrayal_day", "sybil_flood_requests"
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative, got {getattr(self, name)}")
        if not 0.0 <= self.altruist_fraction < 1.0:
            raise ValueError(
                f"altruist fraction must be in [0, 1), got {self.altruist_fraction}"
            )
        if not 0.0 <= self.departure_fraction < 1.0:
            raise ValueError(
                f"departure fraction must be in [0, 1), got {self.departure_fraction}"
            )
        if not 0.0 <= self.slander_fraction <= 0.9:
            raise ValueError(
                f"slander fraction must be in [0, 0.9], got {self.slander_fraction}"
            )
        if not 0.0 <= self.traitor_fraction < 1.0:
            raise ValueError(
                f"traitor fraction must be in [0, 1), got {self.traitor_fraction}"
            )
        if not 0.0 <= self.sybil_fraction <= 1.0:
            raise ValueError(
                f"sybil fraction must be in [0, 1], got {self.sybil_fraction}"
            )
        if self.mirror_request_capacity is not None and self.mirror_request_capacity < 1:
            raise ValueError(
                "mirror_request_capacity must be positive when set, "
                f"got {self.mirror_request_capacity}"
            )
        if self.architecture != "soup":
            # Fail at construction (sweep-expansion time), like faults.
            from repro.arch import ARCHITECTURES

            if self.architecture not in ARCHITECTURES:
                raise ValueError(
                    f"unknown architecture {self.architecture!r} "
                    f"(known: {sorted(ARCHITECTURES)})"
                )
        if self.faults is not None:
            # Fail fast on malformed fault specs rather than mid-run.
            from repro.sim.faults import FaultInjector

            FaultInjector.from_spec(self.faults, base_seed=self.seed)
        if self.invariant_names is not None:
            from repro.sim.invariants import ENGINE_INVARIANTS

            unknown = [n for n in self.invariant_names if n not in ENGINE_INVARIANTS]
            if unknown:
                raise ValueError(f"unknown invariant name(s): {unknown}")

    @property
    def n_epochs(self) -> int:
        return self.n_days * self.epochs_per_day

    @property
    def round_period_epochs(self) -> int:
        return max(1, int(round(self.round_period_days * self.epochs_per_day)))

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **kwargs)
