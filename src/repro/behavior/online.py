"""Node online-time model: power-law probabilities, diurnal patterns, sessions.

The paper's assumptions (Sec. 5.1):

* online time follows a power law — "around 60% of the nodes are available
  less than 20% of the time, and there are only very few highly available
  nodes";
* diurnal patterns over three time zones — US (probability 0.4), Europe and
  Africa (0.3), Asia and Oceania (0.3);
* sessions are "usually short and bursty", which the two-state Markov
  session process reproduces (the power-law marginal is the chain's
  stationary distribution; the mean session length sets burstiness).

:class:`OnlineModel` materializes an ``(n_nodes, n_epochs)`` boolean online
matrix from these ingredients, which is the ground truth the simulator uses
for "is node x online at time t".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

#: Local-time offsets (hours from simulation UTC) of the paper's three zones.
TIMEZONE_OFFSETS = (-6, 1, 8)
#: Probability of a node belonging to each zone (US, EU/Africa, Asia/Oceania).
TIMEZONE_PROBABILITIES = (0.4, 0.3, 0.3)
#: Mean session length in epochs: the session chain's on→off rate is its
#: inverse, which keeps sessions short and bursty.
MEAN_SESSION_EPOCHS = 3.0
#: Nodes online at least this often (altruistic servers) never go offline.
ALWAYS_ONLINE_THRESHOLD = 0.999

#: 24-hour activity profile: quiet at night, peak in the local evening.
_RAW_DIURNAL = np.array(
    [0.3, 0.25, 0.2, 0.2, 0.2, 0.25, 0.4, 0.6,  # 00-07 local
     0.9, 1.0, 1.0, 1.1, 1.2, 1.1, 1.0, 1.0,    # 08-15
     1.2, 1.4, 1.7, 1.9, 1.9, 1.7, 1.2, 0.7]    # 16-23
)
DIURNAL_PROFILE = _RAW_DIURNAL / _RAW_DIURNAL.mean()


def sample_online_probabilities(
    n: int,
    rng: np.random.Generator,
    low_fraction: float = 0.6,
    split: float = 0.2,
    p_min: float = 0.02,
    tail_exponent: float = 1.0,
) -> np.ndarray:
    """Sample per-node base online probabilities.

    ``low_fraction`` of nodes land log-uniformly in ``[p_min, split)`` (the
    rarely-online majority); the rest follow a truncated Pareto on
    ``[split, 1]`` with ``tail_exponent`` — heavier exponents mean fewer
    highly available nodes.  Defaults reproduce the paper's "60 % below
    20 %" with ~1-2 % of nodes above 0.8.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    is_low = rng.random(n) < low_fraction
    probabilities = np.empty(n)

    # Log-uniform on [p_min, split): power-law-distributed low-activity mass.
    low_count = int(is_low.sum())
    u = rng.random(low_count)
    probabilities[is_low] = np.exp(
        np.log(p_min) + u * (np.log(split) - np.log(p_min))
    )

    # Truncated Pareto on [split, 1] for the active minority.
    high_count = n - low_count
    u = rng.random(high_count)
    a = tail_exponent
    # Inverse CDF of Pareto truncated to [split, 1].
    low_pow, high_pow = split**a, 1.0
    probabilities[~is_low] = (
        low_pow / (1.0 - u * (1.0 - low_pow / high_pow))
    ) ** (1.0 / a)
    return np.clip(probabilities, p_min, 1.0)


def sample_timezones(n: int, rng: np.random.Generator) -> np.ndarray:
    """Assign each node a time-zone offset per the paper's 0.4/0.3/0.3 mix."""
    choices = rng.choice(len(TIMEZONE_OFFSETS), size=n, p=TIMEZONE_PROBABILITIES)
    return np.array(TIMEZONE_OFFSETS)[choices]


@dataclass
class OnlineModel:
    """Generates the per-epoch online matrix for a node population.

    ``base_probabilities`` are the long-run online fractions; nodes with
    base probability >= :data:`ALWAYS_ONLINE_THRESHOLD` (altruistic
    servers) are pinned online for every epoch.
    """

    base_probabilities: np.ndarray
    timezone_offsets: np.ndarray
    epoch_hours: float = 1.0

    def __post_init__(self) -> None:
        self.base_probabilities = np.asarray(self.base_probabilities, dtype=float)
        self.timezone_offsets = np.asarray(self.timezone_offsets, dtype=int)
        if self.base_probabilities.shape != self.timezone_offsets.shape:
            raise ValueError("probabilities and timezones must align")
        if np.any((self.base_probabilities < 0) | (self.base_probabilities > 1)):
            raise ValueError("base probabilities must lie in [0, 1]")

    @property
    def n_nodes(self) -> int:
        return len(self.base_probabilities)

    def epoch_probabilities(self, epoch: int) -> np.ndarray:
        """Diurnally modulated target online probability for one epoch.

        Modulation strength scales with how rarely a node is online: a
        p=0.1 user follows the full day/night rhythm, while a p=0.95 node
        is an always-on machine that barely notices the hour.  (Without
        this, no node could ever be online through the night and even a
        perfect mirror set would go dark once a day.)
        """
        hours = epoch * self.epoch_hours
        local_hours = (np.floor(hours).astype(int) + self.timezone_offsets) % 24
        weight = 1.0 - self.base_probabilities
        factor = DIURNAL_PROFILE[local_hours] ** weight
        modulated = self.base_probabilities * factor
        return np.clip(modulated, 0.0, 0.98)

    def generate_matrix(
        self, n_epochs: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Simulate the two-state session chain over ``n_epochs``.

        Off→on rate ``a_t`` is chosen so the chain's stationary distribution
        tracks the (diurnal) target probability while the on→off rate
        ``1 / MEAN_SESSION_EPOCHS`` keeps sessions short and bursty.
        """
        if n_epochs <= 0:
            raise ValueError(f"n_epochs must be positive, got {n_epochs}")
        n = self.n_nodes
        matrix = np.zeros((n, n_epochs), dtype=bool)
        always_on = self.base_probabilities >= ALWAYS_ONLINE_THRESHOLD

        leave_rate = 1.0 / MEAN_SESSION_EPOCHS
        state = rng.random(n) < self.epoch_probabilities(0)
        state |= always_on
        matrix[:, 0] = state
        for t in range(1, n_epochs):
            target = self.epoch_probabilities(t)
            join_rate = np.clip(
                leave_rate * target / np.maximum(1.0 - target, 1e-9), 0.0, 1.0
            )
            u = rng.random(n)
            stays_on = state & (u >= leave_rate)
            turns_on = ~state & (u < join_rate)
            state = stays_on | turns_on | always_on
            matrix[:, t] = state
        return matrix
