"""Availability maths of erasure-coded replication (Sec. 8 extension).

Instead of storing R full replicas, a large profile could be encoded into
n fragments of size ``profile/k`` placed on n mirrors; the data would be
available whenever at least k fragment holders are online.  The middleware
replicates whole profiles only: these closed forms serve the extension
benchmark (``benchmarks/test_extension_coding.py``), which compares full
replication with coding at equal storage budget.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def availability_probability(
    holder_probabilities: Sequence[float], k: int
) -> float:
    """P(at least k of the holders online), holders independent.

    Dynamic-programming over the Poisson-binomial distribution — used to
    size (n, k) against a target error rate the same way Algorithm 1 sizes
    full replica sets against ε.
    """
    if k <= 0:
        return 1.0
    n = len(holder_probabilities)
    if n < k:
        return 0.0
    # dp[j] = P(exactly j holders online so far)
    dp = np.zeros(n + 1)
    dp[0] = 1.0
    for probability in holder_probabilities:
        dp[1:] = dp[1:] * (1 - probability) + dp[:-1] * probability
        dp[0] *= 1 - probability
    return float(dp[k:].sum())


def equivalent_full_replication(
    holder_probabilities: Sequence[float], epsilon: float
) -> int:
    """Full replicas needed for the same availability target (Eq. 2)."""
    perr = 1.0
    count = 0
    for probability in sorted(holder_probabilities, reverse=True):
        if perr <= epsilon:
            break
        perr *= 1.0 - probability
        count += 1
    return count
