"""Prime generation for the RSA substrate.

Implements deterministic Miller-Rabin for 64-bit inputs and probabilistic
Miller-Rabin with configurable rounds for larger candidates, plus a simple
random prime generator seeded through :class:`random.Random` so that key
generation is reproducible in tests and simulations.

A candidate that survives trial division binds one
:class:`repro.crypto.bignum.Kernel` to ``(d, n)`` (``n - 1 = d * 2**r``),
and every witness's ``a ** d mod n`` runs through it, so the modulus is
put into Montgomery form once per candidate, not once per witness.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.crypto.bignum import Kernel

# Small primes used for fast trial division before Miller-Rabin.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
)

# Witnesses that make Miller-Rabin deterministic for n < 3.3 * 10^24.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def _miller_rabin_round(n: int, a: int, a_to_the_d: Kernel, r: int) -> bool:
    """Return True if ``a`` witnesses that ``n`` is composite
    (``a_to_the_d`` is the kernel of ``x ** d mod n``)."""
    x = a_to_the_d(a)
    if x in (1, n - 1):
        return False
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def is_probable_prime(n: int, rounds: int = 40, rng: Optional[random.Random] = None) -> bool:
    """Test ``n`` for primality.

    Deterministic for ``n`` below ~3.3e24 (covers all 64-bit inputs); uses
    ``rounds`` random Miller-Rabin witnesses above that bound.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    if n < _DETERMINISTIC_BOUND:
        witnesses = [a for a in _DETERMINISTIC_WITNESSES if a < n]
    else:
        rng = rng or random.Random()
        witnesses = [rng.randrange(2, n - 1) for _ in range(rounds)]

    a_to_the_d = Kernel(d, n)
    return not any(_miller_rabin_round(n, a, a_to_the_d, r) for a in witnesses)


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random prime of exactly ``bits`` bits.

    The top two bits are forced to 1 so that the product of two such primes
    has exactly ``2 * bits`` bits, as RSA key generation requires.
    """
    if bits < 8:
        raise ValueError(f"prime size too small: {bits} bits")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_probable_prime(candidate, rng=rng):
            return candidate
