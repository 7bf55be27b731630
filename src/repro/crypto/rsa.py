"""Textbook RSA, built from scratch for the SOUP reproduction.

SOUP signs every object with the owner's 1024-bit asymmetric key (Sec. 3.4)
and derives the user's SOUP ID from the public key (Sec. 3.2).  This module
provides key generation (Miller-Rabin primes), low-level modular
encrypt/decrypt, and hash-then-sign signatures.

The scheme, its padding and key generation are ours; each modular
exponentiation (both CRT halves of :func:`sign` / :func:`decrypt_int`,
:func:`verify`, :func:`encrypt_int`) is one call of a
:class:`repro.crypto.bignum.Kernel` the key binds on first use and keeps:
the private key one per CRT half, ``(d mod p-1, p)`` and ``(d mod q-1, q)``,
the public key one for ``(e, n)``.  A kernel runs OpenSSL's
``BN_mod_exp_mont`` where a libcrypto loads and builtin ``pow`` where none
does — same bits either way.  Modular inverses stay builtin
``pow(x, -1, m)``.

.. warning::
   This is *simulation-grade* cryptography: deterministic hash padding, no
   OAEP/PSS, no constant-time arithmetic.  It exists so the reproduction has
   a real, self-contained signing substrate — do not reuse it elsewhere.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

from repro.crypto.bignum import Kernel
from repro.crypto.primes import generate_prime
from repro.obs import get_registry
from repro.obs.profiling import PROFILER


class RsaError(Exception):
    """Raised on malformed keys or out-of-range plaintexts."""


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @cached_property
    def _kernel(self) -> Kernel:
        """``x ** e mod n``, bound on first use."""
        return Kernel(self.e, self.n)

    def to_bytes(self) -> bytes:
        """Canonical serialization used for SOUP ID derivation."""
        n_bytes = self.n.to_bytes((self.n.bit_length() + 7) // 8, "big")
        e_bytes = self.e.to_bytes((self.e.bit_length() + 7) // 8, "big")
        return len(n_bytes).to_bytes(2, "big") + n_bytes + e_bytes


@dataclass(frozen=True)
class RsaPrivateKey:
    """RSA private key with CRT parameters for fast exponentiation."""

    n: int
    d: int
    p: int
    q: int

    @cached_property
    def _crt(self) -> Tuple[Kernel, Kernel, int]:
        """The kernels of ``x ** (d mod p-1) mod p`` and ``x ** (d mod q-1)
        mod q``, and ``q^-1 mod p``: fixed by the key, so bound on first use
        and not per signature."""
        return (
            Kernel(self.d % (self.p - 1), self.p),
            Kernel(self.d % (self.q - 1), self.q),
            pow(self.q, -1, self.p),
        )

    def _crt_pow(self, c: int) -> int:
        """Compute ``c**d mod n`` via the Chinese Remainder Theorem."""
        half_p, half_q, q_inv = self._crt
        m1 = half_p(c)
        m2 = half_q(c)
        h = (q_inv * (m1 - m2)) % self.p
        return m2 + h * self.q


@dataclass(frozen=True)
class RsaKeyPair:
    """A matched public/private RSA key pair."""

    public: RsaPublicKey
    private: RsaPrivateKey


def generate_keypair(bits: int = 1024, seed: Optional[int] = None) -> RsaKeyPair:
    """Generate an RSA key pair with modulus of exactly ``bits`` bits.

    ``seed`` makes generation deterministic, which the simulator uses to give
    every synthetic user a stable identity across runs.
    """
    if bits < 128:
        raise RsaError(f"modulus too small: {bits} bits")
    rng = random.Random(seed)
    e = 65537
    while True:
        p = generate_prime(bits // 2, rng)
        q = generate_prime(bits - bits // 2, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        d = pow(e, -1, phi)
        return RsaKeyPair(
            public=RsaPublicKey(n=n, e=e),
            private=RsaPrivateKey(n=n, d=d, p=p, q=q),
        )


def encrypt_int(message: int, public: RsaPublicKey) -> int:
    """Raw RSA encryption of an integer ``message < n``."""
    if not 0 <= message < public.n:
        raise RsaError("plaintext out of range for modulus")
    return public._kernel(message)


def decrypt_int(ciphertext: int, private: RsaPrivateKey) -> int:
    """Raw RSA decryption (CRT-accelerated)."""
    if not 0 <= ciphertext < private.n:
        raise RsaError("ciphertext out of range for modulus")
    return private._crt_pow(ciphertext)


def _digest_as_int(message: bytes, n: int) -> int:
    """Hash ``message`` into an integer reduced below ``n``."""
    digest = hashlib.sha256(message).digest()
    return int.from_bytes(digest, "big") % n


def sign(message: bytes, private: RsaPrivateKey) -> int:
    """Hash-then-sign: returns the RSA signature integer."""
    get_registry().counter("crypto.rsa.signs").inc()
    with PROFILER.span("crypto.rsa.sign"):
        return private._crt_pow(_digest_as_int(message, private.n))


def verify(message: bytes, signature: int, public: RsaPublicKey) -> bool:
    """Verify a signature produced by :func:`sign`."""
    get_registry().counter("crypto.rsa.verifies").inc()
    if not 0 <= signature < public.n:
        return False
    with PROFILER.span("crypto.rsa.verify"):
        return public._kernel(signature) == _digest_as_int(message, public.n)
