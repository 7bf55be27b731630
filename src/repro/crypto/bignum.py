"""Modular exponentiation for the RSA substrate: one kernel, bound at import.

Every RSA operation (both CRT halves of a signature or decryption, a
verification, an encryption) and every Miller–Rabin round is one
``base ** exp mod mod``.  CPython's ``pow`` does that in pure bignum
arithmetic — ≈ 125 µs for a 256-bit half of a 512-bit CRT signature — and
that was most of what a signed post cost a node.  :func:`modexp` hands the
same arithmetic to OpenSSL's ``BN_mod_exp`` through :mod:`ctypes` (≈ 18 µs):

* the library is the ``libcrypto`` that CPython's own :mod:`hashlib`
  already links, loaded by versioned soname only (``libcrypto.so.3``, then
  ``libcrypto.so.1.1``; the unversioned name aborts the process on macOS);
* ``argtypes`` / ``restype`` are declared for every symbol and every return
  code is checked;
* each thread gets its own ``BN_CTX`` and scratch ``BIGNUM`` s, freed with
  the thread.

The kernel is chosen once, here: builtin ``pow`` when no libcrypto loads
(:data:`NATIVE` is then ``False``), and ``pow`` for the inputs
``BN_mod_exp`` does not define — a negative exponent (a modular inverse)
or ``mod <= 0`` — so :func:`modexp` agrees with ``pow`` everywhere, result
or exception.  The textbook scheme, its padding and key generation stay in
:mod:`repro.crypto.rsa` / :mod:`repro.crypto.primes`; only the arithmetic
moves, and keys and signatures are bit-identical either way
(``tests/crypto/golden_keys.json``).
"""

from __future__ import annotations

import ctypes
import threading
from typing import Callable, Optional

#: Versioned sonames, newest first.  Never the bare ``libcrypto``.
_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1")

_P = ctypes.c_void_p
#: ``name: (restype, argtypes)`` of every symbol the kernel calls.
_SIGNATURES = {
    "BN_CTX_new": (_P, []),
    "BN_CTX_free": (None, [_P]),
    "BN_new": (_P, []),
    "BN_clear_free": (None, [_P]),
    "BN_bin2bn": (_P, [ctypes.c_char_p, ctypes.c_int, _P]),
    "BN_bn2binpad": (ctypes.c_int, [_P, ctypes.c_char_p, ctypes.c_int]),
    "BN_mod_exp": (ctypes.c_int, [_P, _P, _P, _P, _P]),
}


def _load() -> Optional[ctypes.CDLL]:
    """The first libcrypto that loads and exports every symbol, or None."""
    for soname in _SONAMES:
        try:
            lib = ctypes.CDLL(soname)
            for name, (restype, argtypes) in _SIGNATURES.items():
                function = getattr(lib, name)
                function.restype = restype
                function.argtypes = argtypes
        except (OSError, AttributeError):
            continue
        return lib
    return None


_LIBCRYPTO = _load()


class _Scratch:
    """One thread's ``BN_CTX`` and the four ``BIGNUM`` s a call fills in."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        # Bound here so teardown does not depend on module globals.
        self._free_ctx = lib.BN_CTX_free
        self._free_bn = lib.BN_clear_free
        self.ctx = lib.BN_CTX_new()
        self.bns = [lib.BN_new() for _ in range(4)]
        if not self.ctx or not all(self.bns):
            self.close()
            raise MemoryError("BN_CTX_new / BN_new failed")

    def close(self) -> None:
        for bn in self.bns:
            if bn:
                self._free_bn(bn)
        if self.ctx:
            self._free_ctx(self.ctx)
        self.bns, self.ctx = [], None

    __del__ = close


def _bind() -> Callable[[int, int, int], int]:
    """The kernel for :data:`_LIBCRYPTO`: ``BN_mod_exp``, or ``pow``."""
    lib = _LIBCRYPTO
    if lib is None:
        return pow
    bin2bn, bn2binpad, mod_exp = lib.BN_bin2bn, lib.BN_bn2binpad, lib.BN_mod_exp
    local = threading.local()

    def to_bn(value: int, bn: int) -> None:
        raw = value.to_bytes((value.bit_length() + 7) >> 3, "big")
        if not bin2bn(raw, len(raw), bn):
            raise MemoryError("BN_bin2bn failed")

    def modexp(base: int, exp: int, mod: int) -> int:
        """``base ** exp % mod``, computed by OpenSSL's ``BN_mod_exp``."""
        if exp < 0 or mod <= 0:
            return pow(base, exp, mod)
        try:
            scratch = local.scratch
        except AttributeError:
            scratch = local.scratch = _Scratch(lib)
        r, a, p, m = scratch.bns
        to_bn(base % mod, a)
        to_bn(exp, p)
        to_bn(mod, m)
        if not mod_exp(r, a, p, m, scratch.ctx):
            raise ArithmeticError("BN_mod_exp failed")
        size = (mod.bit_length() + 7) >> 3
        out = ctypes.create_string_buffer(size)
        if bn2binpad(r, out, size) != size:
            raise ArithmeticError("BN_bn2binpad failed")
        return int.from_bytes(out.raw, "big")

    return modexp


modexp = _bind()
#: Whether :func:`modexp` runs on OpenSSL (CI asserts it on its runners).
NATIVE = modexp is not pow
