"""Modular exponentiation for the RSA substrate: one kernel, bound per ``(exp, mod)``.

Every RSA operation (both CRT halves of a signature or decryption, a
verification, an encryption) and every Miller–Rabin round is one
``base ** exp mod mod`` in which ``exp`` and ``mod`` are fixed by a key or
a prime candidate and only ``base`` changes.  CPython's ``pow`` does that
in pure bignum arithmetic — ≈ 125 µs for a 256-bit half of a 512-bit CRT
signature.  A :class:`Kernel` is bound once to its ``(exp, mod)`` and
hands each ``base`` to OpenSSL's ``BN_mod_exp_mont`` through
:mod:`ctypes` (≈ 20 µs):

* the library is the ``libcrypto`` that CPython's own :mod:`hashlib`
  already links, loaded by versioned soname only (``libcrypto.so.3``, then
  ``libcrypto.so.1.1``; the unversioned name aborts the process on macOS);
* ``argtypes`` / ``restype`` are declared for every symbol and every return
  code is checked;
* binding builds the exponent and modulus ``BIGNUM`` s and one
  ``BN_MONT_CTX`` (the Montgomery form of the modulus), which the kernel
  frees when it is collected; they are read-only after that, so every
  thread shares them;
* each thread gets its own ``BN_CTX`` and two scratch ``BIGNUM`` s (base
  and result), freed with the thread: a call converts only the base.

A kernel pickles and copies as its ``(exp, mod)`` and binds again on load.
It runs on builtin ``pow`` when no libcrypto loads (:data:`NATIVE` is then
``False``) and for the inputs Montgomery exponentiation does not define — a
negative exponent (a modular inverse), ``mod <= 0`` or an even modulus —
so it agrees with ``pow`` everywhere, result or exception.
:func:`modexp` is a kernel used once.  The textbook scheme, its padding and
key generation stay in :mod:`repro.crypto.rsa` / :mod:`repro.crypto.primes`;
only the arithmetic moves, and keys and signatures are bit-identical either
way (``tests/crypto/golden_keys.json``).
"""

from __future__ import annotations

import ctypes
import threading
from typing import Optional

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
    "BN_MONT_CTX_new": (_P, []),
    "BN_MONT_CTX_set": (ctypes.c_int, [_P, _P, _P]),
    "BN_MONT_CTX_free": (None, [_P]),
    "BN_mod_exp_mont": (ctypes.c_int, [_P, _P, _P, _P, _P, _P]),
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
#: Whether kernels run on OpenSSL (CI asserts it on its runners).
NATIVE = _LIBCRYPTO is not None


class _Scratch:
    """One thread's ``BN_CTX`` and the two ``BIGNUM`` s a call fills in."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        # Bound here so teardown does not depend on module globals.
        self._free_ctx = lib.BN_CTX_free
        self._free_bn = lib.BN_clear_free
        self.ctx = lib.BN_CTX_new()
        self.bns = [lib.BN_new() for _ in range(2)]
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


_local = threading.local()


def _scratch(lib: ctypes.CDLL) -> _Scratch:
    """The calling thread's scratch, made on its first call."""
    try:
        return _local.scratch
    except AttributeError:
        scratch = _local.scratch = _Scratch(lib)
        return scratch


def _to_bn(lib: ctypes.CDLL, value: int, bn: int) -> None:
    raw = value.to_bytes((value.bit_length() + 7) >> 3, "big")
    if not lib.BN_bin2bn(raw, len(raw), bn):
        raise MemoryError("BN_bin2bn failed")


class Kernel:
    """``base ** exp % mod`` for one ``(exp, mod)``, bound once.

    ``Kernel(exp, mod)(base)`` equals ``pow(base, exp, mod)``, result or
    exception, for every integer input.  :attr:`native` tells whether the
    calls run on OpenSSL's ``BN_mod_exp_mont`` or on ``pow``.
    """

    __slots__ = ("exp", "mod", "native", "_size", "_bns", "_mont", "_lib")

    def __init__(self, exp: int, mod: int) -> None:
        self.exp = exp
        self.mod = mod
        self._bns: list = []
        self._mont = None
        lib = self._lib = _LIBCRYPTO
        self.native = lib is not None and exp >= 0 and mod > 0 and mod & 1 == 1
        if not self.native:
            return
        self._size = (mod.bit_length() + 7) >> 3
        try:
            self._bns = [lib.BN_new(), lib.BN_new()]
            self._mont = lib.BN_MONT_CTX_new()
            if not all(self._bns) or not self._mont:
                raise MemoryError("BN_new / BN_MONT_CTX_new failed")
            p, m = self._bns
            _to_bn(lib, exp, p)
            _to_bn(lib, mod, m)
            if not lib.BN_MONT_CTX_set(self._mont, m, _scratch(lib).ctx):
                raise ArithmeticError("BN_MONT_CTX_set failed")
        except BaseException:
            self._free()
            raise

    def __call__(self, base: int) -> int:
        """``base ** exp % mod``."""
        if not self.native:
            return pow(base, self.exp, self.mod)
        lib = self._lib
        scratch = _scratch(lib)
        r, a = scratch.bns
        _to_bn(lib, base % self.mod, a)
        p, m = self._bns
        if not lib.BN_mod_exp_mont(r, a, p, m, scratch.ctx, self._mont):
            raise ArithmeticError("BN_mod_exp_mont failed")
        size = self._size
        out = ctypes.create_string_buffer(size)
        if lib.BN_bn2binpad(r, out, size) != size:
            raise ArithmeticError("BN_bn2binpad failed")
        return int.from_bytes(out.raw, "big")

    def _free(self) -> None:
        """Free the native state (a freed kernel computes with ``pow``)."""
        lib = self._lib
        for bn in self._bns:
            if bn:
                lib.BN_clear_free(bn)
        if self._mont:
            lib.BN_MONT_CTX_free(self._mont)
        self._bns, self._mont, self.native = [], None, False

    __del__ = _free

    def __reduce__(self):
        return (Kernel, (self.exp, self.mod))


def modexp(base: int, exp: int, mod: int) -> int:
    """``base ** exp % mod``: a :class:`Kernel` used once."""
    return Kernel(exp, mod)(base)
