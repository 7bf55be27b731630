"""The modular-exponentiation kernels agree with builtin ``pow`` everywhere.

A :class:`repro.crypto.bignum.Kernel` bound to ``(exp, mod)`` runs
OpenSSL's ``BN_mod_exp_mont`` where a libcrypto loads and the modulus is
odd, and ``pow`` otherwise; :func:`~repro.crypto.bignum.modexp` is a
kernel used once.  These tests pin that the choice is invisible: same
integer (or same exception) as ``pow`` on random and edge inputs, the same
keys and signatures with the library forced away, shared kernels and
per-thread scratch that concurrent signers of one key or of two keys
cannot disturb, and keys that pickle, copy, compare and hash by their
numbers alone once they have bound kernels.
"""

import copy
import pickle
import sys
import threading

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.crypto import bignum, primes, rsa
from repro.crypto.keys import KeyPair

MODULUS_BITS = (64, 256, 257, 1024)


def _outcome(function, *args):
    """The value ``function(*args)`` returns, or the type it raises."""
    try:
        return ("value", function(*args))
    except (ValueError, ZeroDivisionError) as exc:
        return ("raises", type(exc))


@given(
    base=st.integers(0, 1 << 1100),
    exp=st.integers(0, 1 << 1100),
    mod=st.integers(1, 1 << 1100),
)
def test_modexp_matches_pow_on_random_inputs(base, exp, mod):
    assert bignum.modexp(base, exp, mod) == pow(base, exp, mod)


@given(
    bits=st.sampled_from(MODULUS_BITS),
    data=st.data(),
)
def test_modexp_matches_pow_at_rsa_sizes(bits, data):
    mod = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    base = data.draw(st.integers(0, 3 * mod))  # base >= mod included
    exp = data.draw(st.integers(0, 1 << bits))
    assert bignum.modexp(base, exp, mod) == pow(base, exp, mod)


@pytest.mark.parametrize(
    "mod",
    [1, 2, 4, 6, 1 << 64, (1 << 64) + 1, (1 << 256) - 189, 1 << 256, (1 << 257) - 93,
     (1 << 1024) - 1105],
)
@pytest.mark.parametrize("exp", [0, 1, 2, 65537])
def test_modexp_edge_inputs(mod, exp):
    for base in (0, 1, 2, mod - 1, mod, mod + 1, 5 * mod + 3):
        assert bignum.modexp(base, exp, mod) == pow(base, exp, mod), (base, exp, mod)


@given(
    base=st.integers(-(1 << 300), 1 << 300),
    exp=st.integers(-(1 << 64), 1 << 64),
    mod=st.integers(-(1 << 300), 1 << 300),
)
@example(base=3, exp=-1, mod=7)  # a modular inverse
@example(base=2, exp=-1, mod=4)  # not invertible: ValueError
@example(base=0, exp=-1, mod=5)
@example(base=5, exp=3, mod=0)  # ValueError
@example(base=5, exp=3, mod=-7)  # pow's non-positive result
@example(base=-5, exp=3, mod=7)
@example(base=-5, exp=-1, mod=7)
def test_modexp_matches_pow_outside_bn_mod_exp_domain(base, exp, mod):
    """Negative base or exponent, ``mod <= 0``: result or exception of pow."""
    assert _outcome(bignum.modexp, base, exp, mod) == _outcome(pow, base, exp, mod)


@given(
    base=st.integers(0, 1 << 1100),
    exp=st.integers(0, 1 << 1100),
    mod=st.integers(1, 1 << 1100),
    more=st.lists(st.integers(0, 1 << 1100), max_size=3),
)
@example(base=0, exp=5, mod=7, more=[])
@example(base=5, exp=0, mod=7, more=[])
@example(base=0, exp=0, mod=7, more=[])
@example(base=9, exp=3, mod=1, more=[0])
@example(base=9, exp=0, mod=1, more=[])
@example(base=23, exp=5, mod=7, more=[7, 14])  # base >= mod
@example(base=3, exp=5, mod=1 << 64, more=[])  # even: pow
def test_bound_kernel_matches_pow_on_random_inputs(base, exp, mod, more):
    kernel = bignum.Kernel(exp, mod)
    assert kernel.native == (bignum.NATIVE and mod % 2 == 1)
    for b in [base, *more]:  # one kernel, several bases
        assert kernel(b) == pow(b, exp, mod)


@given(
    bits=st.sampled_from(MODULUS_BITS),
    data=st.data(),
)
def test_bound_kernel_matches_pow_at_rsa_sizes(bits, data):
    mod = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
    exp = data.draw(st.integers(0, 1 << bits))
    kernel = bignum.Kernel(exp, mod)
    assert kernel.native == bignum.NATIVE
    for _ in range(3):
        base = data.draw(st.integers(0, 3 * mod))  # base >= mod included
        assert kernel(base) == pow(base, exp, mod)


@given(
    base=st.integers(-(1 << 300), 1 << 300),
    exp=st.integers(-(1 << 64), 1 << 64),
    mod=st.integers(-(1 << 300), 1 << 300),
)
@example(base=3, exp=-1, mod=7)  # a modular inverse
@example(base=2, exp=-1, mod=4)  # not invertible: ValueError
@example(base=5, exp=3, mod=0)  # ValueError
@example(base=5, exp=3, mod=-7)
@example(base=5, exp=3, mod=8)  # even modulus
@example(base=-5, exp=3, mod=7)
def test_bound_kernel_matches_pow_outside_montgomery_domain(base, exp, mod):
    """A negative exponent, ``mod <= 0`` or an even modulus go to ``pow``."""
    kernel = bignum.Kernel(exp, mod)  # binding never raises
    if exp < 0 or mod <= 0 or mod % 2 == 0:
        assert not kernel.native
    assert _outcome(kernel, base) == _outcome(pow, base, exp, mod)


def test_native_kernel_is_bound_when_libcrypto_loads():
    assert bignum.NATIVE == (bignum._LIBCRYPTO is not None)
    assert bignum.Kernel(65537, (1 << 127) - 1).native == bignum.NATIVE
    keys = KeyPair.generate(bits=512, seed=0x500B)
    rsa.sign(b"bind", keys.private)
    half_p, half_q, _ = keys.private._crt
    assert half_p.native == half_q.native == keys.public._kernel.native == bignum.NATIVE


def test_fallback_gives_the_same_keys_and_signatures(monkeypatch):
    """With the library forced to None every kernel, the ones a key binds
    included, runs on ``pow``, and key generation, signing and verification
    give the same bytes."""

    def run():
        keys = KeyPair.generate(bits=512, seed=0x500B)
        signature = rsa.sign(b"fallback", keys.private)
        outcome = (
            keys.soup_id,
            keys.public.n,
            signature,
            rsa.verify(b"fallback", signature, keys.public),
            rsa.decrypt_int(rsa.encrypt_int(12345, keys.public), keys.private),
        )
        half_p, half_q, _ = keys.private._crt
        return outcome, {half_p.native, half_q.native, keys.public._kernel.native}

    native, native_kinds = run()
    assert native_kinds == {bignum.NATIVE}
    witnesses = []
    bind = bignum.Kernel.__init__

    def recording_bind(self, exp, mod):
        bind(self, exp, mod)
        witnesses.append(self.native)

    monkeypatch.setattr(bignum, "_LIBCRYPTO", None)
    monkeypatch.setattr(bignum.Kernel, "__init__", recording_bind)
    fallback, fallback_kinds = run()
    assert fallback == native
    assert fallback_kinds == {False}  # signing, verifying, encrypting: pow
    assert witnesses and not any(witnesses)  # every Miller-Rabin kernel: pow
    assert native[3] is True and native[4] == 12345


def _sign_concurrently(private_keys, messages):
    """Each key signs every message in its own thread, all at once."""
    results = [None] * len(private_keys)

    def sign_all(index):
        results[index] = [rsa.sign(m, private_keys[index]) for m in messages]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=sign_all, args=(i,)) for i in range(len(private_keys))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results


def test_concurrent_signers_do_not_share_scratch():
    """Two threads signing at once both get the serial signatures."""
    keys = [KeyPair.generate(bits=512, seed=seed) for seed in (1, 2)]
    messages = [f"message {i}".encode() for i in range(200)]
    expected = [[rsa.sign(m, k.private) for m in messages] for k in keys]
    results = _sign_concurrently([k.private for k in keys], messages)
    assert results == expected
    for key, signatures in zip(keys, results):
        assert all(rsa.verify(m, s, key.public) for m, s in zip(messages, signatures))


def test_two_threads_signing_with_the_same_key_share_its_kernels():
    """One key's bound kernels serve two threads at once: each thread gets
    the serial signatures, through the same kernel objects."""
    keys = KeyPair.generate(bits=512, seed=3)
    messages = [f"shared {i}".encode() for i in range(200)]
    expected = [rsa.sign(m, keys.private) for m in messages]
    kernels = keys.private._crt[:2]
    results = _sign_concurrently([keys.private, keys.private], messages)
    assert results == [expected, expected]
    assert keys.private._crt[:2] == kernels


def test_a_key_that_has_signed_pickles_copies_compares_and_hashes_as_before():
    keys = KeyPair.generate(bits=512, seed=4)
    fresh = KeyPair.generate(bits=512, seed=4)
    signature = rsa.sign(b"bound", keys.private)
    assert rsa.verify(b"bound", signature, keys.public)
    assert "_crt" in vars(keys.private) and "_kernel" in vars(keys.public)

    for clone in (
        pickle.loads(pickle.dumps(keys)),
        copy.deepcopy(keys),
        copy.copy(keys),
    ):
        assert clone == keys == fresh
        assert hash(clone) == hash(keys) == hash(fresh)
        assert hash(clone.private) == hash(fresh.private)
        assert hash(clone.public) == hash(fresh.public)
        assert rsa.sign(b"bound", clone.private) == signature
        assert rsa.verify(b"bound", signature, clone.public)
    kernel = keys.public._kernel
    rebound = pickle.loads(pickle.dumps(kernel))
    assert rebound is not kernel
    assert (rebound.exp, rebound.mod, rebound.native) == (kernel.exp, kernel.mod, kernel.native)
    assert copy.deepcopy(kernel)(signature) == kernel(signature)
