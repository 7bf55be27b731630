"""The modular-exponentiation kernel agrees with builtin ``pow`` everywhere.

:func:`repro.crypto.bignum.modexp` is OpenSSL's ``BN_mod_exp`` where a
libcrypto loads and ``pow`` where none does.  These tests pin that the
choice is invisible: same integer (or same exception) as ``pow`` on random
and edge inputs, the same keys and signatures with the library forced
away, and a per-thread scratch context that concurrent signers do not
share.
"""

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


def test_native_kernel_is_bound_when_libcrypto_loads():
    if bignum._LIBCRYPTO is None:
        assert bignum.modexp is pow and not bignum.NATIVE
    else:
        assert bignum.modexp is not pow and bignum.NATIVE


def test_fallback_gives_the_same_keys_and_signatures(monkeypatch):
    """With the library forced to None the kernel is ``pow``, and key
    generation, signing and verification give the same bytes."""

    def run():
        keys = KeyPair.generate(bits=512, seed=0x500B)
        signature = rsa.sign(b"fallback", keys.private)
        return (
            keys.soup_id,
            keys.public.n,
            signature,
            rsa.verify(b"fallback", signature, keys.public),
            rsa.decrypt_int(rsa.encrypt_int(12345, keys.public), keys.private),
        )

    native = run()
    monkeypatch.setattr(bignum, "_LIBCRYPTO", None)
    fallback = bignum._bind()
    assert fallback is pow
    monkeypatch.setattr(rsa, "modexp", fallback)
    monkeypatch.setattr(primes, "modexp", fallback)
    assert run() == native
    assert native[3] is True and native[4] == 12345


def test_concurrent_signers_do_not_share_scratch():
    """Two threads signing at once both get the serial signatures."""
    keys = [KeyPair.generate(bits=512, seed=seed) for seed in (1, 2)]
    messages = [f"message {i}".encode() for i in range(200)]
    expected = [[rsa.sign(m, k.private) for m in messages] for k in keys]
    results = [None, None]

    def sign_all(index):
        results[index] = [rsa.sign(m, keys[index].private) for m in messages]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sign_all, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected
    for key, signatures in zip(keys, results):
        assert all(rsa.verify(m, s, key.public) for m, s in zip(messages, signatures))
