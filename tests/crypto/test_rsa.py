"""Tests for the from-scratch RSA implementation."""

import pytest

from repro.crypto import rsa


@pytest.fixture(scope="module")
def keypair():
    return rsa.generate_keypair(bits=512, seed=123)


def test_modulus_has_requested_bits(keypair):
    assert keypair.public.n.bit_length() == 512
    assert keypair.public.bits == 512


def test_key_generation_deterministic():
    a = rsa.generate_keypair(bits=256, seed=5)
    b = rsa.generate_keypair(bits=256, seed=5)
    assert a.public.n == b.public.n
    c = rsa.generate_keypair(bits=256, seed=6)
    assert a.public.n != c.public.n


def test_encrypt_decrypt_roundtrip(keypair):
    message = 0xDEADBEEF
    ciphertext = rsa.encrypt_int(message, keypair.public)
    assert ciphertext != message
    assert rsa.decrypt_int(ciphertext, keypair.private) == message


def test_encrypt_rejects_out_of_range(keypair):
    with pytest.raises(rsa.RsaError):
        rsa.encrypt_int(keypair.public.n, keypair.public)
    with pytest.raises(rsa.RsaError):
        rsa.encrypt_int(-1, keypair.public)


def test_sign_verify_roundtrip(keypair):
    message = b"hello SOUP"
    signature = rsa.sign(message, keypair.private)
    assert rsa.verify(message, signature, keypair.public)


def test_verify_rejects_tampered_message(keypair):
    signature = rsa.sign(b"original", keypair.private)
    assert not rsa.verify(b"tampered", signature, keypair.public)


def test_verify_rejects_tampered_signature(keypair):
    signature = rsa.sign(b"message", keypair.private)
    assert not rsa.verify(b"message", signature + 1, keypair.public)
    assert not rsa.verify(b"message", -1, keypair.public)
    assert not rsa.verify(b"message", keypair.public.n + 5, keypair.public)


def test_verify_rejects_wrong_key(keypair):
    other = rsa.generate_keypair(bits=512, seed=99)
    signature = rsa.sign(b"message", keypair.private)
    assert not rsa.verify(b"message", signature, other.public)


def test_crt_decryption_matches_plain_pow(keypair):
    message = 123456789
    ciphertext = rsa.encrypt_int(message, keypair.public)
    plain_pow = pow(ciphertext, keypair.private.d, keypair.private.n)
    assert rsa.decrypt_int(ciphertext, keypair.private) == plain_pow


def test_signature_is_bit_identical_to_the_recorded_one(keypair):
    """Golden value, recorded before the CRT constants were derived once
    per key; the second signature runs on the cached constants."""
    golden = int(
        "d751e44d7366eff123ef74599e0b2c830c172c5b3b49a7829e371447d3eb0fde"
        "1595ce6a2afab6ae29f123a9c488c62705242e191d0dd5c4493496f8947770b5",
        16,
    )
    assert rsa.sign(b"golden message", keypair.private) == golden
    assert rsa.sign(b"golden message", keypair.private) == golden
    # The cache is not part of the key's identity.
    fresh = rsa.generate_keypair(bits=512, seed=123)
    assert fresh.private == keypair.private
    assert hash(fresh.private) == hash(keypair.private)


def test_public_key_serialization_stable(keypair):
    assert keypair.public.to_bytes() == keypair.public.to_bytes()
    other = rsa.generate_keypair(bits=512, seed=77)
    assert keypair.public.to_bytes() != other.public.to_bytes()


def test_too_small_modulus_rejected():
    with pytest.raises(rsa.RsaError):
        rsa.generate_keypair(bits=64)
