"""Signatures: every SOUP object is signed and verified with RSA.

An attacker signing an object whose ``source`` claims someone else's
identity is rejected by receivers, and so is an object from a source whose
public key the receiver has not resolved, or one whose signature is not an
RSA integer.  ``SoupNode`` keeps a ``crypto_mode`` keyword that accepts
only ``"full"``.
"""

import random

import pytest

from repro.core.objects import ObjectType, SoupObject
from repro.crypto.keys import KeyPair
from repro.deploy.cluster import Cluster
from repro.network.events import EventLoop
from repro.network.simnet import SimNetwork
from repro.node.security_manager import SecurityManager

ALICE = KeyPair.generate(bits=256, seed=1)
MALLORY = KeyPair.generate(bits=256, seed=2)


def _update_from(source_id: int) -> SoupObject:
    return SoupObject(
        source=source_id,
        dest=0xBEEF,
        object_type=ObjectType.UPDATE,
        payload={"status": "all good"},
    )


def _verifier() -> SecurityManager:
    """A receiving node that knows both parties' public keys."""
    receiver = SecurityManager(KeyPair.generate(bits=256, seed=3))
    receiver.learn_public_key(ALICE.soup_id, ALICE.public)
    receiver.learn_public_key(MALLORY.soup_id, MALLORY.public)
    return receiver


def test_legitimate_object_verifies():
    obj = SecurityManager(ALICE).sign_object(_update_from(ALICE.soup_id))
    assert isinstance(obj.signature, int)
    assert _verifier().verify_object(obj)


def test_forged_source_is_rejected():
    # Mallory crafts an update claiming to come from Alice and signs it
    # with her own manager — the only signing oracle she controls.
    forged = SecurityManager(MALLORY).sign_object(_update_from(ALICE.soup_id))
    assert not _verifier().verify_object(forged)


def test_tampered_payload_is_rejected():
    obj = SecurityManager(ALICE).sign_object(_update_from(ALICE.soup_id))
    obj.payload = {"status": "send money"}
    assert not _verifier().verify_object(obj)


def test_unknown_sender_is_rejected():
    obj = SecurityManager(ALICE).sign_object(_update_from(ALICE.soup_id))
    stranger = SecurityManager(KeyPair.generate(bits=256, seed=4))
    assert not stranger.verify_object(obj)


@pytest.mark.parametrize(
    "signature",
    [(ALICE.soup_id, b"\x00" * 32), b"\x01" * 32, "signed", 1.0],
    ids=["tuple", "bytes", "str", "float"],
)
def test_non_rsa_signature_is_rejected(signature):
    obj = _update_from(ALICE.soup_id)
    obj.signature = signature
    assert not _verifier().verify_object(obj)


def test_invalid_mode_rejected():
    cluster = Cluster(SimNetwork(EventLoop()), random.Random(3), key_bits=256)
    cluster.add("full", crypto_mode="full")
    for mode in ("by_id", "fast", ""):
        with pytest.raises(ValueError, match="crypto_mode"):
            cluster.add("other", crypto_mode=mode)
    assert len(cluster.users) == 1
