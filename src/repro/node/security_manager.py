"""Security Manager: "deals with all encryption-related tasks" (Sec. 6).

Holds the user's identity keys and her ABE authority; signs and verifies
SOUP objects; encrypts profile replicas under the user's access policy and
issues attribute keys to contacts the user grants attributes to.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.objects import SoupObject
from repro.crypto import rsa
from repro.crypto.abe import AbeAuthority, AbeCiphertext, AbePrivateKey, decrypt as abe_decrypt
from repro.crypto.access import AccessStructure, attr
from repro.crypto.keys import KeyPair
from repro.obs.profiling import PROFILER


class SecurityManager:
    """All cryptographic state and operations of one SOUP node.

    Objects are signed and verified with textbook RSA
    (:mod:`repro.crypto.rsa`), so an object forged with someone else's
    source ID fails verification.
    """

    #: Default access policy: data readable by anyone granted "friend".
    DEFAULT_POLICY = attr("friend")

    def __init__(
        self,
        keys: KeyPair,
        master_secret: Optional[bytes] = None,
    ) -> None:
        self.keys = keys
        self.authority = AbeAuthority(
            master_secret=master_secret,
            authority_id=f"{keys.soup_id:016x}",
        )
        #: Attribute keys received from other users, by their SOUP ID.
        self._received_keys: Dict[int, AbePrivateKey] = {}
        #: Public keys of known users, learned from directory entries.
        self._known_public_keys: Dict[int, rsa.RsaPublicKey] = {}

    # --- signatures ---------------------------------------------------
    def sign_object(self, obj: SoupObject) -> SoupObject:
        """Attach the owner's signature; "requests to modify any data must
        be encapsulated in an appropriately signed SOUP object"."""
        if PROFILER.enabled:
            with PROFILER.span("crypto.sign"):
                return self._sign_object(obj)
        return self._sign_object(obj)

    def _sign_object(self, obj: SoupObject) -> SoupObject:
        obj.signature = rsa.sign(obj.signing_bytes(), self.keys.private)
        return obj

    def verify_object(self, obj: SoupObject) -> bool:
        """Verify a received object against the sender's known public key.

        Unknown senders cannot be verified; the object is rejected, which
        is the conservative behaviour the paper requires ("will otherwise
        be discarded").
        """
        if PROFILER.enabled:
            with PROFILER.span("crypto.verify"):
                return self._verify_object(obj)
        return self._verify_object(obj)

    def _verify_object(self, obj: SoupObject) -> bool:
        if obj.signature is None:
            return False
        public_key = self._known_public_keys.get(obj.source)
        if public_key is None:
            return False
        if not isinstance(obj.signature, int):
            # An RSA signature is an integer; anything else is refused.
            return False
        return rsa.verify(obj.signing_bytes(), obj.signature, public_key)

    def learn_public_key(self, soup_id: int, public_key: rsa.RsaPublicKey) -> None:
        self._known_public_keys[soup_id] = public_key

    def knows_public_key(self, soup_id: int) -> bool:
        return soup_id in self._known_public_keys

    # --- ABE ----------------------------------------------------------------
    def encrypt_replica(
        self, plaintext: bytes, policy: Optional[AccessStructure] = None
    ) -> AbeCiphertext:
        """Encrypt profile data for replication; mirrors cannot read it."""
        return self.authority.encrypt(plaintext, policy or self.DEFAULT_POLICY)

    def issue_attribute_key(self, attributes) -> AbePrivateKey:
        """Issue an attribute key (e.g. to a new friend)."""
        return self.authority.issue_key(attributes)

    def receive_attribute_key(self, from_id: int, key: AbePrivateKey) -> None:
        self._received_keys[from_id] = key

    def decrypt_from(self, owner_id: int, ciphertext: AbeCiphertext) -> bytes:
        """Decrypt another user's data with the key she issued us."""
        key = self._received_keys.get(owner_id)
        if key is None:
            from repro.crypto.abe import AbeError

            raise AbeError(f"no attribute key from user {owner_id:#x}")
        return abe_decrypt(ciphertext, key)

    def can_decrypt_from(self, owner_id: int) -> bool:
        return owner_id in self._received_keys
