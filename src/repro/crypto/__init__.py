"""Cryptographic substrate for the SOUP reproduction.

The paper relies on two cryptographic building blocks:

* **Asymmetric signatures** — every SOUP object is signed with the owner's
  1024-bit key, and the SOUP ID is a 64-bit SHA-256 hash over the public key
  (Sec. 3.2).  We implement textbook RSA from scratch (:mod:`repro.crypto.rsa`)
  on top of a Miller-Rabin prime generator (:mod:`repro.crypto.primes`);
  both do their modular exponentiations through one kernel,
  :class:`repro.crypto.bignum.Kernel`, bound once per ``(exp, mod)`` a key or
  a prime candidate fixes (OpenSSL's ``BN_mod_exp_mont``, or builtin ``pow``
  where no libcrypto loads).

* **Ciphertext-Policy Attribute-Based Encryption (CP-ABE)** — all user data is
  encrypted under an *access structure*; only requesters holding a satisfying
  set of attribute keys can decrypt (Sec. 3.4).  The paper uses the pairing
  based ``cpabe`` toolkit; pairing-friendly curves need native libraries that
  are unavailable here, so :mod:`repro.crypto.abe` provides a *simulation
  grade* CP-ABE built from Shamir secret sharing over access-structure trees
  with hash-derived attribute keys.  It enforces exactly the access-control
  semantics the system depends on, but is **not** secure against a real
  adversary (see DESIGN.md, substitution table).

The symmetric layer (:mod:`repro.crypto.symmetric`) is a SHA-256 keystream
cipher with an HMAC integrity tag, used to encrypt the actual payload bytes
under the ABE-protected content key.
"""

from repro.crypto.abe import (
    AbeAuthority,
    AbeCiphertext,
    AbeError,
    AbePrivateKey,
    AbePublicParameters,
)
from repro.crypto.access import AccessStructure, attr, and_of, or_of, threshold
from repro.crypto.bignum import modexp
from repro.crypto.hashing import sha256, soup_id_from_public_key
from repro.crypto.keys import KeyPair, SignedEnvelope, sign_payload, verify_envelope
from repro.crypto.rsa import (
    RsaError,
    RsaKeyPair,
    RsaPrivateKey,
    RsaPublicKey,
    generate_keypair,
)
from repro.crypto.symmetric import SymmetricCipherError, symmetric_decrypt, symmetric_encrypt

__all__ = [
    "AbeAuthority",
    "AbeCiphertext",
    "AbeError",
    "AbePrivateKey",
    "AbePublicParameters",
    "AccessStructure",
    "attr",
    "and_of",
    "or_of",
    "threshold",
    "modexp",
    "sha256",
    "soup_id_from_public_key",
    "KeyPair",
    "SignedEnvelope",
    "sign_payload",
    "verify_envelope",
    "RsaError",
    "RsaKeyPair",
    "RsaPrivateKey",
    "RsaPublicKey",
    "generate_keypair",
    "SymmetricCipherError",
    "symmetric_decrypt",
    "symmetric_encrypt",
]
