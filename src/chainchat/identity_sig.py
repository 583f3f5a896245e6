"""Proof that an enrolling subject holds its X25519 identity key.

The MNO's enrollment challenge is a fresh X25519 public key E whose private
half e only the MNO holds. The subject answers with a MAC under a key that
only the holder of e or of the identity private key can compute: the
Diffie-Hellman proof of possession of RFC 6955, over ``cryptography``'s
X25519, HKDF and HMAC-SHA256, each called through ``crypto``:

  K     = HKDF-SHA256(ikm=X25519(own_private, peer_public), salt=0^32,
                      info="enroll-pop", len=32)
  proof = HMAC-SHA256(K, message)

The subject makes it with ``sign(identity, E, payload)``, and the MNO checks
it with ``verify(challenge, subject_public, payload, proof)``: X25519 gives
both sides the same K. Each side passes its ``crypto.IdentityKeyPair`` (the
subject's identity pair, the MNO's challenge pair), whose library key is
built once, so a proof costs one agreement and no reload of a private key.
The MNO checks the proof with the library's constant-time ``HMAC.verify``
(``crypto.hmac_sha256_verify``).
The proof convinces only the MNO, which could have made it itself; that
suffices, because the MNO signs every certificate and nobody else checks a
proof of possession. A low-order key or challenge gives no agreement
(``crypto.derive_master_secret`` refuses it), so nobody can answer for a key
whose private half nobody holds.
"""

from __future__ import annotations

from . import crypto
from .errors import KeyAgreementError

_PROOF_INFO = b"enroll-pop"


def _proof_key(own: crypto.IdentityKeyPair, peer_public: bytes) -> bytes:
    master = crypto.derive_master_secret(own, peer_public)
    return crypto.hkdf_sha256(master.bytes_, crypto.ZERO_SALT, _PROOF_INFO, 32)


def sign(identity: crypto.IdentityKeyPair, challenge: bytes, message: bytes) -> bytes:
    """The subject's 32-byte proof of ``message`` for the challenge key E;
    raises ``KeyAgreementError`` for a challenge no one holds a key for."""
    return crypto.hmac_sha256(_proof_key(identity, challenge), message)


def verify(challenge: crypto.IdentityKeyPair, subject_public: bytes, message: bytes,
           proof: bytes) -> bool:
    """True iff ``proof`` was made by the holder of ``subject_public``'s
    private key for ``challenge``, the pair the MNO generated."""
    try:
        key = _proof_key(challenge, subject_public)
    except KeyAgreementError:
        return False
    return crypto.hmac_sha256_verify(key, message, proof)
