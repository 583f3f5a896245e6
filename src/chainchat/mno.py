"""Mobile network operator: the trusted third party that issues certificates.

Enrollment is a two-step exchange. The MNO hands out a fresh X25519 public
key per user as the challenge and keeps its private half; the subject proves
possession of its identity key with a MAC over (user_id || public_key ||
challenge) under their Diffie-Hellman secret (``identity_sig``). Without the
challenge any party could replay an observed enrollment and register someone
else's public key under their own id, which would break the trusted-third-
party role, so the challenge is mandatory. The pending challenge is kept as
the generated pair, so checking the proof reuses the library key that
generating it built.

Subscriber identity verification is a pluggable predicate; the default
accepts everyone, tests and deployments can inject a real check.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from . import crypto, identity_sig
from .chain import (
    KIND_CERTIFICATE,
    CertificateRecord,
    ChainNode,
    WriterCredential,
    verify_record,
)
from .errors import EnrollmentError

VALIDITY_SECONDS = 30 * 24 * 3600  # the MNO, not the subscriber, sets the lifetime
# pending enrollment challenges kept; past it the oldest is dropped, since
# refusing new requests would let any wire client block every enrollment
CHALLENGE_CAP = 10_000
# the longest user id the MNO enrols, in UTF-8 bytes; the chain keeps every
# id it certifies for good, and the node holds each one in memory
MAX_USER_ID_BYTES = 255

SubscriberCheck = Callable[[str], bool]


@dataclass(frozen=True)
class EnrollmentRequest:
    user_id: str
    subject_public_key: bytes  # 32-byte identity public key
    proof_of_possession: bytes  # 32-byte identity_sig.sign proof


def possession_payload(user_id: str, subject_public_key: bytes, challenge: bytes) -> bytes:
    """The exact bytes the proof of possession covers."""
    return user_id.encode("utf-8") + subject_public_key + challenge


def _check_user_id(user_id: str) -> None:
    # "surrogatepass": an in-process caller's id need not be UTF-8
    if len(user_id.encode("utf-8", "surrogatepass")) > MAX_USER_ID_BYTES:
        raise EnrollmentError(f"user id is over {MAX_USER_ID_BYTES} UTF-8 bytes")


class MnoCertificateAuthority:
    """Verifies enrollment requests, signs records, appends them to the chain."""

    def __init__(self, credential: WriterCredential, chain_node: ChainNode,
                 subscriber_check: Optional[SubscriberCheck] = None):
        self.credential = credential
        self.chain_node = chain_node
        self._subscriber_check = subscriber_check or (lambda user_id: True)
        self._challenges: dict[str, crypto.IdentityKeyPair] = {}  # ephemeral X25519 pairs
        self._lock = threading.Lock()

    def new_challenge(self, user_id: str) -> bytes:
        """The public half of a fresh X25519 pair, whose private half is kept
        until the proof arrives; replaces any outstanding challenge and
        becomes the newest of at most ``CHALLENGE_CAP`` pending ones."""
        _check_user_id(user_id)
        challenge = crypto.generate_identity_keypair()
        with self._lock:
            self._challenges.pop(user_id, None)
            self._challenges[user_id] = challenge
            if len(self._challenges) > CHALLENGE_CAP:
                del self._challenges[next(iter(self._challenges))]
        return challenge.public_key

    def issue_certificate(self, request: EnrollmentRequest) -> CertificateRecord:
        issued_at = int(time.time())
        _check_user_id(request.user_id)
        if len(request.subject_public_key) != 32:
            raise EnrollmentError("subject public key must be 32 bytes")
        with self._lock:
            challenge = self._challenges.pop(request.user_id, None)
        if challenge is None:
            raise EnrollmentError(f"no outstanding challenge for {request.user_id!r}")
        payload = possession_payload(request.user_id, request.subject_public_key,
                                     challenge.public_key)
        if not identity_sig.verify(challenge, request.subject_public_key,
                                   payload, request.proof_of_possession):
            raise EnrollmentError("proof of possession failed verification")
        if not self._subscriber_check(request.user_id):
            raise EnrollmentError(f"{request.user_id!r} is not a known subscriber")
        record = self.credential.make_record(
            user_id=request.user_id,
            subject_public_key=request.subject_public_key,
            issued_at=issued_at,
            expires_at=issued_at + VALIDITY_SECONDS,
            kind=KIND_CERTIFICATE,
        )
        self.chain_node.append(self.credential, [record])
        return record

    def revoke(self, user_id: str) -> None:
        """Operator-side revocation via this MNO's writer credential."""
        self.chain_node.revoke(self.credential, user_id)

    def verify_certificate(self, record: CertificateRecord) -> bool:
        """Signature plus internal consistency; revocation markers verify too."""
        return verify_record(record, self.credential.verification_key)

    def dump_state(self) -> bytes:
        """Serialized operational state for inspection; never key material."""
        with self._lock:
            pending = {user: challenge.public_key.hex()
                       for user, challenge in self._challenges.items()}
        return json.dumps(
            {"mno_id": self.credential.writer_id, "pending_challenges": pending},
            sort_keys=True,
        ).encode("utf-8")
