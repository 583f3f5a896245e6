"""Store-and-forward relay: the IM server that holds zero key material.

The relay registers users whose certificates check out against the chain,
queues sealed envelopes in each recipient's mailbox, and fans group
broadcasts out into the members' mailboxes. Every status check reads the
chain node's current snapshot, so a revocation takes effect on the next
lookup. It never inspects plaintext and never holds keys; everything it
stores is the exact bytes the sender submitted, and the header it routes on
is bound into the sender's MAC, so any tampering in transit surfaces as an
authentication failure at the recipient.

A one-to-one submit is refused unless the recipient's latest record is the
valid certificate the sender's session pinned, so a revocation or re-issue
stops the next send without a certificate fetch.

Delivery is pull-based with a sequence cursor: ``fetch_envelopes(user, n)``
returns everything after ``n`` and acknowledges (drops) everything up to and
including ``n``. Repeating the same fetch returns the same envelopes.
"""

from __future__ import annotations

import base64
import json
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .chain import CertStatus, ChainNode, fetch_latest, record_fingerprint
from .crypto import SealedPayload
from .encoding import encode_bytes, encode_str, encode_u64
from .errors import (
    FingerprintMismatchError,
    GroupPermissionError,
    RegistrationRefusedError,
    RoutingError,
    SessionRefusedError,
    WireProtocolError,
)

ACK_QUEUED = "queued"


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Envelope:
    """The wire unit. Header fields are exactly the MAC'd associated data.

    ``recipient_cert_fingerprint`` is not a header field: it is a note to
    the relay, the recipient fingerprint the sender's session pinned, which
    ``submit_envelope`` checks. It stays out of the associated data, the
    canonical bytes and the envelope wire object, and envelopes fetched
    over the wire carry it empty.
    """

    sender_id: str
    recipient_id: str
    counter: int
    sender_cert_fingerprint: bytes
    group_id: Optional[str]
    payload: SealedPayload
    sent_at: int
    recipient_cert_fingerprint: bytes = field(default=b"", compare=False)

    def associated_data(self) -> bytes:
        return (
            encode_str(self.sender_id)
            + encode_str(self.recipient_id)
            + encode_u64(self.counter)
            + encode_bytes(self.sender_cert_fingerprint)
            + encode_str(self.group_id or "")
            + encode_u64(self.sent_at)
        )

    def canonical_bytes(self) -> bytes:
        return (
            self.associated_data()
            + encode_bytes(self.payload.ciphertext)
            + encode_bytes(self.payload.mac)
        )

    def shape_ok(self) -> bool:
        return (
            bool(self.sender_id)
            and self.counter >= 0
            and self.sent_at >= 0
            and len(self.sender_cert_fingerprint) == 32
            and len(self.payload.mac) == 32
            and len(self.payload.ciphertext) > 0
            and len(self.payload.ciphertext) % 16 == 0
        )


@dataclass
class Mailbox:
    queue: List[Tuple[int, Envelope]] = field(default_factory=list)
    next_seq: int = 1
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


# ---------------------------------------------------------------------------
# relay
# ---------------------------------------------------------------------------

class Relay:
    def __init__(self, chain_node: ChainNode):
        self._chain_node = chain_node
        self._registry: Dict[str, bytes] = {}
        self._mailboxes: Dict[str, Mailbox] = {}
        self._groups: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
        self._state_lock = threading.Lock()

    # -- certificate status ---------------------------------------------------

    def fetch_certificate(self, user_id: str, now: Optional[int] = None) -> CertStatus:
        """Pure proxy of the chain's latest-wins lookup; adds nothing."""
        return fetch_latest(self._chain_node.snapshot(), user_id, now=now)

    def _require_valid(self, role: str, user_id: str) -> None:
        status = self.fetch_certificate(user_id)
        if not status.is_valid:
            raise RoutingError(f"{role} {user_id!r} certificate is {status.state}")

    # -- registration ---------------------------------------------------------

    def register_user(self, user_id: str, cert_fingerprint: bytes) -> str:
        status = self.fetch_certificate(user_id)
        if not status.is_valid:
            raise RegistrationRefusedError(
                f"certificate for {user_id!r} is {status.state}"
            )
        if record_fingerprint(status.record) != cert_fingerprint:
            raise RegistrationRefusedError(
                f"fingerprint does not match the latest certificate for {user_id!r}"
            )
        with self._state_lock:
            self._registry[user_id] = cert_fingerprint
            self._mailboxes.setdefault(user_id, Mailbox())
        return "registered"

    # -- message flow ----------------------------------------------------------

    def submit_envelope(self, envelope: Envelope) -> str:
        if not envelope.shape_ok():
            raise WireProtocolError("malformed envelope")
        if not envelope.recipient_id:
            raise WireProtocolError("one-to-one envelope without recipient")
        with self._state_lock:
            sender_known = envelope.sender_id in self._registry
            recipient_known = envelope.recipient_id in self._registry
        if not sender_known:
            raise RoutingError(f"sender {envelope.sender_id!r} is not registered")
        if not recipient_known:
            raise RoutingError(f"recipient {envelope.recipient_id!r} is not registered")
        self._require_valid("sender", envelope.sender_id)
        self._require_pinned(envelope.recipient_id, envelope.recipient_cert_fingerprint)
        return self._enqueue(envelope.recipient_id, envelope)

    def _require_pinned(self, recipient_id: str, pinned: bytes) -> None:
        status = self.fetch_certificate(recipient_id)
        if not status.is_valid:
            raise SessionRefusedError(
                status.state, f"recipient {recipient_id!r} certificate is {status.state}")
        if record_fingerprint(status.record) != pinned:
            raise FingerprintMismatchError(
                f"recipient {recipient_id!r} re-issued its certificate; restart the session")

    def _enqueue(self, recipient_id: str, envelope: Envelope) -> str:
        with self._state_lock:
            mailbox = self._mailboxes[recipient_id]
        with mailbox.lock:
            mailbox.queue.append((mailbox.next_seq, envelope))
            mailbox.next_seq += 1
        return ACK_QUEUED

    def fetch_envelopes(self, recipient_id: str, after_seq: int) -> List[Tuple[int, Envelope]]:
        with self._state_lock:
            mailbox = self._mailboxes.get(recipient_id)
        if mailbox is None:
            raise RoutingError(f"recipient {recipient_id!r} is not registered")
        with mailbox.lock:
            # fetching past a sequence number acknowledges everything up to it
            mailbox.queue = [(seq, env) for seq, env in mailbox.queue if seq > after_seq]
            return list(mailbox.queue)

    # -- groups -----------------------------------------------------------------

    def create_group(self, group_id: str, admin_id: str,
                     member_ids: Sequence[str]) -> None:
        if admin_id not in member_ids:
            raise GroupPermissionError(f"admin {admin_id!r} is not in the member list")
        with self._state_lock:
            self._groups[group_id] = (admin_id, tuple(member_ids))

    def group_members(self, group_id: str) -> Tuple[str, ...]:
        with self._state_lock:
            entry = self._groups.get(group_id)
        if entry is None:
            raise RoutingError(f"unknown group {group_id!r}")
        return entry[1]

    def broadcast_group(self, group_id: str, member_ids: Sequence[str],
                        envelope: Envelope) -> List[Tuple[str, str]]:
        """Fan-out: one copy per member except the sender; per-member results."""
        if not envelope.shape_ok():
            raise WireProtocolError("malformed envelope")
        if envelope.sender_id not in member_ids:
            raise GroupPermissionError(
                f"sender {envelope.sender_id!r} is not a member of {group_id!r}"
            )
        self._require_valid("sender", envelope.sender_id)
        acks: List[Tuple[str, str]] = []
        for member in member_ids:
            if member == envelope.sender_id:
                continue
            try:
                with self._state_lock:
                    if member not in self._registry:
                        raise RoutingError(f"member {member!r} is not registered")
                self._require_valid("member", member)
                acks.append((member, self._enqueue(member, envelope)))
            except RoutingError as e:
                acks.append((member, f"error:{e.category}"))
        return acks

    # -- inspection ---------------------------------------------------------------

    def dump_state(self) -> bytes:
        """Everything the relay knows, serialized. Used to prove it knows
        nothing worth stealing."""
        with self._state_lock:
            registry = {u: fp.hex() for u, fp in self._registry.items()}
            groups = {g: {"admin": a, "members": list(m)}
                      for g, (a, m) in self._groups.items()}
            mailboxes = {}
            for user, mailbox in self._mailboxes.items():
                with mailbox.lock:
                    mailboxes[user] = {
                        "next_seq": mailbox.next_seq,
                        "queue": [
                            {"seq": seq,
                             "envelope": base64.b64encode(env.canonical_bytes()).decode()}
                            for seq, env in mailbox.queue
                        ],
                    }
        return json.dumps(
            {"registry": registry, "groups": groups, "mailboxes": mailboxes},
            sort_keys=True,
        ).encode("utf-8")
