"""Store-and-forward relay: the IM server that holds zero key material.

The relay gives each user whose certificate checks out against the chain a
mailbox (so a user with a mailbox is registered), queues sealed envelopes in
the recipients' mailboxes, and fans a group broadcast out to the member
list, without repeats, that ``create_group`` stored. Every request reads the
chain node's current snapshot, so a revocation takes effect on the next
lookup; a submit or a fan-out reads one snapshot at one time for all of its
checks. ``RelayClient`` offers the same methods over the wire. The relay
never inspects plaintext and never holds keys. An envelope holds one byte
form, made once (``Envelope``), which is its wire form: the relay serves
each envelope as the bytes it received, however many mailboxes hold it.
Every field it routes on and serves is bound into the sender's MAC, so any
tampering in transit surfaces as an authentication failure at the recipient.

A mailbox holds at most ``MAILBOX_CAP`` unacknowledged envelopes; past that
a submit is refused and a fan-out skips the member, both ``mailbox-full``.
A group holds at most ``GROUP_CAP`` members; a longer list is refused.

A one-to-one submit is refused unless the recipient's latest record is the
valid certificate the sender's session pinned, so a revocation or re-issue
stops the next send without a certificate fetch. Submit and fan-out ask the
chain's latest-wins rule (``chain.status_of``) of the snapshot's newest
records directly, so a fan-out builds no status object per member.

Delivery is pull-based with a sequence cursor: ``fetch_envelopes(user, n)``
returns everything after ``n`` and acknowledges (drops) everything up to and
including ``n``. Repeating the same fetch returns the same envelopes.
"""

from __future__ import annotations

import base64
import json
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from . import chain
from .chain import VALID, CertStatus, ChainNode, ChainView, fetch_latest, status_of
from .crypto import SealedPayload
from .encoding import LENGTH_PREFIX, U64_FIELD, U64_MAX, encode_bytes, split_fields
from .errors import (
    ChainFormatError,
    FingerprintMismatchError,
    GroupPermissionError,
    MailboxFullError,
    RegistrationRefusedError,
    RoutingError,
    SessionRefusedError,
    WireProtocolError,
)

ACK_QUEUED = "queued"
MAILBOX_CAP = 10_000  # unacknowledged envelopes per mailbox
GROUP_CAP = 1_024  # members per group; each fan-out looks every member up


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------

def header_bytes(sender_id: str, recipient_id: str, counter: int,
                 sender_cert_fingerprint: bytes, group_id: Optional[str],
                 sent_at: int) -> bytes:
    """An envelope's six header fields, ``encode_str`` / ``encode_u64`` /
    ``encode_bytes`` each, concatenated in one join: the associated data its
    MAC covers and the head of its canonical bytes."""
    if counter < 0 or sent_at < 0:
        raise ValueError("cannot encode a negative counter or sent_at")
    sender = sender_id.encode("utf-8")
    recipient = recipient_id.encode("utf-8")
    group = (group_id or "").encode("utf-8")
    return b"".join((
        LENGTH_PREFIX.pack(len(sender)), sender,
        LENGTH_PREFIX.pack(len(recipient)), recipient,
        U64_FIELD.pack(8, counter),
        LENGTH_PREFIX.pack(len(sender_cert_fingerprint)), sender_cert_fingerprint,
        LENGTH_PREFIX.pack(len(group)), group,
        U64_FIELD.pack(8, sent_at),
    ))


@dataclass
class Envelope:
    """The wire unit. Header fields are exactly the MAC'd associated data.

    It holds one byte form, its canonical bytes (FORMATS.md): the bytes
    ``from_bytes`` split, the header ``sealed`` sealed over plus the payload's
    two fields, or, built field by field (``replace`` too), encoded on first
    use and never at construction, so ``shape_ok`` refuses a counter past u64
    before anything encodes it. Their prefix is the associated data.

    Plain, not frozen, as one is built per envelope sent or received (see
    ``crypto``). No field is assigned after construction, or the held bytes
    would not be its own: ``dataclasses.replace`` makes a changed copy, and
    the copy encodes its bytes anew.

    ``recipient_cert_fingerprint`` is no header field but a note to the
    relay, the recipient fingerprint the sender's session pinned, which
    ``submit_envelope`` checks. It is in no byte form, so envelopes fetched
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

    @cached_property
    def _canonical(self) -> bytes:
        """For an envelope built field by field."""
        payload = self.payload
        return (header_bytes(self.sender_id, self.recipient_id, self.counter,
                             self.sender_cert_fingerprint, self.group_id, self.sent_at)
                + encode_bytes(payload.ciphertext) + encode_bytes(payload.mac))

    def canonical_bytes(self) -> bytes:
        return self._canonical

    def associated_data(self) -> bytes:
        """The held bytes less the ciphertext and mac fields: ``header_bytes``."""
        data, payload = self._canonical, self.payload
        return data[:len(data) - 8 - len(payload.ciphertext) - len(payload.mac)]

    @classmethod
    def sealed(cls, header: bytes, *fields) -> "Envelope":
        """The envelope of ``fields``, sealed over ``header``, their ``header_bytes``."""
        envelope = cls(*fields)
        payload = envelope.payload
        envelope.__dict__["_canonical"] = (header + encode_bytes(payload.ciphertext)
                                           + encode_bytes(payload.mac))
        return envelope

    @classmethod
    def from_bytes(cls, data: bytes, recipient_cert_fingerprint: bytes = b"") -> "Envelope":
        """The strict inverse of ``canonical_bytes``, in one pass: eight
        fields by ``split_fields``, ending where ``data`` ends, each converted
        once. Bytes that end inside a field are ``TruncatedDataError``;
        trailing bytes, a u64 field not 8 bytes long and a string not UTF-8 are
        ``ChainFormatError``. An empty ``group_id`` decodes as ``None``. The
        envelope holds ``data``, its canonical bytes by the strict parse;
        the relay's note is not in them."""
        fields, end = split_fields(data, 8, what="envelope")
        if end != len(data):
            raise ChainFormatError("trailing bytes in envelope")
        sender, recipient, counter, fingerprint, group, sent_at, ciphertext, mac = fields
        if len(counter) != 8 or len(sent_at) != 8:
            raise ChainFormatError("bad integer width in envelope")
        try:
            envelope = cls(sender.decode(), recipient.decode(), int.from_bytes(counter, "big"),
                           fingerprint, group.decode() or None, SealedPayload(ciphertext, mac),
                           int.from_bytes(sent_at, "big"), recipient_cert_fingerprint)
        except UnicodeDecodeError as e:
            raise ChainFormatError("invalid utf-8 in envelope") from e
        envelope.__dict__["_canonical"] = data
        return envelope

    def shape_ok(self) -> bool:
        """Field sizes and ranges, and a sender that is not its own
        recipient: no session can open such an envelope."""
        return (
            bool(self.sender_id)
            and self.recipient_id != self.sender_id
            and 0 <= self.counter <= U64_MAX
            and 0 <= self.sent_at <= U64_MAX
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

    def put(self, envelope: Envelope) -> str:
        with self.lock:
            if len(self.queue) >= MAILBOX_CAP:
                raise MailboxFullError(
                    f"mailbox holds {MAILBOX_CAP} unacknowledged envelopes")
            self.queue.append((self.next_seq, envelope))
            self.next_seq += 1
        return ACK_QUEUED


# ---------------------------------------------------------------------------
# relay
# ---------------------------------------------------------------------------

class Relay:
    def __init__(self, chain_node: ChainNode):
        self._chain_node = chain_node
        self._mailboxes: Dict[str, Mailbox] = {}  # one per registered user
        self._groups: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
        self._state_lock = threading.Lock()

    # -- certificate status ---------------------------------------------------

    def fetch_certificate(self, user_id: str) -> CertStatus:
        """Pure proxy of the chain's latest-wins lookup; adds nothing."""
        return fetch_latest(self._chain_node.snapshot(), user_id)

    @staticmethod
    def _require_sender(sender: str, registered: bool, state: ChainView, now: int) -> None:
        """The sender rule of submit and fan-out: registered, and its latest
        record a valid certificate."""
        if not registered:
            raise RoutingError(f"sender {sender!r} is not registered")
        status = status_of(state.newest(sender), now)
        if status != VALID:
            raise RoutingError(f"sender {sender!r} certificate is {status}")

    # -- registration ---------------------------------------------------------

    def register_user(self, user_id: str, cert_fingerprint: bytes) -> str:
        status = self.fetch_certificate(user_id)
        if not status.is_valid:
            raise RegistrationRefusedError(
                f"certificate for {user_id!r} is {status.state}"
            )
        if status.record.fingerprint != cert_fingerprint:
            raise RegistrationRefusedError(
                f"fingerprint does not match the latest certificate for {user_id!r}"
            )
        with self._state_lock:
            self._mailboxes.setdefault(user_id, Mailbox())
        return "registered"

    # -- message flow ----------------------------------------------------------

    def submit_envelope(self, envelope: Envelope) -> str:
        """Queue a one-to-one envelope; both statuses come from one snapshot at one ``now``."""
        if not envelope.shape_ok():
            raise WireProtocolError("malformed envelope")
        sender, recipient = envelope.sender_id, envelope.recipient_id
        if not recipient:
            raise WireProtocolError("one-to-one envelope without recipient")
        state, now = self._chain_node.snapshot(), chain._now()
        with self._state_lock:
            sender_known = sender in self._mailboxes
            mailbox = self._mailboxes.get(recipient)
        # PROTOCOL.md order: sender registered, recipient registered, sender valid
        if sender_known and mailbox is None:
            raise RoutingError(f"recipient {recipient!r} is not registered")
        self._require_sender(sender, sender_known, state, now)
        record = state.newest(recipient)
        status = status_of(record, now)
        if status != VALID:
            raise SessionRefusedError(status, f"recipient {recipient!r} certificate is {status}")
        if record.fingerprint != envelope.recipient_cert_fingerprint:
            raise FingerprintMismatchError(
                f"recipient {recipient!r} re-issued its certificate; restart the session")
        return mailbox.put(envelope)

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
        if len(member_ids) > GROUP_CAP:
            raise WireProtocolError(
                f"member list of {group_id!r} is over the cap of {GROUP_CAP}")
        if len(set(member_ids)) != len(member_ids):
            raise WireProtocolError(f"member list of {group_id!r} repeats an id")
        if admin_id not in member_ids:
            raise GroupPermissionError(f"admin {admin_id!r} is not in the member list")
        with self._state_lock:
            self._groups[group_id] = (admin_id, tuple(member_ids))

    def broadcast_group(self, group_id: str, envelope: Envelope) -> List[Tuple[str, str]]:
        """Fan-out to the group's stored members: one copy per member except
        the sender; per-member results.

        Every status is read from one chain snapshot at one ``now``, and the
        group and the registry once, so a revocation lands between two
        fan-outs, never inside one. An envelope not tagged with ``group_id``
        (a one-to-one envelope, or another group's), or one that names a
        recipient, is refused whole.
        """
        sender = envelope.sender_id
        state, now = self._chain_node.snapshot(), chain._now()
        with self._state_lock:
            if group_id not in self._groups:
                raise RoutingError(f"unknown group {group_id!r}")
            _, members = self._groups[group_id]
            sender_known = sender in self._mailboxes
            targets = [(member, self._mailboxes.get(member))
                       for member in members if member != sender]
        if not envelope.shape_ok():
            raise WireProtocolError("malformed envelope")
        if envelope.group_id != group_id:  # members open it by its own group_id
            raise WireProtocolError(
                f"envelope tagged for group {envelope.group_id!r}, sent to {group_id!r}")
        if envelope.recipient_id:
            raise WireProtocolError(f"group envelope names recipient {envelope.recipient_id!r}")
        if sender not in members:
            raise GroupPermissionError(f"sender {sender!r} is not a member of {group_id!r}")
        self._require_sender(sender, sender_known, state, now)
        newest = state.newest
        acks: List[Tuple[str, str]] = []
        for member, mailbox in targets:
            if mailbox is None or status_of(newest(member), now) != VALID:
                acks.append((member, f"error:{RoutingError.category}"))
                continue
            try:
                acks.append((member, mailbox.put(envelope)))
            except MailboxFullError as e:
                acks.append((member, f"error:{e.category}"))
        return acks

    # -- inspection ---------------------------------------------------------------

    def dump_state(self) -> bytes:
        """Everything the relay knows, serialized. Used to prove it knows
        nothing worth stealing."""
        with self._state_lock:
            registry = sorted(self._mailboxes)
            groups = {g: {"admin": a, "members": list(m)}
                      for g, (a, m) in self._groups.items()}
            mailboxes = {}
            for user, mailbox in self._mailboxes.items():
                with mailbox.lock:
                    mailboxes[user] = {
                        "next_seq": mailbox.next_seq,
                        "queue": [
                            {"seq": seq,
                             "envelope": base64.b64encode(env.canonical_bytes()).decode("ascii")}
                            for seq, env in mailbox.queue
                        ],
                    }
        return json.dumps(
            {"registry": registry, "groups": groups, "mailboxes": mailboxes},
            sort_keys=True,
        ).encode("utf-8")
