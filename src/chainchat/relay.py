"""Store-and-forward relay: the IM server that holds zero key material.

The relay gives each user whose certificate checks out against the chain a
mailbox (so a user with a mailbox is registered), queues sealed envelopes in
the recipients' mailboxes, and fans a group broadcast out to the member
list, without repeats, that ``create_group`` stored. Every request reads the
chain node as it stands, so a revocation takes effect on the next lookup; a
submit or a fan-out reads the records of all its parties in one step between
two commits (``ChainNode.newest_of``), at one time. ``RelayClient`` offers
the same methods over the wire. The relay never inspects plaintext and
never holds keys. An envelope holds one byte form, made once (``Envelope``),
which is its wire form: the relay serves each envelope as the bytes it
received, however many mailboxes hold it. Every field it routes on and
serves is bound into the sender's MAC, so any tampering in transit surfaces
as an authentication failure at the recipient.

Envelopes are admitted by one rule, in process and on the wire: their
shape, then at most ``MAX_ENVELOPE`` bytes. A mailbox holds at most
``MAILBOX_CAP`` unacknowledged envelopes and ``MAILBOX_BYTES`` of them; past
either a submit is refused and a fan-out skips the member, both
``mailbox-full``. A group holds at most ``GROUP_CAP`` members.

A one-to-one submit is refused unless the recipient's latest record is the
valid certificate the sender's session pinned, so a revocation or re-issue
stops the next send without a certificate fetch. Submit and fan-out ask the
chain's latest-wins rule (``chain.status_of``) of those records directly, so
a fan-out builds no status object per member.

Delivery is pull-based with a sequence cursor: ``fetch_envelopes(user, n)``
returns everything after ``n`` and acknowledges (drops) everything up to and
including ``n``. Repeating the same fetch returns the same envelopes. One
counter numbers every mailbox's envelopes, from ``time.time_ns()``, so
numbers rise across restarts too. One lock, never held across a chain read,
guards the registry, the groups, the mailboxes and the counter.
"""

from __future__ import annotations

import base64
import json
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from . import chain
from .chain import VALID, CertificateRecord, CertStatus, ChainNode, fetch_latest, status_of
from .crypto import MAX_PLAINTEXT, SealedPayload
from .encoding import LENGTH_PREFIX, U64_FIELD, U64_MAX, encode_bytes, split_fields
from .errors import (
    ChainFormatError,
    FingerprintMismatchError,
    GroupPermissionError,
    MailboxFullError,
    MessageTooLargeError,
    RegistrationRefusedError,
    RoutingError,
    SessionRefusedError,
    WireProtocolError,
)
from .mno import MAX_USER_ID_BYTES, id_too_long

ACK_QUEUED = "queued"
MAILBOX_CAP = 10_000  # unacknowledged envelopes per mailbox
MAILBOX_BYTES = 64 << 20  # bytes of unacknowledged envelopes per mailbox
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


# the longest envelope a client can seal (PROTOCOL.md §Envelope): its header
# with the three ids at the cap, then two bytes fields, the ciphertext of the
# longest sealable plaintext (PKCS#7 pads it by a whole block) and the MAC
MAX_ENVELOPE = (len(header_bytes("", "", 0, bytes(32), None, 0)) + 3 * MAX_USER_ID_BYTES
                + 2 * LENGTH_PREFIX.size + MAX_PLAINTEXT + 16 + 32)


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
    size: int = 0  # bytes of the queued envelopes


# ---------------------------------------------------------------------------
# relay
# ---------------------------------------------------------------------------

class Relay:
    def __init__(self, chain_node: ChainNode):
        self._chain_node = chain_node
        self._mailboxes: Dict[str, Mailbox] = {}  # one per registered user
        self._groups: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
        self._next_seq = time.time_ns()  # rises across restarts (PROTOCOL.md §fetch)
        self._lock = threading.Lock()  # guards all four

    # -- certificate status ---------------------------------------------------

    def fetch_certificate(self, user_id: str) -> CertStatus:
        """Pure proxy of the chain's latest-wins lookup; adds nothing."""
        return fetch_latest(self._chain_node, user_id)

    @staticmethod
    def _require_sender(sender: str, registered: bool,
                        record: Optional[CertificateRecord], now: int) -> None:
        """The sender rule of submit and fan-out: registered, and its latest
        record, ``record``, a valid certificate."""
        if not registered:
            raise RoutingError(f"sender {sender!r} is not registered")
        status = status_of(record, now)
        if status != VALID:
            raise RoutingError(f"sender {sender!r} certificate is {status}")

    def _put(self, mailbox: Mailbox, envelope: Envelope, size: int) -> str:
        """Queue ``envelope`` of ``size`` bytes under the next number; hold ``_lock``."""
        if len(mailbox.queue) >= MAILBOX_CAP or mailbox.size + size > MAILBOX_BYTES:
            raise MailboxFullError(
                f"mailbox full: its caps are {MAILBOX_CAP} envelopes and {MAILBOX_BYTES} bytes")
        mailbox.queue.append((self._next_seq, envelope))
        mailbox.size += size
        self._next_seq += 1
        return ACK_QUEUED

    # -- registration ---------------------------------------------------------

    def register_user(self, user_id: str, cert_fingerprint: bytes) -> str:
        record = self._chain_node.newest(user_id)
        status = status_of(record, chain._now())
        if status != VALID:
            raise RegistrationRefusedError(f"certificate for {user_id!r} is {status}")
        if record.fingerprint != cert_fingerprint:
            raise RegistrationRefusedError(
                f"fingerprint does not match the latest certificate for {user_id!r}"
            )
        with self._lock:
            if user_id not in self._mailboxes:
                self._mailboxes[user_id] = Mailbox()
        return "registered"

    # -- message flow ----------------------------------------------------------

    def submit_envelope(self, envelope: Envelope) -> str:
        """Queue a one-to-one envelope; both records are read in one step, at one ``now``."""
        if not envelope.shape_ok():
            raise WireProtocolError("malformed envelope")
        size = len(envelope.canonical_bytes())  # after the shape: a counter past u64 has none
        if size > MAX_ENVELOPE:
            raise MessageTooLargeError(f"envelope of {size} bytes exceeds {MAX_ENVELOPE}")
        sender, recipient = envelope.sender_id, envelope.recipient_id
        if not recipient:
            raise WireProtocolError("one-to-one envelope without recipient")
        with self._lock:
            sender_known = sender in self._mailboxes
            mailbox = self._mailboxes.get(recipient)
        # PROTOCOL.md order: sender registered, recipient registered, sender valid
        if sender_known and mailbox is None:
            raise RoutingError(f"recipient {recipient!r} is not registered")
        sender_record, record = self._chain_node.newest_of(sender, recipient)
        now = chain._now()
        self._require_sender(sender, sender_known, sender_record, now)
        status = status_of(record, now)
        if status != VALID:
            raise SessionRefusedError(status, f"recipient {recipient!r} certificate is {status}")
        if record.fingerprint != envelope.recipient_cert_fingerprint:
            raise FingerprintMismatchError(
                f"recipient {recipient!r} re-issued its certificate; restart the session")
        with self._lock:
            return self._put(mailbox, envelope, size)

    def fetch_envelopes(self, recipient_id: str, after_seq: int) -> List[Tuple[int, Envelope]]:
        with self._lock:
            mailbox = self._mailboxes.get(recipient_id)
            if mailbox is None:
                raise RoutingError(f"recipient {recipient_id!r} is not registered")
            # fetching past a sequence number acknowledges everything up to it
            queue, acked = mailbox.queue, 0
            for seq, envelope in queue:
                if seq > after_seq:
                    break
                mailbox.size -= len(envelope.canonical_bytes())
                acked += 1
            del queue[:acked]
            return list(queue)

    # -- groups -----------------------------------------------------------------

    def create_group(self, group_id: str, admin_id: str,
                     member_ids: Sequence[str]) -> None:
        if len(member_ids) > GROUP_CAP:
            raise WireProtocolError(
                f"member list of {group_id!r} is over the cap of {GROUP_CAP}")
        if id_too_long(group_id) or any(map(id_too_long, member_ids)):
            raise WireProtocolError(
                f"a group or member id is over {MAX_USER_ID_BYTES} UTF-8 bytes")
        if len(set(member_ids)) != len(member_ids):
            raise WireProtocolError(f"member list of {group_id!r} repeats an id")
        if admin_id not in member_ids:
            raise GroupPermissionError(f"admin {admin_id!r} is not in the member list")
        with self._lock:
            self._groups[group_id] = (admin_id, tuple(member_ids))

    def broadcast_group(self, group_id: str, envelope: Envelope) -> List[Tuple[str, str]]:
        """Fan-out to the group's stored members: one copy per member except
        the sender; per-member results.

        The group and the registry are read once, then every member's record
        and the sender's in one step between two commits, and every status at
        one ``now``, so a revocation lands between two fan-outs, never inside
        one. An envelope not tagged with ``group_id`` (a one-to-one envelope,
        or another group's), or one that names a recipient, is refused whole.
        """
        sender = envelope.sender_id
        with self._lock:
            if group_id not in self._groups:
                raise RoutingError(f"unknown group {group_id!r}")
            _, members = self._groups[group_id]
            sender_known = sender in self._mailboxes
            targets = [member for member in members if member != sender]
            mailboxes = [self._mailboxes.get(member) for member in targets]
        if not envelope.shape_ok():
            raise WireProtocolError("malformed envelope")
        size = len(envelope.canonical_bytes())
        if size > MAX_ENVELOPE:
            raise MessageTooLargeError(f"envelope of {size} bytes exceeds {MAX_ENVELOPE}")
        if envelope.group_id != group_id:  # members open it by its own group_id
            raise WireProtocolError(
                f"envelope tagged for group {envelope.group_id!r}, sent to {group_id!r}")
        if envelope.recipient_id:
            raise WireProtocolError(f"group envelope names recipient {envelope.recipient_id!r}")
        if sender not in members:
            raise GroupPermissionError(f"sender {sender!r} is not a member of {group_id!r}")
        sender_record, *records = self._chain_node.newest_of(sender, *targets)
        now = chain._now()
        self._require_sender(sender, sender_known, sender_record, now)
        acks: List[Tuple[str, str]] = []
        with self._lock:
            for member, mailbox, record in zip(targets, mailboxes, records):
                if mailbox is None or status_of(record, now) != VALID:
                    acks.append((member, f"error:{RoutingError.category}"))
                    continue
                try:
                    acks.append((member, self._put(mailbox, envelope, size)))
                except MailboxFullError as e:
                    acks.append((member, f"error:{e.category}"))
        return acks

    # -- inspection ---------------------------------------------------------------

    def dump_state(self) -> bytes:
        """Everything the relay knows, serialized. Used to prove it knows
        nothing worth stealing."""
        with self._lock:
            state = {
                "registry": sorted(self._mailboxes),
                "groups": {g: {"admin": a, "members": list(m)}
                           for g, (a, m) in self._groups.items()},
                "mailboxes": {user: [(seq, base64.b64encode(env.canonical_bytes()).decode("ascii"))
                                     for seq, env in mailbox.queue]
                              for user, mailbox in self._mailboxes.items()},
                "next_seq": self._next_seq,
            }
        return json.dumps(state, sort_keys=True).encode("utf-8")
