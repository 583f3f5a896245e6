"""Client session: install, sessions, ordered send/receive, backup, groups.

A ``Client`` owns one user's long-lived state: identity key pair, on-chain
certificate, per-peer ratchet sessions, group keys, and the plaintext message
history (which exists nowhere else). It talks to the outside world through
two small duck-typed handles:

  directory  - has ``fetch_certificate(user_id) -> CertStatus``
  transport  - has ``register_user``, ``submit_envelope``, ``fetch_envelopes``

The in-process ``Relay`` and the wire-protocol ``RelayClient`` both satisfy
them, with the same relay methods and parameters (group fan-out reaches the
members the relay stored at ``create_group``). ``install`` attaches the relay
it enrolled through as both. A client rebuilt from storage, by
``from_state_bytes`` or ``restore_backup(archive, secret)``, has neither until
its caller attaches them, so restoring a backup needs no server.

Sessions need no handshake: both parties derive the same master secret from
their own private key and the peer's certified public key, and the two
directional chains follow deterministically from the (sorted) id pair. The
certificate fingerprint seen at establishment is pinned; envelopes bearing
any other fingerprint are rejected before a single byte is decrypted.

Sending takes no certificate fetch after the first send, which opens the
session. Each one-to-one envelope carries the pinned fingerprint as a note
to the relay, and the relay's submit refuses it when the peer's latest
record is no longer that valid certificate (revoked, expired, or
re-issued). So a revocation stops the next send at ``submit_envelope``:
``send_text`` has already advanced the send chain by then, and that session
is dead anyway. A counter is spent when it is sealed, so a caller that
persists the client saves it after ``send_text`` (or
``send_group_message``, or ``create_group``) and before the submit.

Receive-side ordering, the same for one-to-one and group messages: an
envelope's counter against the receive chain index (the session's receive
chain, or the group chain) decides the path. Equal, the usual case: the
in-order step, one ratchet step and one unseal, and the chain advances.
Ahead: ratchet through the gap, parking the skipped message keys (bounded).
Behind: consume the parked key, or fail as a replay. Consumed keys are always
deleted, which is what makes replayed ciphertexts undecryptable. State only
advances when the MAC checks out. The steps derived for an envelope whose MAC
fails, the in-order step's one step included, are kept in memory as the
lookahead, outside the state, until the chain moves, so more forged envelopes
in that gap cost one MAC check each, and the real envelope derives nothing
again.
"""

from __future__ import annotations

import os
import struct
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import crypto, identity_sig
from .chain import KIND_CERTIFICATE, CertificateRecord
from .crypto import ChainKey, IdentityKeyPair, MessageKey, SealedPayload
from .encoding import Reader, encode_bytes, encode_str, encode_u64
from .errors import (
    BackupFormatError,
    ChainChatError,
    ChainFormatError,
    FingerprintMismatchError,
    GroupPermissionError,
    InstallError,
    NoSessionError,
    ReplayError,
    ResyncError,
    SessionRefusedError,
    UnknownGroupError,
    WireProtocolError,
)
from .mno import EnrollmentRequest, possession_payload
from .relay import Envelope, header_bytes

MAX_SKIPPED = 1_000  # parked message keys per receive chain, as Signal's MAX_SKIP
BACKUP_MAGIC = b"BEEB1"
BACKUP_MAX_STATE = 1 << 26  # state archives may exceed the message cap
# PBKDF2 runs before the MAC can refuse a header, so the header's count is capped
BACKUP_MAX_ITERATIONS = 10 * crypto.BACKUP_ITERATIONS

_STATE_TAG = "chainchat-state|3"
_FRAME_TEXT = b"\x00"
_FRAME_GROUP_KEY = b"\x01"

SENT = "sent"
RECEIVED = "received"


# ---------------------------------------------------------------------------
# state types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lookahead:
    """The ratchet steps ``_open`` derived ahead of a receive chain for an
    envelope it then refused: ``steps[i]`` is the message key at
    ``start.index + i`` and the chain after it. Held in memory only, never
    in the state bytes, and valid while the receive chain is still ``start``,
    so a later envelope in the same gap costs its MAC check and no
    derivation."""

    start: ChainKey
    steps: List[Tuple[MessageKey, ChainKey]]


@dataclass
class SessionState:
    peer_id: str
    send_chain: ChainKey
    recv_chain: ChainKey
    skipped_keys: Dict[int, MessageKey] = field(default_factory=dict)
    peer_cert_fingerprint: bytes = b""
    lookahead: Optional[Lookahead] = field(default=None, repr=False, compare=False)


@dataclass
class GroupState:
    group_id: str
    admin_id: str
    member_ids: List[str]
    group_key: bytes
    group_chain: ChainKey
    skipped_keys: Dict[int, MessageKey] = field(default_factory=dict)
    lookahead: Optional[Lookahead] = field(default=None, repr=False, compare=False)


# plain, as built per message (see ``crypto``), and never assigned after construction
@dataclass
class HistoryEntry:
    direction: str  # SENT or RECEIVED
    peer_id: str    # counterpart user, or sender for group messages
    group_id: str   # empty for one-to-one
    counter: int
    text: str
    at: int


@dataclass(frozen=True)
class GroupCreation:
    envelopes: List[Envelope]
    excluded: Dict[str, str]  # member -> error category
    member_ids: List[str]


@dataclass  # plain, as HistoryEntry
class Delivery:
    envelope: Envelope
    text: Optional[str]
    error: Optional[str]  # error category when processing failed


def _new_group(group_id: str, admin_id: str, member_ids: List[str],
               group_key: bytes) -> GroupState:
    """Group state at the root of its shared, sender-agnostic chain:
    HKDF(group_key, 0^32, "group|<group_id>")."""
    info = f"group|{group_id}".encode("utf-8")
    root = crypto.hkdf_sha256(group_key, crypto.ZERO_SALT, info, 32)
    return GroupState(group_id=group_id, admin_id=admin_id, member_ids=member_ids,
                      group_key=group_key, group_chain=ChainKey(key=root, index=0))


def _encode_group_descriptor(group: GroupState) -> bytes:
    """Group id, admin, member list and 32-byte key: the body of a group-key
    frame, and the head of each group in the state bytes."""
    out = bytearray(encode_str(group.group_id) + encode_str(group.admin_id))
    out += encode_u64(len(group.member_ids))
    for member in group.member_ids:
        out += encode_str(member)
    out += encode_bytes(group.group_key)
    return bytes(out)


def _read_group_descriptor(r: Reader) -> Tuple[str, str, List[str], bytes]:
    """The fields ``_encode_group_descriptor`` writes, in ``GroupState`` order."""
    group_id, admin_id = r.read_str(), r.read_str()
    return group_id, admin_id, r.read_strs(r.read_u64()), r.expect_bytes(32)


# ---------------------------------------------------------------------------
# backup archive
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BackupArchive:
    """Password-key-encrypted snapshot of a full client state.

    Byte layout (fixed; see FORMATS.md):
      magic "BEEB1" | salt (16) | iterations (4 BE) |
      ciphertext length (4 BE) | ciphertext | mac (32)

    An archive is refused (``backup-format``) when built or parsed with a
    count outside 1 to ``BACKUP_MAX_ITERATIONS``, so no key is derived from one.
    """

    salt: bytes
    iterations: int
    payload: SealedPayload

    def __post_init__(self) -> None:
        if not 1 <= self.iterations <= BACKUP_MAX_ITERATIONS:
            raise BackupFormatError(f"iteration count {self.iterations} outside "
                                    f"1 to {BACKUP_MAX_ITERATIONS}")

    def header(self) -> bytes:
        return BACKUP_MAGIC + self.salt + struct.pack(">I", self.iterations)

    def to_bytes(self) -> bytes:
        return (
            self.header()
            + struct.pack(">I", len(self.payload.ciphertext))
            + self.payload.ciphertext
            + self.payload.mac
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "BackupArchive":
        if len(data) < 5 + 16 + 4 + 4 + 32:
            raise BackupFormatError("archive too short")
        if data[:5] != BACKUP_MAGIC:
            raise BackupFormatError("bad archive magic")
        salt = data[5:21]
        (iterations,) = struct.unpack(">I", data[21:25])
        (ct_len,) = struct.unpack(">I", data[25:29])
        if len(data) != 29 + ct_len + 32:
            raise BackupFormatError("archive length does not match header")
        ciphertext = data[29:29 + ct_len]
        mac = data[29 + ct_len:]
        return cls(salt=salt, iterations=iterations,
                   payload=SealedPayload(ciphertext=ciphertext, mac=mac))


# ---------------------------------------------------------------------------
# client
# ---------------------------------------------------------------------------

class Client:
    def __init__(self, user_id: str, identity: IdentityKeyPair,
                 certificate: CertificateRecord,
                 directory=None, transport=None,
                 *, rng: Callable[[int], bytes] = os.urandom):
        self.user_id = user_id
        self.identity = identity
        self.certificate = certificate
        self.cert_fingerprint = certificate.fingerprint
        self.directory = directory
        self.transport = transport
        self._rng = rng
        self.sessions: Dict[str, SessionState] = {}
        self.groups: Dict[str, GroupState] = {}
        self.history: List[HistoryEntry] = []
        self.inbox_cursor = 0  # highest relay sequence number consumed

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def install(cls, user_id: str, mno, relay, *,
                rng: Callable[[int], bytes] = os.urandom) -> "Client":
        """Generate keys, enroll with the MNO, register with the relay."""
        identity = crypto.generate_identity_keypair(rng)
        try:
            challenge = mno.new_challenge(user_id)
            proof = identity_sig.sign(
                identity, challenge,
                possession_payload(user_id, identity.public_key, challenge),
            )
            record = mno.issue_certificate(EnrollmentRequest(
                user_id=user_id,
                subject_public_key=identity.public_key,
                proof_of_possession=proof,
            ))
        except ChainChatError as e:
            raise InstallError("enrollment", str(e)) from e
        client = cls(user_id, identity, record, directory=relay, transport=relay, rng=rng)
        try:
            relay.register_user(user_id, client.cert_fingerprint)
        except ChainChatError as e:
            raise InstallError("registration", str(e)) from e
        return client

    # -- sessions ----------------------------------------------------------------

    def start_session(self, peer_id: str) -> SessionState:
        if peer_id == self.user_id:
            raise ValueError("cannot open a session with oneself")
        record = self._valid_certificate(peer_id)
        # the pair master seeds the two chains, and the session keeps only them
        master = crypto.derive_master_secret(self.identity, record.subject_public_key)
        send_chain, recv_chain = crypto.init_chains(master, self.user_id, peer_id)
        session = SessionState(peer_id=peer_id, send_chain=send_chain, recv_chain=recv_chain,
                               peer_cert_fingerprint=record.fingerprint)
        self.sessions[peer_id] = session
        return session

    def _valid_certificate(self, peer_id: str) -> CertificateRecord:
        """The peer's certificate from the directory, if it is valid."""
        if self.directory is None:
            raise NoSessionError("no certificate directory attached")
        status = self.directory.fetch_certificate(peer_id)
        if not status.is_valid:
            raise SessionRefusedError(status.state,
                                      f"certificate for {peer_id!r} is {status.state}")
        if status.record.user_id != peer_id:  # validly signed, but someone else's key
            raise WireProtocolError(f"directory answered {peer_id!r} with the "
                                    f"certificate of {status.record.user_id!r}")
        return status.record

    def _check_peer_current(self, session: SessionState) -> None:
        # revocation gate before a group key goes out; sends rely on the relay
        record = self._valid_certificate(session.peer_id)
        if record.fingerprint != session.peer_cert_fingerprint:
            raise FingerprintMismatchError(
                f"peer {session.peer_id!r} re-issued its certificate; restart the session"
            )

    # -- send ---------------------------------------------------------------------

    def _build_envelope(self, recipient_id: str, group_id: Optional[str],
                        mk: MessageKey, body: bytes,
                        recipient_cert_fingerprint: bytes = b"") -> Envelope:
        """``body`` sealed under ``mk``: the header is encoded once, as the
        seal's associated data and the head of the envelope's bytes."""
        sent_at = int(time.time())
        ad = header_bytes(self.user_id, recipient_id, mk.index, self.cert_fingerprint,
                          group_id, sent_at)
        return Envelope.sealed(ad, self.user_id, recipient_id, mk.index, self.cert_fingerprint,
                               group_id, crypto.seal(mk, body, ad), sent_at,
                               recipient_cert_fingerprint)

    def _seal_to(self, session: SessionState, body: bytes) -> Envelope:
        """One envelope on the session's send chain, noting its pinned peer."""
        mk, next_chain = crypto.ratchet_forward(session.send_chain)
        envelope = self._build_envelope(session.peer_id, None, mk, body,
                                        session.peer_cert_fingerprint)
        session.send_chain = next_chain
        return envelope

    def send_text(self, peer_id: str, text: str) -> Envelope:
        """Seal one message, opening the session with a new peer first; the
        per-message key dies with this call."""
        session = self.sessions.get(peer_id) or self.start_session(peer_id)
        envelope = self._seal_to(session, _FRAME_TEXT + text.encode("utf-8"))
        self.history.append(HistoryEntry(SENT, peer_id, "", envelope.counter, text,
                                         envelope.sent_at))
        return envelope

    # -- receive ---------------------------------------------------------------------

    def receive_envelope(self, envelope: Envelope) -> Optional[str]:
        """Decrypt one envelope, advancing ratchet state only on success; a
        one-to-one envelope from a new sender opens the session first.

        Returns the text for messages, None for group-key control payloads.
        """
        if not envelope.shape_ok():  # e.g. a counter past u64 has no associated data
            raise WireProtocolError("malformed envelope")
        # a group envelope names no recipient, a one-to-one one this client
        if envelope.recipient_id != ("" if envelope.group_id else self.user_id):
            raise WireProtocolError(f"envelope addressed to {envelope.recipient_id!r}")
        if envelope.group_id:
            group = self._group_of(envelope.group_id, envelope.sender_id)
            plaintext, group.group_chain = self._open(group, group.group_chain, envelope)
        else:
            session = (self.sessions.get(envelope.sender_id)
                       or self.start_session(envelope.sender_id))
            if envelope.sender_cert_fingerprint != session.peer_cert_fingerprint:
                raise FingerprintMismatchError(
                    f"envelope from {envelope.sender_id!r} carries an unknown certificate"
                )
            plaintext, session.recv_chain = self._open(session, session.recv_chain,
                                                       envelope)
        return self._accept(envelope, plaintext)

    def _open(self, receiver: SessionState | GroupState, chain: ChainKey,
              envelope: Envelope) -> Tuple[bytes, ChainKey]:
        """Unseal by counter against ``chain``, the receive chain of
        ``receiver``; return plaintext and the chain to store. Nothing in the
        state changes if it raises: only ``receiver.lookahead``, which sits
        outside the state, keeps the steps derived for a refused envelope
        ahead of ``chain``."""
        ad = envelope.associated_data()
        counter = envelope.counter
        parked = receiver.skipped_keys
        if counter < chain.index:
            mk = parked.get(counter)
            if mk is None:
                raise ReplayError(
                    f"counter {counter} from {envelope.sender_id!r} was already consumed"
                )
            plaintext = crypto.unseal(mk, envelope.payload, ad)
            del parked[counter]
            return plaintext, chain

        gap = counter - chain.index
        if len(parked) + gap > MAX_SKIPPED:
            raise ResyncError(f"gap of {gap} exceeds the skipped-key bound of {MAX_SKIPPED}")
        ahead = receiver.lookahead
        steps = ahead.steps if ahead is not None and ahead.start == chain else []
        while len(steps) <= gap:  # at most MAX_SKIPPED + 1 steps, by the bound above
            steps.append(crypto.ratchet_forward(steps[-1][1] if steps else chain))
        mk, next_chain = steps[gap]
        try:
            plaintext = crypto.unseal(mk, envelope.payload, ad)
        except ChainChatError:
            receiver.lookahead = Lookahead(start=chain, steps=steps)
            raise
        for skipped, _ in steps[:gap]:
            parked[skipped.index] = skipped
        receiver.lookahead = None
        return plaintext, next_chain

    def _accept(self, envelope: Envelope, plaintext: bytes) -> Optional[str]:
        if plaintext[:1] == _FRAME_TEXT:
            try:
                text = plaintext[1:].decode("utf-8")
            except UnicodeDecodeError as e:  # the MAC held, so the key stays spent
                raise WireProtocolError(f"text frame is not UTF-8: {e}") from e
            self.history.append(HistoryEntry(RECEIVED, envelope.sender_id,
                                             envelope.group_id or "", envelope.counter,
                                             text, envelope.sent_at))
            return text
        if plaintext[:1] == _FRAME_GROUP_KEY and not envelope.group_id:
            self._install_group_key(envelope.sender_id, plaintext[1:])
            return None
        raise WireProtocolError("unknown payload frame")

    def pull_messages(self) -> List[Delivery]:
        """Deliver what the relay returns past the stored cursor. A wire
        fetch returns a bounded prefix, so a deep mailbox takes several pulls."""
        if self.transport is None:
            raise NoSessionError("no transport attached")
        out: List[Delivery] = []
        for seq, envelope in self.transport.fetch_envelopes(self.user_id, self.inbox_cursor):
            self.inbox_cursor = max(self.inbox_cursor, seq)
            try:
                out.append(Delivery(envelope, self.receive_envelope(envelope), None))
            except ChainChatError as e:
                out.append(Delivery(envelope, None, e.category))
        return out

    # -- groups -------------------------------------------------------------------------

    def create_group(self, group_id: str, member_ids: Sequence[str]) -> GroupCreation:
        """Mint a group key and seal it to each member over one-to-one sessions."""
        members = list(dict.fromkeys(member_ids))
        if self.user_id not in members:
            members.insert(0, self.user_id)
        excluded: Dict[str, str] = {}
        for member in members:
            if member == self.user_id:
                continue
            try:
                if member not in self.sessions:
                    self.start_session(member)
                else:
                    self._check_peer_current(self.sessions[member])
            except ChainChatError as e:
                excluded[member] = e.category
        final_members = [m for m in members if m not in excluded]

        group = _new_group(group_id, self.user_id, final_members, self._rng(32))
        body = _FRAME_GROUP_KEY + _encode_group_descriptor(group)
        envelopes = [self._seal_to(self.sessions[member], body)
                     for member in final_members if member != self.user_id]
        self.groups[group_id] = group
        return GroupCreation(envelopes=envelopes, excluded=excluded,
                             member_ids=final_members)

    def _install_group_key(self, sender_id: str, body: bytes) -> None:
        r = Reader(body, what="group key distribution")
        group_id, admin_id, members, group_key = _read_group_descriptor(r)
        r.require_exhausted()
        if admin_id != sender_id:
            raise GroupPermissionError(
                f"group key for {group_id!r} not sent by its declared admin"
            )
        existing = self.groups.get(group_id)
        if existing is not None and existing.admin_id != sender_id:
            raise GroupPermissionError(
                f"{sender_id!r} is not the admin of existing group {group_id!r}"
            )
        self.groups[group_id] = _new_group(group_id, admin_id, members, group_key)

    def _group_of(self, group_id: str, member_id: str) -> GroupState:
        """The known group ``group_id``, which lists ``member_id``."""
        group = self.groups.get(group_id)
        if group is None:
            raise UnknownGroupError(f"no group state for {group_id!r}")
        if member_id not in group.member_ids:
            raise GroupPermissionError(f"{member_id!r} is not a member of {group_id!r}")
        return group

    def send_group_message(self, group_id: str, text: str) -> Envelope:
        group = self._group_of(group_id, self.user_id)
        mk, next_chain = crypto.ratchet_forward(group.group_chain)
        envelope = self._build_envelope("", group_id, mk,
                                        _FRAME_TEXT + text.encode("utf-8"))
        group.group_chain = next_chain
        self.history.append(HistoryEntry(SENT, "", group_id, mk.index, text,
                                         envelope.sent_at))
        return envelope

    # -- backup ---------------------------------------------------------------------------

    def export_backup(self, secret: str) -> BackupArchive:
        """Snapshot everything (identity key included) under a password key."""
        if not secret:
            raise ValueError("backup secret must be non-empty")
        archive = BackupArchive(salt=self._rng(16), iterations=crypto.BACKUP_ITERATIONS,
                                payload=SealedPayload(ciphertext=b"", mac=b""))
        mk = crypto.backup_message_key(secret, archive.salt, archive.iterations)
        payload = crypto.seal(mk, self.to_state_bytes(), archive.header(),
                              max_plaintext=BACKUP_MAX_STATE)
        return replace(archive, payload=payload)

    @classmethod
    def restore_backup(cls, archive, secret: str) -> "Client":
        """Decrypt and rebuild the exact exported state; wrong secret fails
        authentication before any state is constructed."""
        if isinstance(archive, (bytes, bytearray)):
            archive = BackupArchive.from_bytes(bytes(archive))
        mk = crypto.backup_message_key(secret, archive.salt, archive.iterations)
        return cls.from_state_bytes(crypto.unseal(mk, archive.payload, archive.header()))

    # -- canonical state serialization ------------------------------------------------------

    @staticmethod
    def _encode_chain_key(ck: ChainKey) -> bytes:
        return encode_bytes(ck.key) + encode_u64(ck.index)

    @staticmethod
    def _decode_chain_key(r: Reader) -> ChainKey:
        return ChainKey(key=r.expect_bytes(32), index=r.read_u64())

    @staticmethod
    def _encode_parked(parked: Dict[int, MessageKey]) -> bytes:
        """Each parked key under its counter, which is its ``index``."""
        out = bytearray(encode_u64(len(parked)))
        for counter in sorted(parked):
            mk = parked[counter]
            out += encode_u64(counter) + encode_bytes(mk.cipher_key)
            out += encode_bytes(mk.mac_key) + encode_bytes(mk.iv)
        return bytes(out)

    @staticmethod
    def _decode_parked(r: Reader) -> Dict[int, MessageKey]:
        parked: Dict[int, MessageKey] = {}
        for _ in range(r.read_u64()):
            counter = r.read_u64()
            parked[counter] = MessageKey(cipher_key=r.expect_bytes(32),
                                         mac_key=r.expect_bytes(32),
                                         iv=r.expect_bytes(16), index=counter)
        return parked

    def to_state_bytes(self) -> bytes:
        """FORMATS.md §Client state; the certificate holds the user id and
        public key. Built in one ``bytearray``, so the cost is linear in the
        history's length."""
        out = bytearray(encode_str(_STATE_TAG))
        out += encode_bytes(self.identity.private_key)
        out += encode_bytes(self.certificate.canonical_bytes())
        out += encode_u64(self.inbox_cursor)

        out += encode_u64(len(self.sessions))
        for peer_id in sorted(self.sessions):
            s = self.sessions[peer_id]
            out += encode_str(s.peer_id)
            out += self._encode_chain_key(s.send_chain)
            out += self._encode_chain_key(s.recv_chain)
            out += self._encode_parked(s.skipped_keys)
            out += encode_bytes(s.peer_cert_fingerprint)

        out += encode_u64(len(self.groups))
        for group_id in sorted(self.groups):
            g = self.groups[group_id]
            out += _encode_group_descriptor(g)
            out += self._encode_chain_key(g.group_chain)
            out += self._encode_parked(g.skipped_keys)

        out += encode_u64(len(self.history))
        for entry in self.history:
            out += encode_str(entry.direction) + encode_str(entry.peer_id)
            out += encode_str(entry.group_id) + encode_u64(entry.counter)
            out += encode_str(entry.text) + encode_u64(entry.at)
        return bytes(out)

    @classmethod
    def from_state_bytes(cls, data: bytes) -> "Client":
        try:
            r = Reader(data, what="client state")
            if r.read_str() != _STATE_TAG:
                raise BackupFormatError("unknown client state tag")
            private_key = r.expect_bytes(32)
            certificate = CertificateRecord.from_bytes(r.read_bytes())
            if certificate.kind != KIND_CERTIFICATE or not certificate.shape_ok():
                raise BackupFormatError("stored record is not a certificate")
            identity = IdentityKeyPair(private_key, certificate.subject_public_key)
            client = cls(certificate.user_id, identity, certificate)
            client.inbox_cursor = r.read_u64()

            for _ in range(r.read_u64()):
                peer_id = r.read_str()
                client.sessions[peer_id] = SessionState(
                    peer_id=peer_id,
                    send_chain=cls._decode_chain_key(r),
                    recv_chain=cls._decode_chain_key(r),
                    skipped_keys=cls._decode_parked(r),
                    peer_cert_fingerprint=r.expect_bytes(32),
                )

            for _ in range(r.read_u64()):
                group = GroupState(*_read_group_descriptor(r),
                                   group_chain=cls._decode_chain_key(r),
                                   skipped_keys=cls._decode_parked(r))
                client.groups[group.group_id] = group

            for _ in range(r.read_u64()):
                client.history.append(HistoryEntry(
                    direction=r.read_str(), peer_id=r.read_str(),
                    group_id=r.read_str(), counter=r.read_u64(),
                    text=r.read_str(), at=r.read_u64(),
                ))
            r.require_exhausted()
            return client
        except ChainFormatError as e:
            raise BackupFormatError(str(e)) from e
