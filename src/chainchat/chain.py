"""Permissioned append-only certificate ledger.

A chain is a sequence of blocks. The genesis block declares the authorized
writer set (ids and Ed25519 verification keys) and is the root of trust; it
carries no signature because it is what signatures are checked against.
Every later block is signed by a declared writer and linked to its
predecessor by a SHA-256 hash of the predecessor's canonical serialization.

Validity of a user's certificate is decided by the *latest* record for that
user: a revocation marker there means revoked, an expired certificate means
expired, otherwise valid. There is no revocation list to propagate; a
revocation is visible to every reader the moment its block lands.

``ChainState`` is the chain as a pure value, every block, which files,
tests and the benchmark's inputs build and read. ``ChainNode`` is the running
chain: it holds its table of writer checks, the head block, the head's hash
and one map from user id to that user's newest record, and nothing older,
and each append adds one frame to the chain file, which the node keeps
open, before readers see it. A request reads the users it needs in one step
between two commits (``ChainNode.newest_of``). Status is decided at lookup
time from the record's kind and expiry.

An append encodes each record once (``_record_payload``) for its issuer
check, the records hash and the frame (``Block.canonical_bytes``); records
keep no encoded bytes, so a node holds only their fields.
"""

from __future__ import annotations

import io
import struct
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .crypto import sha256
from .encoding import Reader, encode_bytes, encode_str, encode_u64
from .errors import (
    ChainError,
    RecordValidationError,
    RevocationError,
    TruncatedDataError,
    WriterNotAuthorizedError,
)
from .store import append_frame, cut_torn_tail, read_frames, write_atomic

KIND_CERTIFICATE = "certificate"
KIND_REVOCATION = "revocation"

VALID = "valid"
REVOKED = "revoked"
NOT_FOUND = "not_found"
EXPIRED = "expired"

ZERO_HASH = b"\x00" * 32
ZERO_KEY = b"\x00" * 32
ZERO_SIGNATURE = b"\x00" * 64


def _now() -> int:
    return int(time.time())


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateRecord:
    user_id: str
    subject_public_key: bytes  # 32 bytes; all-zero for revocation markers
    issuer_id: str
    issued_at: int
    expires_at: int
    kind: str  # KIND_CERTIFICATE or KIND_REVOCATION
    issuer_signature: bytes  # Ed25519 over signed_payload()

    def signed_payload(self) -> bytes:
        return _record_payload(self.user_id, self.subject_public_key, self.issuer_id,
                               self.issued_at, self.expires_at, self.kind)

    def canonical_bytes(self) -> bytes:
        return self.signed_payload() + encode_bytes(self.issuer_signature)

    @cached_property
    def fingerprint(self) -> bytes:
        """SHA-256 of ``canonical_bytes()``, which sessions pin; hashed once
        per record, since the relay compares it on every submit."""
        return sha256(self.canonical_bytes())

    def shape_ok(self) -> bool:
        if self.kind not in (KIND_CERTIFICATE, KIND_REVOCATION):
            return False
        if len(self.subject_public_key) != 32 or len(self.issuer_signature) != 64:
            return False
        if self.kind == KIND_CERTIFICATE:
            return self.expires_at > self.issued_at
        return self.subject_public_key == ZERO_KEY

    @classmethod
    def from_bytes(cls, data: bytes) -> "CertificateRecord":
        r = Reader(data, what="certificate record")
        # a chain repeats a few issuer ids and two kinds: each is held once
        rec = cls(
            user_id=r.read_str(),
            subject_public_key=r.read_bytes(),
            issuer_id=sys.intern(r.read_str()),
            issued_at=r.read_u64(),
            expires_at=r.read_u64(),
            kind=sys.intern(r.read_str()),
            issuer_signature=r.read_bytes(),
        )
        r.require_exhausted()
        return rec


def _record_payload(user_id: str, subject_public_key: bytes, issuer_id: str,
                    issued_at: int, expires_at: int, kind: str) -> bytes:
    """The one record encoder: the bytes a record's issuer signature covers,
    which its canonical bytes extend with the signature."""
    return (
        encode_str(user_id)
        + encode_bytes(subject_public_key)
        + encode_str(issuer_id)
        + encode_u64(issued_at)
        + encode_u64(expires_at)
        + encode_str(kind)
    )


def verify_edwards(edwards_pub: bytes, message: bytes, signature: bytes) -> bool:
    """RFC 8032 Ed25519 verification against a compressed Edwards key."""
    try:
        Ed25519PublicKey.from_public_bytes(edwards_pub).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def verify_record(record: CertificateRecord, verification_key: bytes) -> bool:
    return record.shape_ok() and verify_edwards(
        verification_key, record.signed_payload(), record.issuer_signature)


# ---------------------------------------------------------------------------
# writer credentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WriterCredential:
    """An authorized writer's id plus its Ed25519 signing key.

    ``sign`` keeps the last payload it signed with its signature, one tuple
    written in one step, so no thread reads one call's payload with another
    call's signature. Ed25519 is deterministic (RFC 8032, 5.1.6), so signing
    that payload again returns the kept signature, which is what the library
    would return: the held-writer check of a record that ``make_record`` has
    just signed costs a bytes comparison. Both values are public.
    """

    writer_id: str
    signing_key: Ed25519PrivateKey = field(repr=False)
    _last: Optional[Tuple[bytes, bytes]] = field(
        default=None, init=False, repr=False, compare=False)

    @classmethod
    def generate(cls, writer_id: str) -> "WriterCredential":
        return cls(writer_id=writer_id, signing_key=Ed25519PrivateKey.generate())

    @classmethod
    def from_seed(cls, writer_id: str, seed: bytes) -> "WriterCredential":
        return cls(writer_id=writer_id, signing_key=Ed25519PrivateKey.from_private_bytes(seed))

    @property
    def seed(self) -> bytes:
        return self.signing_key.private_bytes_raw()

    @property
    def verification_key(self) -> bytes:
        return self.signing_key.public_key().public_bytes_raw()

    def sign(self, payload: bytes) -> bytes:
        last = self._last
        if last is not None and last[0] == payload:
            return last[1]
        signature = self.signing_key.sign(payload)
        object.__setattr__(self, "_last", (payload, signature))
        return signature

    def make_record(self, user_id: str, subject_public_key: bytes,
                    issued_at: int, expires_at: int, kind: str) -> CertificateRecord:
        """The record of these fields, signed: its payload encoded once."""
        fields = (user_id, subject_public_key, self.writer_id, issued_at, expires_at, kind)
        return CertificateRecord(*fields, self.sign(_record_payload(*fields)))


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: bytes
    records: Tuple[CertificateRecord, ...]
    timestamp: int
    writer_id: str
    writer_signature: bytes
    # Present only at genesis: the permissioned writer set, (id, verify key).
    writer_declarations: Tuple[Tuple[str, bytes], ...] = ()

    def records_hash(self, record_bytes: Optional[Sequence[bytes]] = None) -> bytes:
        if record_bytes is None:
            record_bytes = [rec.canonical_bytes() for rec in self.records]
        return sha256(b"".join(map(encode_bytes, record_bytes)))

    def signature_payload(self, record_bytes: Optional[Sequence[bytes]] = None) -> bytes:
        return (
            struct.pack(">Q", self.height)
            + self.prev_hash
            + self.records_hash(record_bytes)
            + struct.pack(">Q", self.timestamp)
        )

    def canonical_bytes(self, record_bytes: Optional[Sequence[bytes]] = None) -> bytes:
        """The one block encoder."""
        if record_bytes is None:
            record_bytes = [rec.canonical_bytes() for rec in self.records]
        out = encode_u64(self.height) + encode_bytes(self.prev_hash)
        out += encode_u64(len(record_bytes))
        for data in record_bytes:
            out += encode_bytes(data)
        out += encode_u64(self.timestamp)
        out += encode_str(self.writer_id)
        out += encode_bytes(self.writer_signature)
        out += encode_u64(len(self.writer_declarations))
        for writer_id, key in self.writer_declarations:
            out += encode_str(writer_id) + encode_bytes(key)
        return out

    def block_hash(self) -> bytes:
        return sha256(self.canonical_bytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "Block":
        r = Reader(data, what="block")
        height = r.read_u64()
        prev_hash = r.read_bytes()
        records = tuple(
            CertificateRecord.from_bytes(r.read_bytes()) for _ in range(r.read_u64())
        )
        timestamp = r.read_u64()
        writer_id = sys.intern(r.read_str())
        writer_signature = r.read_bytes()
        declarations = tuple(
            (r.read_str(), r.read_bytes()) for _ in range(r.read_u64())
        )
        r.require_exhausted()
        return cls(
            height=height,
            prev_hash=prev_hash,
            records=records,
            timestamp=timestamp,
            writer_id=writer_id,
            writer_signature=writer_signature,
            writer_declarations=declarations,
        )


# ---------------------------------------------------------------------------
# chain state and operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainState:
    """A whole chain as a pure value: what ``genesis``, ``append_block``,
    ``load_chain`` and ``chain_from_bytes`` return and what ``verify_chain``
    and the file writers take."""

    blocks: Tuple[Block, ...]

    @cached_property
    def latest(self) -> Mapping[str, CertificateRecord]:
        """User id -> that user's newest record."""
        return MappingProxyType(
            {rec.user_id: rec for block in self.blocks for rec in block.records})

    @property
    def height(self) -> int:
        return self.blocks[-1].height

    def newest(self, user_id: str) -> Optional[CertificateRecord]:
        return self.latest.get(user_id)


@dataclass(frozen=True)
class CertStatus:
    state: str  # VALID, REVOKED, NOT_FOUND or EXPIRED
    record: Optional[CertificateRecord] = None

    @property
    def is_valid(self) -> bool:
        return self.state == VALID


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    height: Optional[int] = None
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def genesis(writer_set: Sequence[Tuple[str, bytes]], timestamp: Optional[int] = None) -> ChainState:
    """Bootstrap a chain whose only block declares the permissioned writers;
    a writer set that ``verify_chain`` would refuse raises ``ValueError``."""
    block = Block(
        height=0,
        prev_hash=ZERO_HASH,
        records=(),
        timestamp=_now() if timestamp is None else timestamp,
        writer_id="",
        writer_signature=ZERO_SIGNATURE,
        writer_declarations=tuple((w, bytes(k)) for w, k in writer_set),
    )
    if not (result := _check_genesis(block)):
        raise ValueError(result.reason)
    return ChainState(blocks=(block,))


def append_block(state: ChainState, credential: WriterCredential,
                 records: Sequence[CertificateRecord],
                 timestamp: Optional[int] = None) -> ChainState:
    """Append one signed block; rejects unauthorized writers and bad records
    by the block rule that ``verify_chain`` and ``ChainNode.open`` apply."""
    head = state.blocks[-1]
    signed, _ = _next_block(_writer_checks(state.blocks[0].writer_declarations, (credential,)),
                            head, head.block_hash(), credential, records, timestamp)
    return ChainState(blocks=state.blocks + (signed,))


def _next_block(checks: Mapping[str, _WriterCheck], head: Block, head_hash: bytes,
                credential: WriterCredential, records: Sequence[CertificateRecord],
                timestamp: Optional[int]) -> Tuple[Block, bytes]:
    """The block of ``records`` that ``credential``, held in ``checks``,
    signs to follow ``head``, whose hash is ``head_hash``, and the block's
    canonical bytes; raises ``RecordValidationError`` if the block rule
    refuses it. Each record is encoded once: its signed payload serves the
    issuer check, and with the signature appended the records hash and the
    block's bytes."""
    records = tuple(records)
    payloads = [rec.signed_payload() for rec in records]
    fields = (head.height + 1, head_hash, records,
              _now() if timestamp is None else timestamp, credential.writer_id)
    unsigned = Block(*fields, ZERO_SIGNATURE)
    if not (result := _check_block(unsigned, unsigned.height, head_hash, checks, False,
                                   payloads)):
        raise RecordValidationError(result.reason)
    record_bytes = [payload + encode_bytes(rec.issuer_signature)
                    for rec, payload in zip(records, payloads)]
    block = Block(*fields, credential.sign(unsigned.signature_payload(record_bytes)))
    return block, block.canonical_bytes(record_bytes)


def status_of(rec: Optional[CertificateRecord], now: int) -> str:
    """The latest-wins rule: the state at ``now`` of a user whose newest
    record is ``rec`` (None for a user with no record). A hot caller asks
    it of the node's records directly and builds no ``CertStatus``."""
    if rec is None:
        return NOT_FOUND
    if rec.kind == KIND_REVOCATION:
        return REVOKED
    if rec.expires_at <= now:
        return EXPIRED
    return VALID


def fetch_latest(state: Union[ChainState, ChainNode], user_id: str,
                 now: Optional[int] = None) -> CertStatus:
    """Latest-wins lookup: the newest record for the user decides the status
    (``status_of``); the record rides along unless it is a revocation."""
    rec = state.newest(user_id)
    status = status_of(rec, _now() if now is None else now)
    return CertStatus(state=status, record=None if status == REVOKED else rec)


def _check_genesis(gen: Block) -> VerifyResult:
    if gen.height != 0:
        return VerifyResult(ok=False, height=gen.height, reason="genesis height is not 0")
    if gen.prev_hash != ZERO_HASH:
        return VerifyResult(ok=False, height=0, reason="genesis prev_hash is not zero")
    if gen.writer_signature != ZERO_SIGNATURE or gen.writer_id != "":
        return VerifyResult(ok=False, height=0, reason="genesis must be unsigned")
    if gen.records:
        return VerifyResult(ok=False, height=0, reason="genesis carries records")
    if not gen.writer_declarations:
        return VerifyResult(ok=False, height=0, reason="genesis declares no writers")
    ids = [w for w, _ in gen.writer_declarations]
    if len(set(ids)) != len(ids):
        return VerifyResult(ok=False, height=0, reason="duplicate writer declarations")
    for writer_id, key in gen.writer_declarations:
        if not writer_id:
            return VerifyResult(ok=False, height=0, reason="a declared writer id is empty")
        if len(key) != 32:
            return VerifyResult(ok=False, height=0,
                                reason=f"verification key for {writer_id!r} is not 32 bytes")
    return VerifyResult(ok=True)


@dataclass(frozen=True)
class _WriterCheck:
    """``check(payload, signature)``: whether ``signature`` is an Ed25519
    signature of ``payload`` under a declared writer's ``key``.

    With the writer's credential ``held`` by this process, a signature equal
    to a fresh one is valid, since Ed25519 signing is deterministic (RFC
    8032, 5.1.6) and a sign costs about a third of a verify; for the payload
    the credential signed last, as when an append checks the record
    ``make_record`` just made, the fresh signature is the kept one
    (``WriterCredential.sign``) and the check is a bytes comparison. Any
    other signature (made with another nonce, or bad) is verified, so the
    decision is the one ``verify_edwards`` makes."""

    key: bytes
    held: Optional[WriterCredential] = None

    def __call__(self, payload: bytes, signature: bytes) -> bool:
        held = self.held
        return ((held is not None and signature == held.sign(payload))
                or verify_edwards(self.key, payload, signature))


def _writer_checks(declarations: Iterable[Tuple[str, bytes]],
                   held: Iterable[WriterCredential]) -> Dict[str, _WriterCheck]:
    """Declared writer id -> its ``_WriterCheck``, each of the ``held``
    credentials held (``_hold``)."""
    checks = {writer_id: _WriterCheck(key) for writer_id, key in declarations}
    for credential in held:
        _hold(checks, credential)
    return checks


def _hold(checks: Dict[str, _WriterCheck], credential: WriterCredential) -> None:
    """Make the check of ``credential``'s writer in ``checks`` re-sign with
    ``credential``, unless it does already, deriving the credential's key
    once. Raises ``WriterNotAuthorizedError`` for a credential whose key is
    not the one declared for its id."""
    check = checks.get(credential.writer_id)
    if check is not None and check.held is credential:
        return
    if check is None or check.key != credential.verification_key:
        raise WriterNotAuthorizedError(f"writer {credential.writer_id!r} does not "
                                       "match the chain's genesis declaration")
    checks[credential.writer_id] = _WriterCheck(check.key, credential)


def _check_block(blk: Block, height: int, prev_hash: bytes, checks: Mapping[str, _WriterCheck],
                 writer_signature: bool, payloads: Sequence[bytes]) -> VerifyResult:
    """The block rule: whether ``blk`` may follow a block at ``height - 1``
    whose hash is ``prev_hash``, its writer signature checked or not;
    ``payloads`` are its records' signed payloads."""
    if blk.height != height:
        return VerifyResult(ok=False, height=blk.height, reason="height out of sequence")
    if blk.writer_declarations:
        return VerifyResult(ok=False, height=height, reason="writer declarations outside genesis")
    if blk.prev_hash != prev_hash:
        return VerifyResult(ok=False, height=height, reason="broken hash link")
    if (check := checks.get(blk.writer_id)) is None:
        return VerifyResult(
            ok=False, height=height, reason=f"writer {blk.writer_id!r} not in permissioned set"
        )
    if writer_signature and not check(blk.signature_payload(), blk.writer_signature):
        return VerifyResult(ok=False, height=height, reason="bad writer signature")
    for rec, payload in zip(blk.records, payloads):
        issuer = checks.get(rec.issuer_id)
        if issuer is None or not (rec.shape_ok() and issuer(payload, rec.issuer_signature)):
            return VerifyResult(
                ok=False, height=height, reason=f"bad record signature for {rec.user_id!r}"
            )
    return VerifyResult(ok=True)


def _check_blocks(hashed: Iterable[Tuple[Block, bytes]], every_writer_signature: bool,
                  held: Iterable[WriterCredential],
                  ) -> Tuple[Dict[str, _WriterCheck], Block, bytes, VerifyResult]:
    """The writer checks of the genesis block of ``hashed`` (each block with
    its own hash), the last block and its hash, and the first failed check.
    Each writer signature is checked, or only the head's; a signature under
    a ``held`` credential's key is checked by re-signing."""
    hashed = iter(hashed)
    gen, prev_hash = next(hashed)
    head, result = gen, _check_genesis(gen)
    try:
        checks = _writer_checks(gen.writer_declarations, held)
    except WriterNotAuthorizedError as e:
        checks, result = {}, result and VerifyResult(ok=False, height=0, reason=str(e))
    # walk block by block so a mutated block is attributed to its own height:
    # its writer signature (covering the records hash) breaks there, before
    # the next block's dangling prev_hash is ever consulted
    for blk, block_hash in hashed:
        if result:
            result = _check_block(blk, head.height + 1, prev_hash, checks, every_writer_signature,
                                  [rec.signed_payload() for rec in blk.records])
        head, prev_hash = blk, block_hash
    if (result and head is not gen and not every_writer_signature
            and not checks[head.writer_id](head.signature_payload(), head.writer_signature)):
        result = VerifyResult(ok=False, height=head.height, reason="bad writer signature")
    return checks, head, prev_hash, result


def verify_chain(state: ChainState) -> VerifyResult:
    """Full re-verification: links, writer membership, every signature; what
    ``chainchat chain verify`` runs. Start-up runs ``ChainNode.open``."""
    if not state.blocks:
        return VerifyResult(ok=False, reason="chain has no blocks")
    return _check_blocks(((blk, blk.block_hash()) for blk in state.blocks), True, ())[3]


def revoke(state: ChainState, credential: WriterCredential, user_id: str,
           timestamp: Optional[int] = None) -> ChainState:
    """Append a revocation marker ("dummy certificate") for the user."""
    ts = _now() if timestamp is None else timestamp
    return append_block(state, credential, [_marker(state, credential, user_id, ts)],
                        timestamp=ts)


def _marker(state: Union[ChainState, ChainNode], credential: WriterCredential,
            user_id: str, ts: int) -> CertificateRecord:
    """The revocation marker of ``user_id`` at ``ts``; raises
    ``RevocationError`` if ``state`` holds no record for the user."""
    if state.newest(user_id) is None:
        raise RevocationError(f"no certificate on chain for {user_id!r}")
    return credential.make_record(
        user_id=user_id,
        subject_public_key=ZERO_KEY,
        issued_at=ts,
        expires_at=ts,
        kind=KIND_REVOCATION,
    )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def chain_to_bytes(state: ChainState) -> bytes:
    return b"".join(encode_bytes(block.canonical_bytes()) for block in state.blocks)


def chain_from_bytes(data: bytes) -> ChainState:
    """The chain in ``data``, which holds no torn final frame."""
    f = io.BytesIO(data)
    state = ChainState(blocks=tuple(read_frames(f, Block.from_bytes)))
    if f.tell() < len(data):
        raise TruncatedDataError(f"torn final frame at offset {f.tell()}")
    return state


def save_chain(state: ChainState, path: str) -> None:
    """Atomic whole-file write; used for genesis."""
    write_atomic(path, chain_to_bytes(state))


def load_chain(path: str) -> ChainState:
    """The chain in the file at ``path``, read one frame at a time as
    ``ChainNode.open`` reads it: a torn final frame is left out, but not
    cut from the file."""
    with open(path, "rb") as f:
        return ChainState(blocks=tuple(read_frames(f, Block.from_bytes)))


# ---------------------------------------------------------------------------
# node: serialized appends, each published in one short step
# ---------------------------------------------------------------------------

class ChainNode:
    """The running chain: the table of writer checks its genesis declares,
    the head block and its hash, one map from user id to that user's newest
    record, and its chain file, open; no block list and no older record, so
    it holds one record per user.

    ``newest`` is one dict read. ``newest_of`` reads several users under the
    publish lock, so no commit lands inside it. Appends are serialized under
    the append lock; each checks its block against the head by the block
    rule and writes it as one frame of the chain file (when the node has
    one), and only then, under the publish lock, moves the head and writes
    the block's records into the map. So a failed append leaves the node as
    it was, and an append costs O(records in the block), whatever the
    height. The first append with a credential makes that writer's check
    re-sign with it (``_hold``); later ones reuse the check. ``close``
    closes the file."""

    def __init__(self, state: ChainState, path: Optional[str] = None):
        head = state.blocks[-1]
        self._start(_writer_checks(state.blocks[0].writer_declarations, ()), head,
                    head.block_hash(), dict(state.latest), path)

    def _start(self, checks: Dict[str, _WriterCheck], head: Block, head_hash: bytes,
               latest: Dict[str, CertificateRecord], path: Optional[str]) -> None:
        self._checks = checks  # the writer set: written under _lock
        self.head, self._head_hash = head, head_hash
        self._latest = latest
        self._file = None if path is None else open(path, "ab", buffering=0)
        self._lock = threading.Lock()  # held by a commit from start to publish
        self._publish_lock = threading.Lock()  # held to publish, and by newest_of

    @classmethod
    def create(cls, writer_set: Sequence[Tuple[str, bytes]],
               path: Optional[str] = None) -> "ChainNode":
        state = genesis(writer_set)
        if path is not None:
            save_chain(state, path)
        return cls(state, path=path)

    @classmethod
    def open(cls, path: str, credentials: Iterable[WriterCredential] = ()) -> "ChainNode":
        """The one opener of a chain file, the stack's start-up check.

        Reads the file once, one frame at a time (``store.read_frames``), and in
        the same pass parses and hashes each frame, makes every check of
        ``verify_chain``, every record signature included since
        ``fetch_cert`` serves records as stored, but checks only the head's
        writer signature: that covers the head's ``prev_hash``, the SHA-256
        of the previous frame's bytes, which covers every earlier byte. The
        writer seeds sit in ``stack.json`` beside the chain, so this guards
        against corruption only, and a corrupted byte breaks a link or a
        signature (FORMATS.md). Each of ``credentials`` (the writers this
        process holds) must match its genesis declaration, and a signature
        under its key is checked by re-signing. Raises ``ChainFormatError``
        if the file does not parse and ``ChainError`` if a check fails,
        leaving the file as it was; only a file that passes loses its torn
        final frame, if any. Of each block, only its records, in the map,
        and the head outlive the pass, and the node keeps the pass's writer
        checks.
        """
        latest: Dict[str, CertificateRecord] = {}

        def parse(frame: bytes) -> Tuple[Block, bytes]:
            blk = Block.from_bytes(frame)
            for rec in blk.records:
                latest[rec.user_id] = rec
            return blk, sha256(frame)

        with open(path, "r+b") as f:
            checks, head, head_hash, result = _check_blocks(
                read_frames(f, parse), False, credentials)
            if not result:
                raise ChainError(f"verification fails at height {result.height}: "
                                 f"{result.reason}")
            cut_torn_tail(f)
        node = cls.__new__(cls)
        node._start(checks, head, head_hash, latest, path)
        return node

    def close(self) -> None:
        """Close the chain file; an append after it raises. A second call
        does nothing."""
        with self._lock:
            if self._file is not None:
                self._file.close()

    @property
    def height(self) -> int:
        return self.head.height

    def newest(self, user_id: str) -> Optional[CertificateRecord]:
        return self._latest.get(user_id)

    def newest_of(self, *user_ids: str) -> List[Optional[CertificateRecord]]:
        """Each user's newest record, read in one step between two commits."""
        latest = self._latest
        with self._publish_lock:
            return [latest.get(user_id) for user_id in user_ids]

    def append(self, credential: WriterCredential,
               records: Sequence[CertificateRecord],
               timestamp: Optional[int] = None) -> Block:
        with self._lock:
            return self._commit(credential, records, timestamp)

    def revoke(self, credential: WriterCredential, user_id: str,
               timestamp: Optional[int] = None) -> Block:
        """Append a revocation marker for the user. Unlike ``chain.revoke``,
        a user whose newest record is a marker already is refused
        (``RevocationError``): another would change no state, only grow the
        chain. Checked under the append lock, so of two revokes of one user
        the second sees the first's marker."""
        ts = _now() if timestamp is None else timestamp
        with self._lock:
            rec = self.newest(user_id)
            if rec is not None and rec.kind == KIND_REVOCATION:
                raise RevocationError(f"{user_id!r} is already revoked")
            return self._commit(credential, [_marker(self, credential, user_id, ts)], ts)

    def _commit(self, credential: WriterCredential,
                records: Sequence[CertificateRecord], timestamp: Optional[int]) -> Block:
        """Append the block of ``records``; the caller holds ``_lock``."""
        _hold(self._checks, credential)
        block, frame = _next_block(self._checks, self.head, self._head_hash,
                                   credential, records, timestamp)
        if self._file is not None:
            append_frame(self._file, frame)
        head_hash = sha256(frame)
        with self._publish_lock:
            self.head, self._head_hash = block, head_hash
            for rec in block.records:
                self._latest[rec.user_id] = rec
        return block
