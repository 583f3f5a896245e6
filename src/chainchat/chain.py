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

States are immutable snapshots. Each carries a map from user id to that
user's newest record, so the lookup is one dict read whatever the height;
an append copies its predecessor's map and overwrites the users in the new
block. Status is still decided at lookup time from the record's kind and
expiry. ``ChainNode`` wraps a snapshot with a write lock and optional file
persistence for concurrent use: each append adds one frame to the chain file.
"""

from __future__ import annotations

import os
import struct
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType
from typing import (
    BinaryIO, Callable, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple)

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .crypto import sha256
from .encoding import LENGTH_PREFIX, Reader, encode_bytes, encode_str, encode_u64
from .errors import (
    ChainError,
    ChainFormatError,
    RecordValidationError,
    RevocationError,
    TruncatedDataError,
    WriterNotAuthorizedError,
)

KIND_CERTIFICATE = "certificate"
KIND_REVOCATION = "revocation"

VALID = "valid"
REVOKED = "revoked"
NOT_FOUND = "not_found"
EXPIRED = "expired"

ZERO_HASH = b"\x00" * 32
ZERO_KEY = b"\x00" * 32
ZERO_SIGNATURE = b"\x00" * 64

SignatureCheck = Callable[[bytes, bytes], bool]  # (payload, signature) -> valid


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
        return (
            encode_str(self.user_id)
            + encode_bytes(self.subject_public_key)
            + encode_str(self.issuer_id)
            + encode_u64(self.issued_at)
            + encode_u64(self.expires_at)
            + encode_str(self.kind)
        )

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
        unsigned = CertificateRecord(
            user_id=user_id,
            subject_public_key=subject_public_key,
            issuer_id=self.writer_id,
            issued_at=issued_at,
            expires_at=expires_at,
            kind=kind,
            issuer_signature=ZERO_SIGNATURE,
        )
        return replace(unsigned, issuer_signature=self.sign(unsigned.signed_payload()))


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

    def records_hash(self) -> bytes:
        return sha256(b"".join(encode_bytes(rec.canonical_bytes()) for rec in self.records))

    def signature_payload(self) -> bytes:
        return (
            struct.pack(">Q", self.height)
            + self.prev_hash
            + self.records_hash()
            + struct.pack(">Q", self.timestamp)
        )

    def canonical_bytes(self) -> bytes:
        out = encode_u64(self.height) + encode_bytes(self.prev_hash)
        out += encode_u64(len(self.records))
        for rec in self.records:
            out += encode_bytes(rec.canonical_bytes())
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
    blocks: Tuple[Block, ...]
    # user id -> that user's newest record; built from ``blocks`` when omitted
    latest: Optional[Mapping[str, CertificateRecord]] = field(
        default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.latest is None:
            latest = {rec.user_id: rec for block in self.blocks for rec in block.records}
            object.__setattr__(self, "latest", MappingProxyType(latest))

    @property
    def height(self) -> int:
        return self.blocks[-1].height


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
    checks = _writer_checks(state.blocks[0].writer_declarations, (credential,))
    prev = state.blocks[-1]
    block = Block(
        height=prev.height + 1,
        prev_hash=prev.block_hash(),
        records=tuple(records),
        timestamp=_now() if timestamp is None else timestamp,
        writer_id=credential.writer_id,
        writer_signature=ZERO_SIGNATURE,
    )
    if not (result := _check_block(block, block.height, block.prev_hash, checks, False)):
        raise RecordValidationError(result.reason)
    signed = replace(block, writer_signature=credential.sign(block.signature_payload()))
    latest = state.latest.copy()
    latest.update((rec.user_id, rec) for rec in signed.records)
    return ChainState(blocks=state.blocks + (signed,), latest=MappingProxyType(latest))


def status_of(rec: Optional[CertificateRecord], now: int) -> str:
    """The latest-wins rule: the state at ``now`` of a user whose newest
    record is ``rec`` (None for a user with no record). A hot caller asks
    it of ``ChainState.latest`` directly and builds no ``CertStatus``."""
    if rec is None:
        return NOT_FOUND
    if rec.kind == KIND_REVOCATION:
        return REVOKED
    if rec.expires_at <= now:
        return EXPIRED
    return VALID


def fetch_latest(state: ChainState, user_id: str, now: Optional[int] = None) -> CertStatus:
    """Latest-wins lookup: the newest record for the user decides the status
    (``status_of``); the record rides along unless it is a revocation."""
    rec = state.latest.get(user_id)
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


def _writer_checks(declarations: Iterable[Tuple[str, bytes]],
                   held: Iterable[WriterCredential]) -> Dict[str, SignatureCheck]:
    """Declared writer id -> ``check(payload, signature)``, whether
    ``signature`` is an Ed25519 signature of ``payload`` under that writer's
    declared key. For a writer whose credential is ``held`` by this process,
    a signature equal to a fresh one is valid, since Ed25519 signing is
    deterministic (RFC 8032, 5.1.6) and a sign costs about a third of a
    verify; for the payload the credential signed last, as when
    ``append_block`` checks the record ``make_record`` just made, the fresh
    signature is the kept one (``WriterCredential.sign``) and the check is a
    bytes comparison. Any other signature (made with another nonce, or bad)
    is verified, so the decision is the one ``verify_edwards`` makes. Raises
    ``WriterNotAuthorizedError`` for a held credential whose key is not the
    one declared for its id."""
    declared = dict(declarations)
    held_by_id = {}
    for credential in held:
        if declared.get(credential.writer_id) != credential.verification_key:
            raise WriterNotAuthorizedError(f"writer {credential.writer_id!r} does not "
                                           "match the chain's genesis declaration")
        held_by_id[credential.writer_id] = credential

    def check(key: bytes, credential: Optional[WriterCredential]) -> SignatureCheck:
        if credential is None:
            return lambda payload, signature: verify_edwards(key, payload, signature)
        return lambda payload, signature: (
            signature == credential.sign(payload) or verify_edwards(key, payload, signature))

    return {writer_id: check(key, held_by_id.get(writer_id))
            for writer_id, key in declared.items()}


def _check_block(blk: Block, height: int, prev_hash: bytes,
                 checks: Mapping[str, SignatureCheck], writer_signature: bool) -> VerifyResult:
    """The block rule: whether ``blk`` may follow a block at ``height - 1``
    whose hash is ``prev_hash``, its writer signature checked or not."""
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
    for rec in blk.records:
        issuer = checks.get(rec.issuer_id)
        if issuer is None or not (
                rec.shape_ok() and issuer(rec.signed_payload(), rec.issuer_signature)):
            return VerifyResult(
                ok=False, height=height, reason=f"bad record signature for {rec.user_id!r}"
            )
    return VerifyResult(ok=True)


def _check_blocks(hashed: Iterable[Tuple[Block, bytes]], every_writer_signature: bool,
                  held: Iterable[WriterCredential],
                  ) -> Tuple[Tuple[Block, ...], VerifyResult]:
    """Every block of ``hashed`` (each with its own hash), and the first
    failed check. Each writer signature is checked, or only the head's;
    a signature under a ``held`` credential's key is checked by re-signing."""
    hashed = iter(hashed)
    gen, prev_hash = next(hashed)
    blocks, result = [gen], _check_genesis(gen)
    try:
        checks = _writer_checks(gen.writer_declarations, held)
    except WriterNotAuthorizedError as e:
        result = result and VerifyResult(ok=False, height=0, reason=str(e))
    # walk block by block so a mutated block is attributed to its own height:
    # its writer signature (covering the records hash) breaks there, before
    # the next block's dangling prev_hash is ever consulted
    for blk, block_hash in hashed:
        if result:
            result = _check_block(blk, len(blocks), prev_hash, checks, every_writer_signature)
        prev_hash = block_hash
        blocks.append(blk)
    head = blocks[-1]
    if (result and len(blocks) > 1 and not every_writer_signature
            and not checks[head.writer_id](head.signature_payload(), head.writer_signature)):
        result = VerifyResult(ok=False, height=head.height, reason="bad writer signature")
    return tuple(blocks), result


def verify_chain(state: ChainState) -> VerifyResult:
    """Full re-verification: links, writer membership, every signature; what
    ``chainchat chain verify`` runs. Start-up runs ``ChainNode.open``."""
    if not state.blocks:
        return VerifyResult(ok=False, reason="chain has no blocks")
    return _check_blocks(((blk, blk.block_hash()) for blk in state.blocks), True, ())[1]


def revoke(state: ChainState, credential: WriterCredential, user_id: str,
           timestamp: Optional[int] = None) -> ChainState:
    """Append a revocation marker ("dummy certificate") for the user."""
    ts = _now() if timestamp is None else timestamp
    if fetch_latest(state, user_id, now=ts).state == NOT_FOUND:
        raise RevocationError(f"no certificate on chain for {user_id!r}")
    marker = credential.make_record(
        user_id=user_id,
        subject_public_key=ZERO_KEY,
        issued_at=ts,
        expires_at=ts,
        kind=KIND_REVOCATION,
    )
    return append_block(state, credential, [marker], timestamp=ts)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def chain_to_bytes(state: ChainState) -> bytes:
    return b"".join(encode_bytes(block.canonical_bytes()) for block in state.blocks)


def _frames(data: bytes) -> Iterator[bytes]:
    """The block encodings framed in a chain file's bytes, in order."""
    if not data:
        raise ChainFormatError("empty chain data")
    r = Reader(data, what="chain file")
    while not r.exhausted:
        yield r.read_bytes()


def chain_from_bytes(data: bytes) -> ChainState:
    return ChainState(blocks=tuple(Block.from_bytes(frame) for frame in _frames(data)))


def write_atomic(path: str | os.PathLike, data: bytes) -> None:
    """Replace the file at ``path`` with ``data``: write a temporary file,
    fsync it, rename it over, fsync the directory. A crash leaves the old
    file or the new one, never a mix; a write that fails before the rename
    leaves the old one. The rename is durable only once the directory entry
    is (fsync(2)), so a returned call is not undone by a power loss."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def save_chain(state: ChainState, path: str) -> None:
    """Atomic whole-file write; used for genesis."""
    write_atomic(path, chain_to_bytes(state))


def load_chain(path: str) -> ChainState:
    """The chain in the file at ``path``, read one frame at a time as
    ``ChainNode.open`` reads it: a torn final frame is left out, but not
    cut from the file."""
    with open(path, "rb") as f:
        return ChainState(blocks=tuple(Block.from_bytes(frame) for frame in _file_frames(f)))


def _file_frames(f: BinaryIO) -> Iterator[bytes]:
    """The block encodings framed in the chain file open as ``f``, read one
    frame at a time, so the file's bytes are never held whole.

    A final frame that an interrupted append left shorter than its length
    prefix (or a partial prefix) is the start of a block encoding, so its
    parse runs out of data: it is left out, and ``f`` is left at its start.
    A final frame whose body is a whole block, or a block followed by more
    bytes, is a corrupted length instead, and it refuses the file.
    """
    size, end = os.fstat(f.fileno()).st_size, 0  # end: of the last whole frame
    while head := f.read(4):
        # a partial prefix is a frame longer than the file; ``read(n)`` sets
        # n bytes aside first, so a corrupted length reads at most the file
        length = LENGTH_PREFIX.unpack(head)[0] if len(head) == 4 else size
        frame = f.read(min(length, size))
        if len(frame) < length:
            try:
                Block.from_bytes(frame)
            except TruncatedDataError:
                f.seek(end)
                break
            raise ChainFormatError(f"truncated chain file at offset {end + 4}")
        end += 4 + length
        yield frame
    if not end:
        raise ChainFormatError("empty chain data")


def _append_frame(path: str, block: Block) -> None:
    """Append one block frame and fsync; on failure cut the file back."""
    frame = encode_bytes(block.canonical_bytes())
    with open(path, "ab", buffering=0) as f:
        size = os.fstat(f.fileno()).st_size
        try:
            if f.write(frame) != len(frame):
                raise OSError(f"short write to {path}")
            os.fsync(f.fileno())
        except BaseException:
            os.ftruncate(f.fileno(), size)
            raise


# ---------------------------------------------------------------------------
# node: serialized appends over immutable snapshots
# ---------------------------------------------------------------------------

class ChainNode:
    """Single-writer-gate wrapper: reads are lock-free snapshot reads,
    mutations are serialized and (optionally) appended to the chain file
    before the new snapshot is published."""

    def __init__(self, state: ChainState, path: Optional[str] = None):
        self._state = state
        self._path = path
        self._lock = threading.Lock()

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

        Reads the file once, one frame at a time (``_file_frames``), and in
        the same pass parses and hashes each frame and makes every check of
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
        final frame, if any.
        """
        with open(path, "r+b") as f:
            blocks, result = _check_blocks(
                ((Block.from_bytes(frame), sha256(frame)) for frame in _file_frames(f)),
                False, credentials)
            if not result:
                raise ChainError(f"verification fails at height {result.height}: "
                                 f"{result.reason}")
            if f.tell() < os.fstat(f.fileno()).st_size:  # left at a torn final frame
                f.truncate()
                os.fsync(f.fileno())
        return cls(ChainState(blocks=blocks), path=path)

    def snapshot(self) -> ChainState:
        return self._state

    def append(self, credential: WriterCredential,
               records: Sequence[CertificateRecord],
               timestamp: Optional[int] = None) -> ChainState:
        return self._commit(
            lambda state: append_block(state, credential, records, timestamp=timestamp))

    def revoke(self, credential: WriterCredential, user_id: str,
               timestamp: Optional[int] = None) -> ChainState:
        return self._commit(
            lambda state: revoke(state, credential, user_id, timestamp=timestamp))

    def _commit(self, extend: Callable[[ChainState], ChainState]) -> ChainState:
        with self._lock:
            new_state = extend(self._state)
            if self._path is not None:
                _append_frame(self._path, new_state.blocks[-1])
            self._state = new_state
            return new_state
