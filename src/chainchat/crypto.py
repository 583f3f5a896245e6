"""Cryptographic core: identity keys, key agreement, ratchet, sealing.

All operations here are pure functions of their inputs (the only exception is
key generation, which consumes entropy). Values are immutable after
construction; advancing ratchet state is the caller's job.

Key schedule, fixed for interoperability:

  master          = X25519(own_private, peer_public)
  chain[dir]      = HKDF-SHA256(ikm=master, salt=0^32,
                                info="chain|<lo>|<hi>|A→B" or "...|B→A")
  mk material     = HKDF-SHA256(ikm=HMAC-SHA256(ck, 0x01), salt=0^32,
                                info="msg", len=80) -> cipher(32)|mac(32)|iv(16)
  next chain key  = HMAC-SHA256(ck, 0x02)
  sealing         = AES-256-CBC over PKCS#7-padded plaintext,
                    then HMAC-SHA256(mac_key, associated_data || ciphertext)
  backup key      = PBKDF2-HMAC-SHA256(secret, salt, iterations)

The "<lo>|<hi>" pair is the byte-wise ordering of the two user ids, which
fixes chain directionality without a handshake: whoever's id sorts first owns
the A→B chain as their send direction.

An identity pair holds its library private key, built once: each build from
the 32 private bytes is a full scalar multiplication, as costly as the
agreement it serves. ``generate_identity_keypair`` keeps the key object it
makes to get the public key; a pair rebuilt from bytes builds it on first use.

Every primitive comes from ``cryptography``, and this module is the one
that binds them; the chain, the proof of possession and the bench call the
functions here. SHA-256 is ``hashes.Hash``, HMAC-SHA256 ``hmac.HMAC``, the
backup key ``PBKDF2HMAC``, beside ``HKDF``, ``X25519`` and ``AES``. Every MAC
check is the library's constant-time ``HMAC.verify``. No chainchat module
imports the stdlib ``hashlib`` or ``hmac``: those link the system OpenSSL, a
second copy in memory beside the one built into ``cryptography``.

Every seal and unseal builds a cipher context, so the cipher classes are
bound by name once, at import. ``cryptography`` serves its ``algorithms`` and
``modes`` modules through a deprecation proxy, on which each attribute read
first fails the normal lookup and is then forwarded, a few microseconds per
read; the SHA-256 descriptor that HKDF and HMAC take is likewise built once,
and each digest copies one empty hash context, which skips the algorithm
lookup that a new context makes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Tuple

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.algorithms import AES
from cryptography.hazmat.primitives.ciphers.modes import CBC
from cryptography.hazmat.primitives.hashes import SHA256, Hash
from cryptography.hazmat.primitives.hmac import HMAC
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives.kdf.pbkdf2 import PBKDF2HMAC

from .errors import (
    AuthenticationError,
    KeyAgreementError,
    KeyGenerationError,
    MessageTooLargeError,
    PayloadCorruptionError,
)

ZERO_SALT = b"\x00" * 32
MAX_PLAINTEXT = 1 << 20  # 1 MiB sealing cap
BACKUP_ITERATIONS = 210_000  # the PBKDF2 count of every backup export

_MSG_KEY_INFO = b"msg"
_BACKUP_KEY_INFO = b"backup"
_MSG_KEY_LEN = 80  # 32 cipher + 32 mac + 16 iv
_SHA256 = SHA256()  # stateless descriptor, shared by every HKDF, HMAC and PBKDF2 call
_SHA256_EMPTY = Hash(_SHA256)  # never updated: each digest starts from a copy

Rng = Callable[[int], bytes]


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityKeyPair:
    """Long-term Curve25519 identity pair; the public half goes on the chain."""

    private_key: bytes  # 32-byte clamped scalar
    public_key: bytes   # 32-byte curve point

    @cached_property
    def library_key(self) -> X25519PrivateKey:
        """The library key object of ``private_key``, built on first use and
        kept; no field, so equality, ``replace`` and every encoding of the
        pair see the bytes alone."""
        if len(self.private_key) != 32:
            raise KeyAgreementError("private scalar must be 32 bytes")
        return X25519PrivateKey.from_private_bytes(self.private_key)


@dataclass(frozen=True)
class MasterSecret:
    bytes_: bytes  # 32-byte shared secret, symmetric between the two parties


@dataclass(frozen=True)
class ChainKey:
    key: bytes
    index: int


@dataclass(frozen=True)
class MessageKey:
    cipher_key: bytes  # AES-256
    mac_key: bytes     # HMAC-SHA256
    iv: bytes          # CBC IV, derived with the key so sealing is deterministic
    index: int


@dataclass(frozen=True)
class SealedPayload:
    ciphertext: bytes  # PKCS#7-padded CBC output, positive multiple of 16
    mac: bytes         # HMAC-SHA256 over associated_data || ciphertext


@dataclass(frozen=True)
class BackupKey:
    key: bytes
    salt: bytes
    iterations: int


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def hkdf_sha256(ikm: bytes, salt: bytes, info: bytes, length: int) -> bytes:
    """RFC 5869 extract-then-expand with SHA-256."""
    return HKDF(_SHA256, length, salt, info).derive(ikm)


def sha256(data: bytes) -> bytes:
    """SHA-256 of ``data``."""
    digest = _SHA256_EMPTY.copy()
    digest.update(data)
    return digest.finalize()


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """RFC 2104 HMAC-SHA256 of ``data`` under ``key``."""
    mac = HMAC(key, _SHA256)
    mac.update(data)
    return mac.finalize()


def hmac_sha256_verify(key: bytes, data: bytes, tag: bytes) -> bool:
    """True iff ``tag`` is ``hmac_sha256(key, data)``, by the library's
    constant-time compare."""
    mac = HMAC(key, _SHA256)
    mac.update(data)
    try:
        mac.verify(tag)
    except InvalidSignature:
        return False
    return True


def clamp_scalar(raw: bytes) -> bytes:
    s = bytearray(raw)
    s[0] &= 248
    s[31] &= 127
    s[31] |= 64
    return bytes(s)


def _pkcs7_pad(data: bytes) -> bytes:
    pad = 16 - (len(data) % 16)
    return data + bytes([pad]) * pad


def _pkcs7_unpad(data: bytes) -> bytes:
    if not data or len(data) % 16:
        raise PayloadCorruptionError("bad block length")
    pad = data[-1]
    if pad < 1 or pad > 16 or data[-pad:] != bytes([pad]) * pad:
        raise PayloadCorruptionError("bad padding")
    return data[:-pad]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def generate_identity_keypair(rng: Rng = os.urandom) -> IdentityKeyPair:
    """Generate a Curve25519 identity pair from 32 bytes of entropy."""
    try:
        raw = rng(32)
    except Exception as e:
        raise KeyGenerationError(f"entropy source failed: {e}") from e
    if not isinstance(raw, (bytes, bytearray)) or len(raw) < 32:
        raise KeyGenerationError("entropy source yielded fewer than 32 bytes")
    private = clamp_scalar(bytes(raw[:32]))
    key = X25519PrivateKey.from_private_bytes(private)
    pair = IdentityKeyPair(private_key=private, public_key=key.public_key().public_bytes_raw())
    pair.__dict__["library_key"] = key  # the cached property's slot: no second build
    return pair


def derive_master_secret(own: IdentityKeyPair, peer_public: bytes) -> MasterSecret:
    """X25519 agreement; rejects low-order peer points (all-zero output)."""
    if len(peer_public) != 32:
        raise KeyAgreementError("peer public key must be 32 bytes")
    try:
        shared = own.library_key.exchange(X25519PublicKey.from_public_bytes(peer_public))
    except ValueError as e:
        raise KeyAgreementError(f"key agreement rejected: {e}") from e
    if shared == b"\x00" * 32:
        raise KeyAgreementError("key agreement produced an all-zero secret")
    return MasterSecret(bytes_=shared)


def init_chains(master: MasterSecret, own_id: str, peer_id: str) -> Tuple[ChainKey, ChainKey]:
    """Derive the two root chain keys; returns (send, receive) for own_id.

    Both parties call this with their own id first and get mirrored results:
    one party's send chain is byte-identical to the other's receive chain.
    """
    if own_id == peer_id:
        raise ValueError("chain endpoints must be distinct user ids")
    lo, hi = sorted((own_id, peer_id))  # forward is lo->hi, backward hi->lo
    forward = hkdf_sha256(master.bytes_, ZERO_SALT, f"chain|{lo}|{hi}|A→B".encode("utf-8"), 32)
    backward = hkdf_sha256(master.bytes_, ZERO_SALT, f"chain|{lo}|{hi}|B→A".encode("utf-8"), 32)
    send_key, recv_key = (forward, backward) if own_id == lo else (backward, forward)
    return ChainKey(key=send_key, index=0), ChainKey(key=recv_key, index=0)


def ratchet_forward(ck: ChainKey) -> Tuple[MessageKey, ChainKey]:
    """One ratchet step: emit the message key at ck.index, advance the chain.

    The step is one-way: the next chain key is an HMAC image of the current
    one, so holding state at index i+1 gives no path back to the keys at i.
    Every envelope takes a step, so it calls the library with no helper between
    and writes out the cipher 32 | mac 32 | iv 16 split, which the cold
    ``backup_message_key`` writes once more.
    """
    mac = HMAC(ck.key, _SHA256)
    mac.update(b"\x01")
    okm = HKDF(_SHA256, _MSG_KEY_LEN, ZERO_SALT, _MSG_KEY_INFO).derive(mac.finalize())
    mac = HMAC(ck.key, _SHA256)
    mac.update(b"\x02")
    return (MessageKey(okm[:32], okm[32:64], okm[64:80], ck.index),
            ChainKey(mac.finalize(), ck.index + 1))


def cbc_encrypt(mk: MessageKey, plaintext: bytes) -> bytes:
    """The cipher step of ``seal``: AES-256-CBC over PKCS#7-padded plaintext."""
    encryptor = Cipher(AES(mk.cipher_key), CBC(mk.iv)).encryptor()
    return encryptor.update(_pkcs7_pad(plaintext)) + encryptor.finalize()


def mac_tag(mk: MessageKey, associated_data: bytes, ciphertext: bytes) -> bytes:
    """The MAC step of ``seal``: HMAC-SHA256 over AD || ciphertext."""
    return hmac_sha256(mk.mac_key, associated_data + ciphertext)


def mac_verify(mk: MessageKey, payload: SealedPayload, associated_data: bytes) -> None:
    """The MAC step of ``unseal``: constant-time check of the tag."""
    if not hmac_sha256_verify(mk.mac_key, associated_data + payload.ciphertext, payload.mac):
        raise AuthenticationError("mac mismatch")


def cbc_decrypt(mk: MessageKey, ciphertext: bytes) -> bytes:
    """The cipher step of ``unseal``: AES-256-CBC decryption and unpadding."""
    if not ciphertext or len(ciphertext) % 16:
        raise PayloadCorruptionError("bad ciphertext length")
    decryptor = Cipher(AES(mk.cipher_key), CBC(mk.iv)).decryptor()
    return _pkcs7_unpad(decryptor.update(ciphertext) + decryptor.finalize())


def seal(mk: MessageKey, plaintext: bytes, associated_data: bytes,
         max_plaintext: int = MAX_PLAINTEXT) -> SealedPayload:
    """Encrypt-then-MAC: ``cbc_encrypt``, then ``mac_tag``."""
    if len(plaintext) > max_plaintext:
        raise MessageTooLargeError(
            f"plaintext of {len(plaintext)} bytes exceeds cap of {max_plaintext}"
        )
    ciphertext = cbc_encrypt(mk, plaintext)
    return SealedPayload(ciphertext=ciphertext,
                         mac=mac_tag(mk, associated_data, ciphertext))


def unseal(mk: MessageKey, payload: SealedPayload, associated_data: bytes) -> bytes:
    """``mac_verify`` first; ``cbc_decrypt`` never runs on a bad MAC."""
    mac_verify(mk, payload, associated_data)
    return cbc_decrypt(mk, payload.ciphertext)


def derive_backup_key(secret: str, salt: bytes, iterations: int = BACKUP_ITERATIONS) -> BackupKey:
    """Password-derived archive key, PBKDF2-HMAC-SHA256 (RFC 8018 semantics).

    The count is no choice: an export uses ``BACKUP_ITERATIONS``, and a
    restore reads the count from the archive header, which the archive's MAC
    covers as associated data, so a changed count fails the MAC and the
    archive does not open. Since the MAC is checked only after the
    derivation, ``BackupArchive`` refuses a count outside 1 to
    ``BACKUP_MAX_ITERATIONS`` before one runs.
    """
    if not secret:
        raise ValueError("backup secret must be non-empty")
    if len(salt) != 16:
        raise ValueError("backup salt must be 16 bytes")
    if not 0 < iterations < (1 << 31):  # past 2^31 - 1 the library panics, not raises
        raise ValueError(f"iteration count {iterations} outside 1 to 2^31 - 1")
    key = PBKDF2HMAC(_SHA256, 32, salt, iterations).derive(secret.encode("utf-8"))
    return BackupKey(key=key, salt=salt, iterations=iterations)


def backup_message_key(secret: str, salt: bytes, iterations: int) -> MessageKey:
    """The sealing material of a backup archive: the password key of
    ``derive_backup_key``, expanded into the cipher/mac/iv layout of a
    ratchet message key, at index 0."""
    okm = hkdf_sha256(derive_backup_key(secret, salt, iterations).key, ZERO_SALT,
                      _BACKUP_KEY_INFO, _MSG_KEY_LEN)
    return MessageKey(cipher_key=okm[:32], mac_key=okm[32:64], iv=okm[64:80], index=0)
