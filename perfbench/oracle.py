"""Checks made outside chainchat, from FORMATS.md alone.

Key agreement, signatures and AES come from ``cryptography``; HKDF, the
ratchet steps and every byte encoding are written here again with ``hmac``,
``hashlib`` and ``struct``, so a fault in chainchat's own versions shows as
a mismatch instead of being repeated. Every check returns a list of
problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

ZERO32 = bytes(32)
FRAME_TEXT = 0x00

Keys = Tuple[bytes, bytes, bytes]  # cipher key, mac key, iv


class CheckFailed(Exception):
    pass


# -- canonical encoding (FORMATS.md, "Canonical field encoding") -------------

def enc_bytes(value: bytes) -> bytes:
    return struct.pack(">I", len(value)) + value


def enc_str(value: str) -> bytes:
    return enc_bytes(value.encode("utf-8"))


def enc_u64(value: int) -> bytes:
    return enc_bytes(struct.pack(">Q", value))


# -- key schedule (FORMATS.md, "Key schedule constants") ---------------------

def _hmac(key: bytes, data: bytes) -> bytes:
    return hmac.new(key, data, hashlib.sha256).digest()


def hkdf(ikm: bytes, info: bytes, length: int) -> bytes:
    prk = _hmac(ZERO32, ikm)
    okm, block, counter = b"", b"", 1
    while len(okm) < length:
        block = _hmac(prk, block + info + bytes([counter]))
        okm += block
        counter += 1
    return okm[:length]


def message_keys(chain_key: bytes) -> Iterator[Keys]:
    """Message keys at index 0, 1, 2, ... of a chain."""
    while True:
        okm = hkdf(_hmac(chain_key, b"\x01"), b"msg", 80)
        yield okm[:32], okm[32:64], okm[64:80]
        chain_key = _hmac(chain_key, b"\x02")


def pair_root(sender_private: bytes, recipient_public: bytes,
              sender: str, recipient: str) -> bytes:
    """Root of the sender's send chain towards the recipient."""
    master = X25519PrivateKey.from_private_bytes(sender_private).exchange(
        X25519PublicKey.from_public_bytes(recipient_public))
    lo, hi = sorted((sender, recipient))
    arrow = "A→B" if sender == lo else "B→A"
    return hkdf(master, f"chain|{lo}|{hi}|{arrow}".encode("utf-8"), 32)


def group_root(group_key: bytes, group_id: str) -> bytes:
    return hkdf(group_key, f"group|{group_id}".encode("utf-8"), 32)


# -- envelopes -----------------------------------------------------------------

def associated_data(env) -> bytes:
    return (enc_str(env.sender_id) + enc_str(env.recipient_id) + enc_u64(env.counter)
            + enc_bytes(env.sender_cert_fingerprint) + enc_str(env.group_id or "")
            + enc_u64(env.sent_at))


def open_envelope(keys: Keys, env) -> str:
    """MAC check, AES-256-CBC decryption, padding and frame; the text."""
    cipher_key, mac_key, iv = keys
    ciphertext = env.payload.ciphertext
    if not hmac.compare_digest(_hmac(mac_key, associated_data(env) + ciphertext),
                               env.payload.mac):
        raise CheckFailed("MAC does not verify")
    decryptor = Cipher(algorithms.AES(cipher_key), modes.CBC(iv)).decryptor()
    padded = decryptor.update(ciphertext) + decryptor.finalize()
    pad = padded[-1]
    if not 1 <= pad <= 16 or padded[-pad:] != bytes([pad]) * pad:
        raise CheckFailed("bad padding")
    body = padded[:-pad]
    if body[:1] != bytes([FRAME_TEXT]):
        raise CheckFailed("not a text frame")
    return body[1:].decode("utf-8")


def check_stream(label: str, root: bytes, sent: Sequence[Tuple[object, str]],
                 used: Set[Tuple[bytes, bytes]]) -> List[str]:
    """Envelopes sent in order on one chain: each at the next counter, under
    the key derived here, decrypting to its text, with a (key, IV) pair that
    no other envelope of the run used."""
    problems = []
    for position, ((env, text), keys) in enumerate(zip(sent, message_keys(root))):
        where = f"{label} message {position}"
        if env.counter != position:
            problems.append(f"{where}: counter {env.counter}")
            continue
        try:
            if open_envelope(keys, env) != text:
                problems.append(f"{where}: decrypts to another text")
        except CheckFailed as e:
            problems.append(f"{where}: {e}")
        pair = (keys[0], keys[2])
        if pair in used:
            problems.append(f"{where}: cipher key and IV used before")
        used.add(pair)
    return problems


def check_texts(expected: Dict[str, List[Tuple[str, str]]],
                received: Dict[str, List[Tuple[str, str]]]) -> List[str]:
    """Each recipient got exactly the (sender, text) list sent to it, in order."""
    problems = []
    for user in sorted(set(expected) | set(received)):
        want, got = expected.get(user, []), received.get(user, [])
        if want == got:
            continue
        at = next((i for i, (w, g) in enumerate(zip(want, got)) if w != g),
                  min(len(want), len(got)))
        problems.append(f"{user}: received {len(got)} texts, expected {len(want)}; "
                        f"first difference at {at}")
    return problems


# -- chain file (FORMATS.md, "Block" and "Chain file") ------------------------

@dataclass(frozen=True)
class Record:
    user_id: str
    subject_public_key: bytes
    issuer_id: str
    issued_at: int
    expires_at: int
    kind: str
    signature: bytes

    def signed_payload(self) -> bytes:
        return (enc_str(self.user_id) + enc_bytes(self.subject_public_key)
                + enc_str(self.issuer_id) + enc_u64(self.issued_at)
                + enc_u64(self.expires_at) + enc_str(self.kind))


class _Reader:
    def __init__(self, data: bytes):
        self.data, self.pos = data, 0

    def bytes_(self) -> bytes:
        if self.pos + 4 > len(self.data):
            raise CheckFailed("truncated field")
        (n,) = struct.unpack(">I", self.data[self.pos:self.pos + 4])
        if self.pos + 4 + n > len(self.data):
            raise CheckFailed("truncated field")
        out = self.data[self.pos + 4:self.pos + 4 + n]
        self.pos += 4 + n
        return out

    def str_(self) -> str:
        return self.bytes_().decode("utf-8")

    def u64(self) -> int:
        raw = self.bytes_()
        if len(raw) != 8:
            raise CheckFailed("bad integer width")
        return struct.unpack(">Q", raw)[0]

    @property
    def done(self) -> bool:
        return self.pos == len(self.data)


def verify_record(record: Record, key: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(key).verify(record.signature,
                                                       record.signed_payload())
        return True
    except InvalidSignature:
        return False


def read_chain(data: bytes, writer_keys: Dict[str, bytes]) -> Tuple[List[List[Record]], List[str]]:
    """Parse and verify a chain file: the genesis declares exactly the given
    writers, heights run 0, 1, 2, ..., every block links to the hash of the
    one before, every writer and record signature verifies, and every record
    re-encodes to its stored bytes. Returns the records of each block."""
    blocks: List[List[Record]] = []
    problems: List[str] = []
    chain, prev_hash = _Reader(data), ZERO32
    try:
        while not chain.done:
            raw = chain.bytes_()
            height = len(blocks)
            r = _Reader(raw)
            if r.u64() != height:
                problems.append(f"block {height}: height out of sequence")
            if r.bytes_() != prev_hash:
                problems.append(f"block {height}: broken hash link")
            raw_records = [r.bytes_() for _ in range(r.u64())]
            timestamp, writer_id, writer_sig = r.u64(), r.str_(), r.bytes_()
            declarations = {r.str_(): r.bytes_() for _ in range(r.u64())}
            if not r.done:
                problems.append(f"block {height}: trailing bytes")
            records = []
            for rec_raw in raw_records:
                rr = _Reader(rec_raw)
                rec = Record(rr.str_(), rr.bytes_(), rr.str_(), rr.u64(), rr.u64(),
                             rr.str_(), rr.bytes_())
                if rec.signed_payload() + enc_bytes(rec.signature) != rec_raw:
                    problems.append(f"block {height}: record does not re-encode")
                key = writer_keys.get(rec.issuer_id)
                if key is None or not verify_record(rec, key):
                    problems.append(f"block {height}: record signature for {rec.user_id}")
                records.append(rec)
            if height == 0:
                if declarations != writer_keys:
                    problems.append("genesis declares other writers")
            else:
                records_hash = hashlib.sha256(
                    b"".join(enc_bytes(x) for x in raw_records)).digest()
                payload = (struct.pack(">Q", height) + prev_hash + records_hash
                           + struct.pack(">Q", timestamp))
                try:
                    Ed25519PublicKey.from_public_bytes(writer_keys[writer_id]).verify(
                        writer_sig, payload)
                except (KeyError, InvalidSignature):
                    problems.append(f"block {height}: writer signature")
            blocks.append(records)
            prev_hash = hashlib.sha256(raw).digest()
    except CheckFailed as e:
        problems.append(f"block {len(blocks)}: {e}")
    return blocks, problems
