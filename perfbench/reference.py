"""A fixed reference kernel that measures how fast this machine runs right now.

On a shared host the CPU time of the same work drifts by 10-25 % from minute
to minute, without showing as steal. The timed phase therefore runs this
kernel between slices of operations and reports CPU time per operation also
in *refs*: multiples of the kernel's CPU time measured in the same run. The
kernel uses no chainchat code; it does the kind of work a request does
(canonical JSON with base64 fields, HMAC-SHA256, AES-CBC, frozen
dataclasses, arithmetic modulo 2^255 - 19), so the host's slow phases slow
both alike, while a change to chainchat moves only the program's side of the
ratio. It takes about 1.6 ms
on the machine the README describes.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import json
from dataclasses import dataclass

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

_KEY = bytes(range(32))
_IV = bytes(16)
_P = 2**255 - 19


@dataclass(frozen=True)
class _Item:
    name: str
    count: int
    blob: bytes


_ITEMS = [_Item(f"user{i:05d}", i, bytes([i]) * (16 + i % 48)) for i in range(32)]


def kernel() -> int:
    acc = 3
    for _ in range(500):  # field arithmetic, as in pure-Python signatures
        acc = acc * (acc + 0xDEADBEEF) % _P
    for item in _ITEMS:
        line = json.dumps({"type": "submit", "body": {
            "name": item.name, "count": item.count,
            "blob": base64.b64encode(item.blob).decode("ascii")}},
            sort_keys=True, separators=(",", ":")).encode("utf-8")
        body = json.loads(line)["body"]
        raw = base64.b64decode(body["blob"])
        mac = hmac.new(_KEY, line + raw, hashlib.sha256).digest()
        encryptor = Cipher(algorithms.AES(_KEY), modes.CBC(_IV)).encryptor()
        ciphertext = encryptor.update(raw.ljust(64, b"\0")) + encryptor.finalize()
        acc += mac[0] + ciphertext[0] + len(_Item(body["name"], body["count"], raw).blob)
    return acc
