"""Canonical byte encoding: length-prefixed field concatenation.

Everything that is hashed, signed, persisted or sent goes through these
helpers, so an object's identity is independent of its in-memory form. Each
field is a 4-byte big-endian length followed by the raw bytes; integers are
encoded as 8-byte big-endian unsigned values before prefixing. The encoding
is injective, which is what makes "one flipped byte breaks verification"
hold everywhere.

Wire messages use the same encoding: a frame is one bytes field holding the
message type and the type's fields (PROTOCOL.md), read with one ``Reader``.
A run of fields, an envelope's or a list's, is split in one pass
(``split_fields``).
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from .errors import ChainFormatError, TruncatedDataError

U64_MAX = (1 << 64) - 1

# a field's length prefix, and a whole u64 field (the prefix 8, then the
# value), compiled once; a hot caller can build many fields in one join
LENGTH_PREFIX = struct.Struct(">I")
U64_FIELD = struct.Struct(">IQ")


def encode_bytes(value: bytes) -> bytes:
    return LENGTH_PREFIX.pack(len(value)) + value


def encode_str(value: str) -> bytes:
    return encode_bytes(value.encode("utf-8"))


def encode_u64(value: int) -> bytes:
    if value < 0:
        raise ValueError(f"cannot encode negative integer {value}")
    return U64_FIELD.pack(8, value)


def split_fields(data: bytes, count: int, pos: int = 0,
                 what: str = "data") -> Tuple[List[bytes], int]:
    """``count`` fields of ``data`` from ``pos``, split in one pass, and the
    offset where the last one ends. Bytes that end inside a field are
    ``TruncatedDataError``. Each field takes at least its 4-byte prefix, so a
    count past what ``data`` holds fails at the first field that is not
    there: nothing is sized by ``count``."""
    fields, end, size = [], pos, len(data)
    for _ in range(count):
        start = end + 4
        if start > size:  # a field that runs past the end fails at the next, or below
            raise TruncatedDataError(f"truncated {what} at offset {end}")
        end = start + LENGTH_PREFIX.unpack_from(data, end)[0]
        fields.append(data[start:end])
    if end > size:
        raise TruncatedDataError(f"truncated {what}")
    return fields, end


class Reader:
    """Sequential decoder over a canonical byte string."""

    def __init__(self, data: bytes, *, what: str = "data"):
        self._data = data
        self._pos = 0
        self._what = what

    def read_bytes(self) -> bytes:
        # the prefix is read in place, not sliced out: every envelope and
        # record that crosses the wire is decoded through here
        data, start = self._data, self._pos + 4
        if start > len(data):
            raise TruncatedDataError(f"truncated {self._what} at offset {self._pos}")
        end = start + LENGTH_PREFIX.unpack_from(data, self._pos)[0]
        if end > len(data):
            raise TruncatedDataError(f"truncated {self._what} at offset {start}")
        self._pos = end
        return data[start:end]

    def read_str(self) -> str:
        raw = self.read_bytes()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ChainFormatError(f"invalid utf-8 in {self._what}") from e

    def read_u64(self) -> int:
        # prefix and value in one unpack; anything else is read as a bytes
        # field, which raises if it is truncated, and then refused
        data, pos = self._data, self._pos
        if pos + U64_FIELD.size <= len(data):
            width, value = U64_FIELD.unpack_from(data, pos)
            if width == 8:
                self._pos = pos + U64_FIELD.size
                return value
        self.read_bytes()
        raise ChainFormatError(f"bad integer width in {self._what}")

    def read_fields(self, count: int) -> List[bytes]:
        """``count`` bytes fields, by ``split_fields``."""
        fields, self._pos = split_fields(self._data, count, self._pos, self._what)
        return fields

    def read_strs(self, count: int) -> List[str]:
        """``count`` string fields, each strict UTF-8."""
        try:
            return [field.decode() for field in self.read_fields(count)]
        except UnicodeDecodeError as e:
            raise ChainFormatError(f"invalid utf-8 in {self._what}") from e

    def expect_bytes(self, n: int) -> bytes:
        raw = self.read_bytes()
        if len(raw) != n:
            raise ChainFormatError(
                f"expected {n}-byte field in {self._what}, got {len(raw)}"
            )
        return raw

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._data)

    def require_exhausted(self) -> None:
        if not self.exhausted:
            raise ChainFormatError(f"trailing bytes in {self._what}")
