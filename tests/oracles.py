"""Independent test-side oracles.

These are deliberately separate implementations from anything under src/:
a pure-Python X25519 Montgomery ladder (RFC 7748 pseudocode), a generic
double-and-add Ed25519 base-point multiplication, a direct RFC 5869 HKDF, a
hand-rolled PBKDF2 loop, a ``struct`` reader of the client state bytes
written from FORMATS.md, and a ``struct`` reader of wire frames written from
PROTOCOL.md. Known-answer tests check both these oracles and
the production code against published constants, and derived expectations
are computed here rather than with the code under test.
"""

import hashlib
import hmac
import struct

P = 2**255 - 19
_A24 = 121665


def _decode_u(b: bytes) -> int:
    return (int.from_bytes(b, "little") & ((1 << 255) - 1)) % P


def _decode_scalar(k: bytes) -> int:
    s = bytearray(k)
    s[0] &= 248
    s[31] &= 127
    s[31] |= 64
    return int.from_bytes(bytes(s), "little")


def x25519(k_bytes: bytes, u_bytes: bytes) -> bytes:
    """Montgomery ladder scalar multiplication, straight from the RFC."""
    k = _decode_scalar(k_bytes)
    x1 = _decode_u(u_bytes)
    x2, z2, x3, z3 = 1, 0, x1, 1
    swap = 0
    for t in reversed(range(255)):
        k_t = (k >> t) & 1
        swap ^= k_t
        if swap:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = k_t
        a = (x2 + z2) % P
        aa = a * a % P
        b = (x2 - z2) % P
        bb = b * b % P
        e = (aa - bb) % P
        c = (x3 + z3) % P
        d = (x3 - z3) % P
        da = d * a % P
        cb = c * b % P
        x3 = (da + cb) % P
        x3 = x3 * x3 % P
        z3 = (da - cb) % P
        z3 = x1 * (z3 * z3) % P
        x2 = aa * bb % P
        z2 = e * (aa + _A24 * e) % P
    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2
    return (x2 * pow(z2, P - 2, P) % P).to_bytes(32, "little")


def x25519_base(k_bytes: bytes) -> bytes:
    return x25519(k_bytes, (9).to_bytes(32, "little"))


L = 2**252 + 27742317777372353535851937790883648493  # RFC 8032's L, the base point's order
_ED_D = -121665 * pow(121666, P - 2, P) % P
_ED_BASE = (
    15112221349535400772501151409588531511454012693041857206046113283949847762202,
    46316835694926478169428394003475163141307993866256225615783033603165251855960,
)


def _ed_add(p, q):
    # unified extended-coordinate addition on -x^2 + y^2 = 1 + d x^2 y^2
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % P
    b = (y1 + x1) * (y2 + x2) % P
    c = 2 * t1 * t2 * _ED_D % P
    d = 2 * z1 * z2 % P
    e, f, g, h = (b - a) % P, (d - c) % P, (d + c) % P, (b + a) % P
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def ed25519_base_mul(scalar: int) -> bytes:
    """Compressed scalar*B by plain double-and-add over the bits of scalar."""
    q = (0, 1, 1, 0)
    p = (_ED_BASE[0], _ED_BASE[1], 1, _ED_BASE[0] * _ED_BASE[1] % P)
    while scalar > 0:
        if scalar & 1:
            q = _ed_add(q, p)
        p = _ed_add(p, p)
        scalar >>= 1
    x, y, z, _ = q
    zinv = pow(z, P - 2, P)
    x, y = x * zinv % P, y * zinv % P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def hkdf_sha256(ikm: bytes, salt: bytes, info: bytes, length: int) -> bytes:
    prk = hmac.new(salt, ikm, hashlib.sha256).digest()
    okm, block, counter = b"", b"", 1
    while len(okm) < length:
        block = hmac.new(prk, block + info + bytes([counter]), hashlib.sha256).digest()
        okm += block
        counter += 1
    return okm[:length]


def pbkdf2_sha256(password: bytes, salt: bytes, iterations: int, dklen: int) -> bytes:
    out = b""
    block = 1
    while len(out) < dklen:
        u = hmac.new(password, salt + struct.pack(">I", block), hashlib.sha256).digest()
        t = bytearray(u)
        for _ in range(iterations - 1):
            u = hmac.new(password, u, hashlib.sha256).digest()
            t = bytearray(a ^ b for a, b in zip(t, u))
        out += bytes(t)
        block += 1
    return out[:dklen]


def read_client_state(data: bytes) -> dict:
    """Client state bytes read field by field as FORMATS.md §Client state
    lays them out: a field is a 4-byte big-endian length and that many
    bytes, a u64 a field of 8 bytes. Raises ValueError on a field of the
    wrong width and unless the last field ends at the last byte."""
    pos = 0

    def field(width=None):
        nonlocal pos
        if pos + 4 > len(data):
            raise ValueError(f"no length prefix at offset {pos}")
        (length,) = struct.unpack_from(">I", data, pos)
        start, pos = pos + 4, pos + 4 + length
        if pos > len(data) or width not in (None, length):
            raise ValueError(f"bad field of {length} bytes at offset {start}")
        return data[start:pos]

    def u64():
        return struct.unpack(">Q", field(8))[0]

    def text():
        return field().decode("utf-8")

    def chain_key():
        return {"key": field(32), "index": u64()}

    def parked_keys():
        parked = {}
        for _ in range(u64()):
            counter = u64()
            parked[counter] = {"cipher_key": field(32), "mac_key": field(32), "iv": field(16)}
        return parked

    state = {"tag": text(), "identity_private": field(32), "certificate": field(),
             "inbox_cursor": u64(), "sessions": [], "groups": [], "history": []}
    for _ in range(u64()):
        state["sessions"].append({"peer_id": text(), "send": chain_key(), "recv": chain_key(),
                                  "parked": parked_keys(), "peer_cert_fingerprint": field(32)})
    for _ in range(u64()):
        group = {"group_id": text(), "admin_id": text()}
        group["member_ids"] = [text() for _ in range(u64())]
        group.update(group_key=field(32), chain=chain_key(), parked=parked_keys())
        state["groups"].append(group)
    for _ in range(u64()):
        state["history"].append({"direction": text(), "peer_id": text(), "group_id": text(),
                                 "counter": u64(), "text": text(), "at": u64()})
    if pos != len(data):
        raise ValueError(f"{len(data) - pos} bytes past the last field")
    # the certificate record opens with string user_id | bytes subject_public_key(32)
    cert = state["certificate"]
    (id_len,) = struct.unpack_from(">I", cert, 0)
    state["user_id"] = cert[4:4 + id_len].decode("utf-8")
    state["identity_public"] = cert[4 + id_len + 4:4 + id_len + 4 + 32]
    return state


# ---------------------------------------------------------------------------
# wire frames, as PROTOCOL.md §Framing and §Requests lay them out
# ---------------------------------------------------------------------------

MAX_FRAME = 1 << 24

# the fields after the type (and after an enroll's phase), by request; a
# tuple is a list: u64 n, then n items of the tuple's fields
REQUEST_FIELDS = {
    "enroll/challenge": ("string",),
    "enroll/submit": ("string", "bytes", "bytes"),
    "enroll/revoke": ("string",),
    "register": ("string", "bytes"),
    "fetch_cert": ("string",),
    "submit": ("bytes", "bytes"),
    "fetch": ("string", "u64"),
    "group_create": ("string", "string", ("string",)),
    "group_send": ("string", "bytes"),
}
ACK_FIELDS = {
    "enroll/challenge": ("bytes",),
    "enroll/submit": ("bytes",),
    "enroll/revoke": ("string",),
    "register": ("string",),
    "fetch_cert": ("string", "bytes"),
    "submit": ("string",),
    "fetch": (("u64", "bytes"),),
    "group_create": ("string",),
    "group_send": (("string", "string"),),
}
ERROR_FIELDS = ("string", "string")


def _wire_field(data: bytes, pos: int, kind: str):
    if pos + 4 > len(data):
        raise ValueError(f"no length prefix at offset {pos}")
    (length,) = struct.unpack_from(">I", data, pos)
    start, end = pos + 4, pos + 4 + length
    if end > len(data):
        raise ValueError(f"field of {length} bytes at offset {start} runs past the end")
    raw = data[start:end]
    if kind == "string":
        return raw.decode("utf-8"), end
    if kind == "u64":
        if length != 8:
            raise ValueError(f"u64 field of {length} bytes at offset {start}")
        return struct.unpack(">Q", raw)[0], end
    return raw, end


def _wire_fields(data: bytes, pos: int, kinds: tuple):
    values = []
    for kind in kinds:
        if isinstance(kind, tuple):
            count, pos = _wire_field(data, pos, "u64")
            items = []
            for _ in range(count):
                item, pos = _wire_fields(data, pos, kind)
                items.append(item[0] if len(kind) == 1 else tuple(item))
            values.append(items)
        else:
            value, pos = _wire_field(data, pos, kind)
            values.append(value)
    return values, pos


def split_frames(stream: bytes) -> list:
    """The frame bodies of a byte stream: each a u32 length and that many
    bytes, at most ``MAX_FRAME``. Raises ValueError unless the last frame
    ends at the last byte."""
    bodies, pos = [], 0
    while pos < len(stream):
        body, pos = _wire_field(stream, pos, "bytes")
        if len(body) > MAX_FRAME:
            raise ValueError(f"frame of {len(body)} bytes")
        bodies.append(body)
    return bodies


def read_request(body: bytes):
    """``(request, fields)`` of a request frame body, ``request`` a key of
    ``REQUEST_FIELDS``; raises ValueError unless the fields end the body."""
    msg_type, pos = _wire_field(body, 0, "string")
    if msg_type == "enroll":
        phase, pos = _wire_field(body, pos, "string")
        msg_type = f"enroll/{phase}"
    fields, pos = _wire_fields(body, pos, REQUEST_FIELDS[msg_type])
    if pos != len(body):
        raise ValueError(f"{len(body) - pos} bytes past the last field")
    return msg_type, fields


def read_reply(body: bytes, request: str):
    """``(type, fields)`` of the reply frame body to ``request``."""
    msg_type, pos = _wire_field(body, 0, "string")
    kinds = {"ack": ACK_FIELDS[request], "error": ERROR_FIELDS}[msg_type]
    fields, pos = _wire_fields(body, pos, kinds)
    if pos != len(body):
        raise ValueError(f"{len(body) - pos} bytes past the last field")
    return msg_type, fields
