"""Independent test-side oracles.

These are deliberately separate implementations from anything under src/:
a pure-Python X25519 Montgomery ladder (RFC 7748 pseudocode), a generic
double-and-add Ed25519 base-point multiplication, a direct RFC 5869 HKDF, and
a hand-rolled PBKDF2 loop. Known-answer tests check both these oracles and
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
