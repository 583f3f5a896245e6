"""Signatures under Curve25519 identity keys (proof of possession).

Identity keys are X25519 keys: Montgomery-form points used for key agreement.
Enrollment, however, needs the subject to *sign* a challenge such that the
signature verifies against the very same 32-byte public key that goes into
the certificate. This module does that with XEdDSA
(signal.org/docs/specifications/xeddsa): the birational map from curve25519
to edwards25519 turns the X25519 key into an Ed25519 key.

  sign:   map the clamped X25519 scalar k to an Edwards key pair. Compute
          A = k*B; if the compressed A has its sign bit set, negate the
          scalar (a = -k mod L) and clear the bit, so that A is always the
          sign-0 point. Then produce an ordinary Schnorr/Ed25519 signature
          (R, S) under (a, A), with a deterministic domain-separated nonce.

  verify: map the Montgomery u-coordinate to the Edwards y = (u-1)/(u+1),
          force the sign bit to 0, and run RFC 8032 Ed25519 verification
          through ``cryptography``.

Both sides land on the same sign-0 Edwards point, so signatures made with an
X25519 private key verify against the matching X25519 public key and nothing
else. Keys whose u-coordinate belongs to a point of order 1, 2, 4 or 8 are
refused: nobody holds a private key for them, and a forged signature under
such a key passes the cofactorless check with probability up to 1/2.

Signing stays pure Python over extended twisted-Edwards coordinates, because
it needs the raw X25519 scalar, and ``cryptography`` takes Ed25519 private
keys only as seeds that it hashes into a scalar. A = k*B and the nonce point
R = r*B both come from ``_base_mul``, ref10's ``ge_scalarmult_base`` with one
table row per window and no doublings: the scalar mod L is recoded into 64
signed radix-16 digits in [-8, 8], and row i holds j*16^i*B for j = -8..8 as
affine (y+x, y-x, 2d*x*y), so a window is one lookup and one mixed addition.
The first sign builds the table (one batched inversion) and publishes it by a
single assignment. CPython big integers are not constant-time.
"""

from __future__ import annotations

import hashlib
from itertools import accumulate
from typing import Optional, Tuple

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from .crypto import clamp_scalar

P = 2**255 - 19
L = 2**252 + 27742317777372353535851937790883648493
D = (-121665 * pow(121666, -1, P)) % P

_BASE = (
    15112221349535400772501151409588531511454012693041857206046113283949847762202,
    46316835694926478169428394003475163141307993866256225615783033603165251855960,
)
_B = (_BASE[0], _BASE[1], 1, _BASE[0] * _BASE[1] % P)
_IDENTITY = (0, 1, 1, 0)

_NONCE_DOMAIN = b"chainchat/identity-sig/v1"

# Montgomery u-coordinates of the points of order 1, 2, 4 and 8 (reduced mod p)
_LOW_ORDER_U = frozenset((
    0,
    1,
    P - 1,
    325606250916557431795983626356110631294008115727848805560023387167927233504,
    39382357235489614581723060781553021112529911719440698176882885853963445705823,
))

Point = Tuple[int, int, int, int]  # extended coordinates (X, Y, Z, T)

SIGNATURE_LEN = 64


def _point_add(p: Point, q: Point) -> Point:
    # Strongly unified addition for a=-1 twisted Edwards (hwcd-2008); also
    # valid for doubling, which keeps the table build simple.
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % P
    b = (y1 + x1) * (y2 + x2) % P
    c = 2 * t1 * t2 * D % P
    d = 2 * z1 * z2 % P
    e, f, g, h = (b - a) % P, (d - c) % P, (d + c) % P, (b + a) % P
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _build_base_table() -> Tuple[Tuple[Tuple[int, int, int], ...], ...]:
    multiples = []  # j*16^i*B for i = 0..63, j = 1..8, in extended coordinates
    row = _B
    for _ in range(64):
        multiples.append(row)
        for _ in range(7):
            multiples.append(_point_add(multiples[-1], row))
        row = _point_add(multiples[-1], multiples[-1])
    # one inversion for every Z: prefix[n] is the product of Z_0 .. Z_(n-1)
    prefix = list(accumulate((q[2] for q in multiples), lambda a, b: a * b % P, initial=1))
    inv = pow(prefix.pop(), -1, P)
    affine = []
    for (x, y, z, _), before in zip(reversed(multiples), reversed(prefix)):
        zinv, inv = inv * before % P, inv * z % P
        x, y = x * zinv % P, y * zinv % P
        affine.append(((y + x) % P, (y - x) % P, 2 * D * x * y % P))
    affine.reverse()
    return tuple(  # row i, index digit + 8: -8..-1, the identity, 1..8
        (*[(ym, yp, -t % P) for yp, ym, t in reversed(pos)], (1, 1, 0), *pos)
        for pos in (affine[i:i + 8] for i in range(0, len(affine), 8)))


_BASE_TABLE = None  # built by the first _base_mul


def _base_mul(scalar: int) -> Point:
    """scalar*B: one table entry per signed radix-16 digit of scalar mod L."""
    global _BASE_TABLE
    table = _BASE_TABLE
    if table is None:
        table = _BASE_TABLE = _build_base_table()
    k, carry = scalar % L, 0
    x, y, z, t = _IDENTITY
    for i, row in enumerate(table):
        digit = ((k >> 4 * i) & 15) + carry
        carry = (digit + 8) >> 4
        yp, ym, xy2d = row[digit - 16 * carry + 8]
        a, b, c = (y - x) * ym % P, (y + x) * yp % P, t * xy2d % P
        e, f, g, h = b - a, 2 * z - c, 2 * z + c, b + a
        x, y, z, t = e * f % P, g * h % P, f * g % P, e * h % P
    return (x, y, z, t)


def _compress(p: Point) -> bytes:
    x, y, z, _ = p
    zinv = pow(z, -1, P)
    x, y = x * zinv % P, y * zinv % P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _scalar_from_hash(*parts: bytes) -> int:
    return int.from_bytes(hashlib.sha512(b"".join(parts)).digest(), "little") % L


def _signing_pair(private_key: bytes) -> Tuple[int, bytes]:
    """Edwards scalar and compressed sign-0 public key for an X25519 scalar."""
    k = int.from_bytes(clamp_scalar(private_key), "little")
    a = k % L
    pub = _compress(_base_mul(k))
    if pub[31] & 0x80:
        a = L - a
        pub = pub[:31] + bytes([pub[31] & 0x7F])
    return a, pub


def edwards_public_key(x25519_public: bytes) -> Optional[bytes]:
    """Map a Montgomery u-coordinate to the compressed sign-0 Edwards point."""
    if len(x25519_public) != 32:
        return None
    u = (int.from_bytes(x25519_public, "little") & ((1 << 255) - 1)) % P
    if u in _LOW_ORDER_U:
        return None
    y = (u - 1) * pow(u + 1, -1, P) % P
    return y.to_bytes(32, "little")


def sign(private_key: bytes, message: bytes) -> bytes:
    """Sign ``message`` with an X25519 private key; 64-byte (R, S) output."""
    if len(private_key) != 32:
        raise ValueError("identity private key must be 32 bytes")
    a, pub = _signing_pair(private_key)
    r = _scalar_from_hash(_NONCE_DOMAIN, a.to_bytes(32, "little"), message)
    r_enc = _compress(_base_mul(r))
    h = _scalar_from_hash(r_enc, pub, message)
    s = (r + h * a) % L
    return r_enc + s.to_bytes(32, "little")


def verify(x25519_public: bytes, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` was made with the private half of the given key."""
    pub = edwards_public_key(x25519_public)
    if pub is None:
        return False
    return verify_edwards(pub, message, signature)


def verify_edwards(edwards_pub: bytes, message: bytes, signature: bytes) -> bool:
    """RFC 8032 Ed25519 verification against a compressed Edwards key."""
    if len(signature) != SIGNATURE_LEN:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(edwards_pub).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False
