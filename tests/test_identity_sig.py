import hashlib
import os
import random
import sys
import threading

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

import oracles
import vectors as v
from chainchat import identity_sig
from chainchat.crypto import generate_identity_keypair


class TestEdwardsCore:
    """RFC 8032 vectors exercise the library Ed25519 verifier behind
    ``verify_edwards``. The sign->verify round-trips in the next class check
    the pure-Python signing arithmetic against that independent verifier."""

    @pytest.mark.parametrize("pub,msg,sig", [
        (v.ED25519_T1_PUB, v.ED25519_T1_MSG, v.ED25519_T1_SIG),
        (v.ED25519_T2_PUB, v.ED25519_T2_MSG, v.ED25519_T2_SIG),
    ])
    def test_rfc8032_vectors_verify(self, pub, msg, sig):
        assert identity_sig.verify_edwards(pub, msg, sig)

    def test_rfc8032_vector_tampered_message(self):
        assert not identity_sig.verify_edwards(
            v.ED25519_T2_PUB, b"\x73", v.ED25519_T2_SIG)

    def test_rfc8032_vector_tampered_signature(self):
        bad = bytearray(v.ED25519_T1_SIG)
        bad[10] ^= 0x01
        assert not identity_sig.verify_edwards(v.ED25519_T1_PUB, v.ED25519_T1_MSG, bytes(bad))


class TestMontgomeryKeyedSignatures:
    def test_sign_verify_roundtrip(self):
        pair = generate_identity_keypair()
        msg = b"enrollment challenge payload"
        sig = identity_sig.sign(pair.private_key, msg)
        assert len(sig) == 64
        assert identity_sig.verify(pair.public_key, msg, sig)

    def test_wrong_message_fails(self):
        pair = generate_identity_keypair()
        sig = identity_sig.sign(pair.private_key, b"a")
        assert not identity_sig.verify(pair.public_key, b"b", sig)

    def test_wrong_key_fails(self):
        pair = generate_identity_keypair()
        other = generate_identity_keypair()
        sig = identity_sig.sign(pair.private_key, b"msg")
        assert not identity_sig.verify(other.public_key, b"msg", sig)

    def test_every_signature_bit_matters(self):
        pair = generate_identity_keypair()
        sig = identity_sig.sign(pair.private_key, b"msg")
        for byte_idx in range(0, 64, 7):
            bad = bytearray(sig)
            bad[byte_idx] ^= 0x04
            assert not identity_sig.verify(pair.public_key, b"msg", bytes(bad))

    def test_many_random_keys(self):
        for _ in range(20):
            pair = generate_identity_keypair()
            msg = os.urandom(48)
            sig = identity_sig.sign(pair.private_key, msg)
            assert identity_sig.verify(pair.public_key, msg, sig)

    def test_deterministic_signatures(self):
        pair = generate_identity_keypair()
        assert identity_sig.sign(pair.private_key, b"m") == \
               identity_sig.sign(pair.private_key, b"m")

    def test_montgomery_edwards_mapping_consistent(self):
        # the Edwards key recovered from the X25519 public key must equal
        # the sign-forced Edwards key computed from the private scalar;
        # the public key itself comes from the independent ladder oracle
        for _ in range(8):
            pair = generate_identity_keypair()
            assert oracles.x25519_base(pair.private_key) == pair.public_key
            mapped = identity_sig.edwards_public_key(pair.public_key)
            _, derived = identity_sig._signing_pair(pair.private_key)
            assert mapped == derived

    def test_low_order_public_key_rejected(self):
        # u = p-1 maps to a division by zero in the birational map; the other
        # low-order points map to Edwards keys under which forgeries verify
        for u in v.LOW_ORDER_U:
            key = u.to_bytes(32, "little")
            assert identity_sig.edwards_public_key(key) is None, u
            assert not identity_sig.verify(key, b"m", b"\x00" * 64)

    def test_bad_signature_length(self):
        pair = generate_identity_keypair()
        sig = identity_sig.sign(pair.private_key, b"m")
        for bad in (b"\x00" * 63, sig[:63], sig + b"\x00"):
            assert not identity_sig.verify(pair.public_key, b"m", bad)

    def test_oversized_s_rejected(self):
        pair = generate_identity_keypair()
        sig = identity_sig.sign(pair.private_key, b"m")
        # S = L, and S bumped above the group order
        s = int.from_bytes(sig[32:], "little")
        for big in (identity_sig.L, s + identity_sig.L):
            forged = sig[:32] + big.to_bytes(32, "little")
            assert not identity_sig.verify(pair.public_key, b"m", forged)


class TestFixedBaseTable:
    """``_base_mul`` against pinned signatures, the library's Ed25519 key
    derivation and the double-and-add oracle."""

    @pytest.mark.parametrize("index", range(len(v.IDENTITY_SIG_KEYS)))
    def test_pinned_signatures(self, index):
        key = v.IDENTITY_SIG_KEYS[index]
        for message, pinned in zip(v.IDENTITY_SIG_MESSAGES, v.IDENTITY_SIG_SIGS[index]):
            assert identity_sig.sign(key, message) == pinned, len(message)

    def test_pinned_keys_cover_both_branches(self):
        negated = tuple(
            oracles.ed25519_base_mul(oracles._decode_scalar(key))[31] >= 0x80
            for key in v.IDENTITY_SIG_KEYS)
        assert negated == v.IDENTITY_SIG_NEGATED
        assert 2 <= sum(negated) <= len(negated) - 2

    def test_matches_library_public_keys(self):
        # RFC 8032 5.1.5: A = clamp(SHA-512(seed)[:32]) * B
        rng = random.Random(1205)
        for _ in range(64):
            seed = rng.randbytes(32)
            scalar = oracles._decode_scalar(hashlib.sha512(seed).digest()[:32])
            expected = Ed25519PrivateKey.from_private_bytes(seed).public_key().public_bytes_raw()
            assert identity_sig._compress(identity_sig._base_mul(scalar)) == expected

    @pytest.mark.parametrize("scalar", [
        0, 1, 7, 8, 9, 15, 16,
        identity_sig.L - 1, identity_sig.L, identity_sig.L + 1,
        2**252, 2**255 - 1,
        sum(8 * 16**i for i in range(63)),  # below L: every window carries
        sum(8 * 16**i for i in range(64)),
    ])
    def test_edge_scalars_match_double_and_add(self, scalar):
        assert identity_sig._compress(identity_sig._base_mul(scalar)) == \
            oracles.ed25519_base_mul(scalar)

    def test_concurrent_first_build(self, monkeypatch):
        monkeypatch.setattr(identity_sig, "_BASE_TABLE", None)
        barrier = threading.Barrier(4)
        results = [None] * 4

        def sign_all(slot):
            barrier.wait(timeout=30)
            results[slot] = tuple(
                tuple(identity_sig.sign(key, message) for message in v.IDENTITY_SIG_MESSAGES)
                for key in v.IDENTITY_SIG_KEYS)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=sign_all, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [v.IDENTITY_SIG_SIGS] * 4
        assert identity_sig._BASE_TABLE is not None


def _zero_nonce_signature(message, r_enc):
    """Edwards key and (R, S) made with nonce 0, so R is the neutral point,
    written as ``r_enc``. Verifies iff the verifier accepts that encoding."""
    a, pub = identity_sig._signing_pair(generate_identity_keypair().private_key)
    h = identity_sig._scalar_from_hash(r_enc, pub, message)
    return pub, r_enc + (h * a % identity_sig.L).to_bytes(32, "little")


def _off_curve_key():
    """Smallest y > 1 whose compressed encoding decodes to no Edwards point."""
    P, D = identity_sig.P, identity_sig.D
    for y in range(2, 1000):
        x2 = (y * y - 1) * pow(D * y * y + 1, P - 2, P) % P
        if pow(x2, (P - 1) // 2, P) == P - 1:
            return y.to_bytes(32, "little")
    raise AssertionError("no off-curve y found")


class TestVerifierEdgeCases:
    """Encodings a lenient verifier would accept; each must be rejected."""

    NEUTRAL_Y = 1

    def test_canonical_neutral_r_verifies(self):
        # control for the two tests below: the same construction with the
        # canonical encoding of R is a valid signature
        pub, sig = _zero_nonce_signature(b"m", self.NEUTRAL_Y.to_bytes(32, "little"))
        assert identity_sig.verify_edwards(pub, b"m", sig)

    def test_non_canonical_r_y_at_least_p(self):
        r_enc = (identity_sig.P + self.NEUTRAL_Y).to_bytes(32, "little")
        pub, sig = _zero_nonce_signature(b"m", r_enc)
        assert not identity_sig.verify_edwards(pub, b"m", sig)

    def test_r_with_x_zero_and_sign_bit_set(self):
        r_enc = (self.NEUTRAL_Y | 1 << 255).to_bytes(32, "little")
        pub, sig = _zero_nonce_signature(b"m", r_enc)
        assert not identity_sig.verify_edwards(pub, b"m", sig)

    def test_key_off_the_curve(self):
        pair = generate_identity_keypair()
        sig = identity_sig.sign(pair.private_key, b"m")
        assert not identity_sig.verify_edwards(_off_curve_key(), b"m", sig)
