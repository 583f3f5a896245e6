import hashlib
import hmac
import os

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

import oracles
import vectors as v
from chainchat import chain, identity_sig
from chainchat.crypto import generate_identity_keypair
from chainchat.errors import KeyAgreementError


class TestEdwardsCore:
    """RFC 8032 vectors exercise the library Ed25519 verifier behind
    ``chain.verify_edwards``, which checks every writer and MNO signature."""

    @pytest.mark.parametrize("pub,msg,sig", [
        (v.ED25519_T1_PUB, v.ED25519_T1_MSG, v.ED25519_T1_SIG),
        (v.ED25519_T2_PUB, v.ED25519_T2_MSG, v.ED25519_T2_SIG),
    ])
    def test_rfc8032_vectors_verify(self, pub, msg, sig):
        assert chain.verify_edwards(pub, msg, sig)

    def test_rfc8032_vector_tampered_message(self):
        assert not chain.verify_edwards(
            v.ED25519_T2_PUB, b"\x73", v.ED25519_T2_SIG)

    def test_rfc8032_vector_tampered_signature(self):
        bad = bytearray(v.ED25519_T1_SIG)
        bad[10] ^= 0x01
        assert not chain.verify_edwards(v.ED25519_T1_PUB, v.ED25519_T1_MSG, bytes(bad))


class TestMontgomeryKeyedSignatures:
    """``sign`` and ``verify``: the proof of possession under X25519
    (Montgomery) identity keys, a MAC keyed by the Diffie-Hellman secret of
    the identity key and the MNO's challenge key."""

    @staticmethod
    def proof(pair, challenge, message):
        return identity_sig.sign(pair, challenge.public_key, message)

    def test_sign_verify_roundtrip(self):
        pair, challenge = generate_identity_keypair(), generate_identity_keypair()
        msg = b"enrollment challenge payload"
        proof = self.proof(pair, challenge, msg)
        assert len(proof) == 32
        assert identity_sig.verify(challenge, pair.public_key, msg, proof)

    def test_matches_independent_oracle(self):
        """HMAC-SHA256 under HKDF(X25519(k, E), 0^32, "enroll-pop"), from the
        ladder and HKDF oracles."""
        pair, challenge = generate_identity_keypair(), generate_identity_keypair()
        shared = oracles.x25519(pair.private_key, challenge.public_key)
        key = oracles.hkdf_sha256(shared, b"\x00" * 32, b"enroll-pop", 32)
        assert self.proof(pair, challenge, b"m") == hmac.new(key, b"m", hashlib.sha256).digest()

    def test_wrong_message_fails(self):
        pair, challenge = generate_identity_keypair(), generate_identity_keypair()
        proof = self.proof(pair, challenge, b"a")
        assert not identity_sig.verify(challenge, pair.public_key, b"b", proof)

    def test_wrong_key_fails(self):
        pair, other, challenge = (generate_identity_keypair() for _ in range(3))
        proof = self.proof(pair, challenge, b"msg")
        assert not identity_sig.verify(challenge, other.public_key, b"msg", proof)

    def test_wrong_challenge_fails(self):
        pair, challenge, other = (generate_identity_keypair() for _ in range(3))
        proof = self.proof(pair, challenge, b"msg")
        assert not identity_sig.verify(other, pair.public_key, b"msg", proof)

    def test_every_signature_bit_matters(self):
        pair, challenge = generate_identity_keypair(), generate_identity_keypair()
        proof = self.proof(pair, challenge, b"msg")
        for bit in range(0, 256, 7):
            bad = bytearray(proof)
            bad[bit // 8] ^= 1 << bit % 8
            assert not identity_sig.verify(
                challenge, pair.public_key, b"msg", bytes(bad))

    def test_many_random_keys(self):
        for _ in range(20):
            pair, challenge = generate_identity_keypair(), generate_identity_keypair()
            msg = os.urandom(48)
            proof = self.proof(pair, challenge, msg)
            assert identity_sig.verify(challenge, pair.public_key, msg, proof)

    def test_deterministic_signatures(self):
        pair, challenge = generate_identity_keypair(), generate_identity_keypair()
        assert self.proof(pair, challenge, b"m") == self.proof(pair, challenge, b"m")
        assert self.proof(pair, challenge, b"m") != \
            self.proof(pair, generate_identity_keypair(), b"m")

    def test_low_order_public_key_rejected(self):
        """No agreement with a point of low order, in any encoding: the MNO
        refuses a proof under such a key, even the tag keyed from the
        all-zero secret, and a client refuses such a challenge."""
        pair, challenge = generate_identity_keypair(), generate_identity_keypair()
        zero_key = oracles.hkdf_sha256(b"\x00" * 32, b"\x00" * 32, b"enroll-pop", 32)
        for u in v.LOW_ORDER_U:
            for key in (u.to_bytes(32, "little"), (u | 1 << 255).to_bytes(32, "little")):
                forged = hmac.new(zero_key, b"m", hashlib.sha256).digest()
                assert not identity_sig.verify(challenge, key, b"m", forged), u
                with pytest.raises(KeyAgreementError):
                    identity_sig.sign(pair, key, b"m")

    def test_bad_signature_length(self):
        pair, challenge = generate_identity_keypair(), generate_identity_keypair()
        proof = self.proof(pair, challenge, b"m")
        for bad in (b"", proof[:31], proof + b"\x00", proof + proof):
            assert not identity_sig.verify(challenge, pair.public_key, b"m", bad)


def _zero_nonce_signature(message, r_enc):
    """Edwards key and (R, S) made with nonce 0, so R is the neutral point,
    written as ``r_enc``. Verifies iff the verifier accepts that encoding."""
    a = int.from_bytes(os.urandom(32), "little") % oracles.L
    pub = oracles.ed25519_base_mul(a)
    h = int.from_bytes(hashlib.sha512(r_enc + pub + message).digest(), "little") % oracles.L
    return pub, r_enc + (h * a % oracles.L).to_bytes(32, "little")


def _off_curve_key():
    """Smallest y > 1 whose compressed encoding decodes to no Edwards point."""
    P, D = oracles.P, oracles._ED_D
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
        assert chain.verify_edwards(pub, b"m", sig)

    def test_non_canonical_r_y_at_least_p(self):
        r_enc = (oracles.P + self.NEUTRAL_Y).to_bytes(32, "little")
        pub, sig = _zero_nonce_signature(b"m", r_enc)
        assert not chain.verify_edwards(pub, b"m", sig)

    def test_r_with_x_zero_and_sign_bit_set(self):
        r_enc = (self.NEUTRAL_Y | 1 << 255).to_bytes(32, "little")
        pub, sig = _zero_nonce_signature(b"m", r_enc)
        assert not chain.verify_edwards(pub, b"m", sig)

    def test_key_off_the_curve(self):
        sig = Ed25519PrivateKey.generate().sign(b"m")
        assert not chain.verify_edwards(_off_curve_key(), b"m", sig)
