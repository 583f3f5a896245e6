import hashlib
import hmac as hmac_mod
import importlib
import sys

import pytest

import oracles
import vectors as v
from chainchat import crypto
from chainchat.crypto import (
    ChainKey,
    IdentityKeyPair,
    MasterSecret,
    derive_backup_key,
    derive_master_secret,
    generate_identity_keypair,
    hkdf_sha256,
    init_chains,
    ratchet_forward,
    seal,
    unseal,
)
from chainchat.errors import (
    AuthenticationError,
    KeyAgreementError,
    KeyGenerationError,
    MessageTooLargeError,
    PayloadCorruptionError,
    UnsealError,
)

Z32 = b"\x00" * 32


def fixed_rng(data):
    def rng(n):
        return data[:n]
    return rng


# ---------------------------------------------------------------------------
# known answers (RFC 7748, 5869, 4231; NIST SP 800-38A; PBKDF2 set)
# ---------------------------------------------------------------------------

class TestKnownAnswers:
    def test_keypair_matches_rfc7748_alice(self):
        pair = generate_identity_keypair(fixed_rng(v.X25519_ALICE_PRIV))
        assert pair.public_key == v.X25519_ALICE_PUB
        # and the independent ladder oracle agrees
        assert oracles.x25519_base(pair.private_key) == v.X25519_ALICE_PUB

    def test_keypair_matches_rfc7748_bob(self):
        pair = generate_identity_keypair(fixed_rng(v.X25519_BOB_PRIV))
        assert pair.public_key == v.X25519_BOB_PUB

    def test_shared_secret_matches_rfc7748(self):
        k_ab = derive_master_secret(IdentityKeyPair(v.X25519_ALICE_PRIV, v.X25519_ALICE_PUB),
                                    v.X25519_BOB_PUB)
        k_ba = derive_master_secret(IdentityKeyPair(v.X25519_BOB_PRIV, v.X25519_BOB_PUB),
                                    v.X25519_ALICE_PUB)
        assert k_ab.bytes_ == v.X25519_SHARED
        assert k_ba.bytes_ == v.X25519_SHARED
        assert oracles.x25519(v.X25519_ALICE_PRIV, v.X25519_BOB_PUB) == v.X25519_SHARED

    @pytest.mark.parametrize("scalar,u,expected", [
        (v.X25519_SM1_SCALAR, v.X25519_SM1_U, v.X25519_SM1_OUT),
        (v.X25519_SM2_SCALAR, v.X25519_SM2_U, v.X25519_SM2_OUT),
    ])
    def test_scalar_mult_vectors_via_oracle(self, scalar, u, expected):
        assert oracles.x25519(scalar, u) == expected

    @pytest.mark.parametrize("ikm,salt,info,okm", [
        (v.HKDF_A1_IKM, v.HKDF_A1_SALT, v.HKDF_A1_INFO, v.HKDF_A1_OKM),
        (v.HKDF_A2_IKM, v.HKDF_A2_SALT, v.HKDF_A2_INFO, v.HKDF_A2_OKM),
        (v.HKDF_A3_IKM, b"\x00" * 32, b"", v.HKDF_A3_OKM),
    ])
    def test_hkdf_rfc5869(self, ikm, salt, info, okm):
        assert hkdf_sha256(ikm, salt, info, len(okm)) == okm
        assert oracles.hkdf_sha256(ikm, salt, info, len(okm)) == okm

    @pytest.mark.parametrize("key,data,out", [
        (v.HMAC_TC1_KEY, v.HMAC_TC1_DATA, v.HMAC_TC1_OUT),
        (v.HMAC_TC2_KEY, v.HMAC_TC2_DATA, v.HMAC_TC2_OUT),
    ])
    def test_hmac_rfc4231(self, key, data, out):
        assert hmac_mod.new(key, data, hashlib.sha256).digest() == out

    def test_seal_matches_nist_cbc_vector(self):
        mk = crypto.MessageKey(cipher_key=v.NIST_CBC_KEY, mac_key=Z32,
                               iv=v.NIST_CBC_IV, index=0)
        payload = seal(mk, v.NIST_CBC_PT, b"")
        # the padding block follows the four known-answer blocks
        assert payload.ciphertext[:64] == v.NIST_CBC_CT
        assert len(payload.ciphertext) == 80

    @pytest.mark.parametrize("password,salt,iters,out", v.PBKDF2_VECTORS)
    def test_pbkdf2_published_vectors_via_oracle(self, password, salt, iters, out):
        assert oracles.pbkdf2_sha256(password, salt, iters, 32) == out
        assert hashlib.pbkdf2_hmac("sha256", password, salt, iters, 32) == out

    def test_backup_key_padded_salt_vector(self):
        bk = derive_backup_key("password", v.PBKDF2_PADDED_SALT, 1)
        assert bk.key == v.PBKDF2_PADDED_OUT
        assert bk.key == oracles.pbkdf2_sha256(
            b"password", v.PBKDF2_PADDED_SALT, 1, 32)


# ---------------------------------------------------------------------------
# key generation / agreement
# ---------------------------------------------------------------------------

class TestIdentityKeys:
    def test_distinct_pairs_from_real_entropy(self):
        a = generate_identity_keypair()
        b = generate_identity_keypair()
        assert a.private_key != b.private_key
        assert a.public_key != b.public_key

    def test_short_entropy_rejected(self):
        with pytest.raises(KeyGenerationError):
            generate_identity_keypair(fixed_rng(b"\x01" * 16))

    def test_failing_entropy_source(self):
        def broken(_n):
            raise OSError("no entropy")
        with pytest.raises(KeyGenerationError):
            generate_identity_keypair(broken)

    def test_private_scalar_is_clamped(self):
        pair = generate_identity_keypair(fixed_rng(b"\xff" * 32))
        assert pair.private_key[0] & 0x07 == 0
        assert pair.private_key[31] & 0x80 == 0
        assert pair.private_key[31] & 0x40 == 0x40

    def test_public_key_rederivable(self):
        pair = generate_identity_keypair()
        assert oracles.x25519_base(pair.private_key) == pair.public_key


class TestMasterSecret:
    def test_symmetry_on_fresh_pairs(self):
        a = generate_identity_keypair()
        b = generate_identity_keypair()
        assert (derive_master_secret(a, b.public_key).bytes_
                == derive_master_secret(b, a.public_key).bytes_)

    def test_zero_point_rejected(self):
        a = generate_identity_keypair()
        with pytest.raises(KeyAgreementError):
            derive_master_secret(a, b"\x00" * 32)

    def test_bad_lengths_rejected(self):
        with pytest.raises(KeyAgreementError):
            derive_master_secret(IdentityKeyPair(b"\x01" * 31, bytes(32)), b"\x02" * 32)
        with pytest.raises(KeyAgreementError):
            derive_master_secret(IdentityKeyPair(b"\x01" * 32, bytes(32)), b"\x02" * 33)


# ---------------------------------------------------------------------------
# chains and ratchet
# ---------------------------------------------------------------------------

class TestChains:
    def test_zero_master_frozen_vector(self):
        send, recv = init_chains(MasterSecret(Z32), "alice", "bob")
        assert send.key == v.CHAIN_ZERO_A2B
        assert recv.key == v.CHAIN_ZERO_B2A
        assert send.index == 0 and recv.index == 0

    def test_mirrored_between_parties(self):
        master = MasterSecret(b"\x42" * 32)
        a_send, a_recv = init_chains(master, "alice", "bob")
        b_send, b_recv = init_chains(master, "bob", "alice")
        assert a_send.key == b_recv.key
        assert a_recv.key == b_send.key

    def test_equal_ids_rejected(self):
        with pytest.raises(ValueError):
            init_chains(MasterSecret(Z32), "x", "x")

    def test_ratchet_zero_frozen_vector(self):
        mk, nxt = ratchet_forward(ChainKey(Z32, 0))
        assert mk.cipher_key == v.RATCHET_ZERO_CIPHER
        assert mk.mac_key == v.RATCHET_ZERO_MAC
        assert mk.iv == v.RATCHET_ZERO_IV
        assert nxt.key == v.RATCHET_ZERO_NEXT

    def test_index_increments(self):
        ck = ChainKey(b"\x07" * 32, 41)
        mk, nxt = ratchet_forward(ck)
        assert mk.index == 41
        assert nxt.index == 42

    def test_ten_thousand_steps_all_distinct(self):
        ck = ChainKey(b"\x01" * 32, 0)
        seen = set()
        for _ in range(10_000):
            mk, ck = ratchet_forward(ck)
            seen.add(mk.cipher_key)
        assert len(seen) == 10_000

    def test_synchrony_over_thousand_steps(self):
        master = MasterSecret(b"\x99" * 32)
        a_send, _ = init_chains(master, "alice", "bob")
        _, b_recv = init_chains(master, "bob", "alice")
        for _ in range(1_000):
            mk_a, a_send = ratchet_forward(a_send)
            mk_b, b_recv = ratchet_forward(b_recv)
            assert (mk_a.cipher_key, mk_a.mac_key, mk_a.iv) == \
                   (mk_b.cipher_key, mk_b.mac_key, mk_b.iv)


# ---------------------------------------------------------------------------
# seal / unseal
# ---------------------------------------------------------------------------

def make_mk(seed=b"\x33"):
    mk, _ = ratchet_forward(ChainKey(seed * 32, 0))
    return mk


class TestSealing:
    @pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 10_000])
    def test_roundtrip(self, size):
        mk = make_mk()
        plaintext = bytes(i % 251 for i in range(size))
        payload = seal(mk, plaintext, b"header")
        assert unseal(mk, payload, b"header") == plaintext

    def test_empty_plaintext_single_block(self):
        payload = seal(make_mk(), b"", b"ad")
        assert len(payload.ciphertext) == 16
        assert len(payload.mac) == 32

    def test_ciphertext_block_aligned(self):
        for size in (1, 16, 31):
            payload = seal(make_mk(), b"x" * size, b"")
            assert len(payload.ciphertext) % 16 == 0
            assert len(payload.ciphertext) > 0

    def test_deterministic(self):
        mk = make_mk()
        assert seal(mk, b"hello", b"ad") == seal(mk, b"hello", b"ad")

    def test_oversize_rejected(self):
        with pytest.raises(MessageTooLargeError):
            seal(make_mk(), b"\x00" * (crypto.MAX_PLAINTEXT + 1), b"")

    def test_flipped_ciphertext_bit_fails(self):
        mk = make_mk()
        payload = seal(mk, b"attack at dawn", b"ad")
        bad = bytearray(payload.ciphertext)
        bad[3] ^= 0x10
        with pytest.raises(AuthenticationError):
            unseal(mk, crypto.SealedPayload(bytes(bad), payload.mac), b"ad")

    def test_wrong_associated_data_fails(self):
        mk = make_mk()
        payload = seal(mk, b"msg", b"ad-1")
        with pytest.raises(AuthenticationError):
            unseal(mk, payload, b"ad-2")

    def test_mac_checked_before_decryption(self):
        # a ciphertext that is not even block-aligned still fails on the MAC
        mk = make_mk()
        payload = crypto.SealedPayload(ciphertext=b"\x01" * 7, mac=b"\x00" * 32)
        with pytest.raises(AuthenticationError):
            unseal(mk, payload, b"")

    def test_bad_padding_with_valid_mac_is_corruption(self):
        # craft a payload whose MAC is honest but whose plaintext unpads badly
        mk = make_mk()
        from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
        enc = Cipher(algorithms.AES(mk.cipher_key), modes.CBC(mk.iv)).encryptor()
        ct = enc.update(b"\x00" * 16) + enc.finalize()  # pad byte 0x00 is invalid
        mac = hmac_mod.new(mk.mac_key, b"ad" + ct, hashlib.sha256).digest()
        with pytest.raises(PayloadCorruptionError):
            unseal(mk, crypto.SealedPayload(ct, mac), b"ad")

    def test_unseal_failures_share_public_shape(self):
        # both failure modes surface as UnsealError with the same message
        mk = make_mk()
        payload = seal(mk, b"msg", b"ad")
        bad = crypto.SealedPayload(payload.ciphertext, b"\x00" * 32)
        with pytest.raises(UnsealError) as auth_err:
            unseal(mk, bad, b"ad")
        assert str(auth_err.value) == "payload failed verification"

    def test_exhaustive_bit_flips_short_payload(self):
        mk = make_mk()
        ad = b"hdr"
        payload = seal(mk, b"x", ad)
        blob = bytearray(payload.ciphertext + payload.mac)
        for byte_idx in range(len(blob)):
            for bit in range(8):
                mutated = bytearray(blob)
                mutated[byte_idx] ^= 1 << bit
                ct, mac = bytes(mutated[:-32]), bytes(mutated[-32:])
                with pytest.raises(UnsealError):
                    unseal(mk, crypto.SealedPayload(ct, mac), ad)


# ---------------------------------------------------------------------------
# backup key derivation
# ---------------------------------------------------------------------------

class TestBackupKey:
    def test_deterministic(self):
        salt = b"\xaa" * 16
        a = derive_backup_key("hunter2", salt, 10_000)
        b = derive_backup_key("hunter2", salt, 10_000)
        assert a == b

    def test_empty_secret_rejected(self):
        with pytest.raises(ValueError):
            derive_backup_key("", b"\x00" * 16, 10_000)

    def test_salt_length_enforced(self):
        with pytest.raises(ValueError):
            derive_backup_key("s", b"\x00" * 8, 10_000)

    @pytest.mark.parametrize("iterations, taken", [
        (0, False), (-1, False), (2**31, False), (2**32, False),
        (1, True), (2**31 - 1, True)])
    def test_count_outside_the_librarys_range_refused(self, monkeypatch, iterations, taken):
        """A count the library cannot take is a ``ValueError`` before PBKDF2
        is built. Past 2^31 - 1 the library panics, with an exception that
        ``except Exception`` does not catch."""
        built = []

        class Recording:
            def __init__(self, *args):
                built.append(args)

            def derive(self, data):
                return bytes(32)

        monkeypatch.setattr(crypto, "PBKDF2HMAC", Recording)
        if taken:
            derive_backup_key("pw", b"\x00" * 16, iterations)
        else:
            with pytest.raises(ValueError):
                derive_backup_key("pw", b"\x00" * 16, iterations)
        assert len(built) == taken

    def test_matches_oracle(self):
        salt = b"\x5a" * 16
        bk = derive_backup_key("pass phrase", salt, 10_000)
        assert bk.key == oracles.pbkdf2_sha256(b"pass phrase", salt, 10_000, 32)


# ---------------------------------------------------------------------------
# library binding
# ---------------------------------------------------------------------------

class TestLibraryBinding:
    def test_no_lookup_through_the_deprecation_proxy(self, monkeypatch, alice, bob):
        """Names from ``cryptography``'s deprecation-proxied modules are bound
        at import: the per-envelope path never reads through the proxy, whose
        every read first fails the normal lookup."""
        proxy = getattr(importlib.import_module("cryptography.utils"),
                        "_ModuleWithDeprecations", None)
        if proxy is None:
            pytest.skip("this cryptography has no deprecation proxy")
        callers = []
        forward = proxy.__getattr__

        def recording(module, name):
            callers.append(sys._getframe(1).f_globals.get("__name__", ""))
            return forward(module, name)

        monkeypatch.setattr(proxy, "__getattr__", recording)
        alice.start_session("bob")
        mk, _ = ratchet_forward(ChainKey(key=b"\x07" * 32, index=0))
        sealed = seal(mk, b"hello", b"ad")
        assert unseal(mk, sealed, b"ad") == b"hello"
        hkdf_sha256(Z32, Z32, b"info", 32)
        assert [c for c in callers if c.startswith("chainchat")] == []
        proxy(hashlib).sha256  # the recorder sees a read through the proxy
        assert callers[-1] == __name__
