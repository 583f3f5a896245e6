import dataclasses
import json
import os

import pytest

import vectors as v
from chainchat import chain as chain_mod
from chainchat import identity_sig
from chainchat.chain import KIND_REVOCATION, REVOKED, VALID, ChainNode, fetch_latest
from chainchat.crypto import generate_identity_keypair
from chainchat.errors import EnrollmentError
from chainchat.mno import (
    VALIDITY_SECONDS,
    EnrollmentRequest,
    MnoCertificateAuthority,
    possession_payload,
)


def enroll(mno, user_id, pair=None):
    pair = pair or generate_identity_keypair()
    challenge = mno.new_challenge(user_id)
    proof = identity_sig.sign(
        pair.private_key, possession_payload(user_id, pair.public_key, challenge))
    record = mno.issue_certificate(EnrollmentRequest(user_id, pair.public_key, proof))
    return pair, record


class TestEnrollment:
    def test_issue_and_fetch(self, mno, chain_node):
        _, record = enroll(mno, "alice")
        assert record.issuer_id == mno.mno_id
        status = fetch_latest(chain_node.snapshot(), "alice")
        assert status.state == VALID
        assert status.record == record

    def test_proof_by_wrong_key_rejected(self, mno):
        pair = generate_identity_keypair()
        wrong = generate_identity_keypair()
        challenge = mno.new_challenge("alice")
        proof = identity_sig.sign(
            wrong.private_key, possession_payload("alice", pair.public_key, challenge))
        with pytest.raises(EnrollmentError):
            mno.issue_certificate(EnrollmentRequest("alice", pair.public_key, proof))

    def test_missing_challenge_rejected(self, mno):
        pair = generate_identity_keypair()
        proof = identity_sig.sign(
            pair.private_key, possession_payload("alice", pair.public_key, b"\x00" * 32))
        with pytest.raises(EnrollmentError):
            mno.issue_certificate(EnrollmentRequest("alice", pair.public_key, proof))

    def test_challenge_consumed_no_replay(self, mno):
        pair = generate_identity_keypair()
        challenge = mno.new_challenge("alice")
        proof = identity_sig.sign(
            pair.private_key, possession_payload("alice", pair.public_key, challenge))
        request = EnrollmentRequest("alice", pair.public_key, proof)
        mno.issue_certificate(request)
        with pytest.raises(EnrollmentError):
            mno.issue_certificate(request)

    def test_subscriber_check_enforced(self, mno_credential, chain_node):
        strict = MnoCertificateAuthority(
            mno_credential, chain_node,
            subscriber_check=lambda user: user.startswith("sub-"))
        enroll(strict, "sub-carol")
        with pytest.raises(EnrollmentError):
            enroll(strict, "mallory")

    def test_reenrollment_after_revocation(self, mno, chain_node):
        enroll(mno, "alice")
        mno.revoke("alice")
        assert fetch_latest(chain_node.snapshot(), "alice").state == REVOKED
        new_pair, new_record = enroll(mno, "alice")
        status = fetch_latest(chain_node.snapshot(), "alice")
        assert status.state == VALID
        assert status.record.subject_public_key == new_pair.public_key
        assert status.record == new_record

    def test_the_mno_sets_the_lifetime(self, mno, chain_node):
        """The request carries no lifetime, and the issue time is keyword-only,
        so a stray positional argument cannot date a certificate."""
        pair = generate_identity_keypair()
        challenge = mno.new_challenge("alice")
        proof = identity_sig.sign(
            pair.private_key, possession_payload("alice", pair.public_key, challenge))
        request = EnrollmentRequest("alice", pair.public_key, proof)
        height = len(chain_node.snapshot().blocks)
        with pytest.raises(TypeError):
            mno.issue_certificate(request, 60)
        assert len(chain_node.snapshot().blocks) == height
        record = mno.issue_certificate(request, now=1_000)
        assert (record.issued_at, record.expires_at) == (1_000, 1_000 + VALIDITY_SECONDS)

    def test_pending_challenges_capped_oldest_dropped(self, mno, monkeypatch):
        """Past CHALLENGE_CAP the oldest pending challenge goes, and a repeated
        request makes its id the newest; a dropped enrollment asks again."""
        monkeypatch.setattr("chainchat.mno.CHALLENGE_CAP", 3)
        users = ["u0", "u1", "u2", "u3", "u4"]
        pairs = {user: generate_identity_keypair() for user in users}
        challenges = {}
        for user in ["u0", "u1", "u2", "u0", "u3", "u4"]:  # u0 asks twice
            challenges[user] = mno.new_challenge(user)
        pending = json.loads(mno.dump_state())["pending_challenges"]
        assert sorted(pending) == ["u0", "u3", "u4"]

        def submit(user):
            pair = pairs[user]
            proof = identity_sig.sign(pair.private_key, possession_payload(
                user, pair.public_key, challenges[user]))
            return mno.issue_certificate(EnrollmentRequest(user, pair.public_key, proof))

        for user in ("u1", "u2"):
            with pytest.raises(EnrollmentError, match="no outstanding challenge"):
                submit(user)
        for user in ("u0", "u3", "u4"):
            assert submit(user).user_id == user
        assert enroll(mno, "u1")[1].user_id == "u1"

    def test_low_order_keys_refused(self, mno, chain_node):
        """R = s*B, S = s passes the cofactorless check whenever h*A is the
        neutral point, i.e. for 1 in 2 to 1 in 8 challenges under a low-order
        key. Every such forgery must be refused."""
        height = len(chain_node.snapshot().blocks)
        for u in v.LOW_ORDER_U:
            key = u.to_bytes(32, "little")
            for _ in range(64):
                mno.new_challenge("mallory")
                s = int.from_bytes(os.urandom(64), "little") % identity_sig.L
                r_enc = identity_sig._compress(identity_sig._base_mul(s))
                forged = r_enc + s.to_bytes(32, "little")
                with pytest.raises(EnrollmentError):
                    mno.issue_certificate(EnrollmentRequest("mallory", key, forged))
        assert len(chain_node.snapshot().blocks) == height


class TestVerifyCertificate:
    def test_fresh_record_verifies(self, mno):
        _, record = enroll(mno, "alice")
        assert mno.verify_certificate(record)

    def test_altered_user_id_fails(self, mno):
        _, record = enroll(mno, "alice")
        altered = dataclasses.replace(record, user_id="bob")
        assert not mno.verify_certificate(altered)

    def test_revocation_records_verify(self, mno, chain_node):
        enroll(mno, "alice")
        mno.revoke("alice")
        marker = chain_node.snapshot().blocks[-1].records[0]
        assert marker.kind == KIND_REVOCATION
        assert mno.verify_certificate(marker)

    def test_thousand_random_forgeries_rejected(self, mno):
        """No record constructed without the signing key verifies."""
        _, record = enroll(mno, "alice")
        rng = os.urandom
        for _ in range(1_000):
            forged = dataclasses.replace(record, issuer_signature=rng(64))
            assert not mno.verify_certificate(forged)

    def test_dump_state_excludes_signing_key(self, mno):
        mno.new_challenge("alice")
        blob = mno.dump_state()
        assert mno.credential.seed not in blob
        assert b"alice" in blob


class TestSignatureChecksUnderHeldKeys:
    """The chain checks a signature under a key the process holds by signing
    again, so the MNO's own records cost no Ed25519 verify, at append or
    at start-up; counted at the names ``chain.py`` calls."""

    @pytest.fixture
    def verifies(self, monkeypatch):
        calls = []
        verify = chain_mod.verify_edwards

        def counted(*args):
            calls.append(args)
            return verify(*args)

        monkeypatch.setattr(chain_mod, "verify_edwards", counted)
        return calls

    @pytest.fixture
    def signs(self, monkeypatch):
        calls = []
        sign = chain_mod.WriterCredential.sign

        def counted(credential, payload):
            calls.append(payload)
            return sign(credential, payload)

        monkeypatch.setattr(chain_mod.WriterCredential, "sign", counted)
        return calls

    def test_issue_revoke_and_open_verify_nothing(self, mno_credential, relay_credential,
                                                   tmp_path, verifies, signs):
        path = str(tmp_path / "chain.dat")
        credentials = [mno_credential, relay_credential]
        node = ChainNode.create([(c.writer_id, c.verification_key) for c in credentials],
                                path=path)
        mno = MnoCertificateAuthority(mno_credential, node)
        # each of issue and revoke: the record, its re-signed check, the block
        for i in range(4):
            enroll(mno, f"user{i}")
            assert (len(signs), len(verifies)) == (3 * (i + 1), 0)
        mno.revoke("user0")
        assert (len(signs), len(verifies)) == (15, 0)
        records = 5
        signs.clear()
        assert ChainNode.open(path, credentials).snapshot() == node.snapshot()
        # each record and the head's writer signature is re-signed
        assert (len(signs), len(verifies)) == (records + 1, 0)
        signs.clear()
        # holding no key, each record and the head's writer signature is verified
        ChainNode.open(path)
        assert (len(signs), len(verifies)) == (0, records + 1)
