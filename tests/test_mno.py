import base64
import dataclasses
import gc
import hashlib
import hmac
import json
import os
import sys
import threading
import tracemalloc

import pytest

import oracles
import vectors as v
from count_costs import counting_credential
from chainchat import chain as chain_mod
from chainchat import identity_sig
from chainchat import mno as mno_mod
from chainchat.chain import (
    KIND_CERTIFICATE,
    KIND_REVOCATION,
    REVOKED,
    VALID,
    ChainNode,
    WriterCredential,
    fetch_latest,
    load_chain,
    verify_record,
)
from chainchat.crypto import generate_identity_keypair
from chainchat.errors import EnrollmentError
from chainchat.mno import (
    MAX_USER_ID_BYTES,
    VALIDITY_SECONDS,
    EnrollmentRequest,
    MnoCertificateAuthority,
    possession_payload,
)


def prove(pair, user_id, challenge):
    return identity_sig.sign(
        pair, challenge, possession_payload(user_id, pair.public_key, challenge))


def enroll(mno, user_id, pair=None):
    pair = pair or generate_identity_keypair()
    proof = prove(pair, user_id, mno.new_challenge(user_id))
    record = mno.issue_certificate(EnrollmentRequest(user_id, pair.public_key, proof))
    return pair, record


def refused(mno, chain_node, request):
    """The request is refused as ``enrollment-refused`` and nothing lands."""
    height = chain_node.height
    with pytest.raises(EnrollmentError) as err:
        mno.issue_certificate(request)
    assert err.value.category == "enrollment-refused"
    assert chain_node.height == height
    return err.value


class TestEnrollment:
    def test_issue_and_fetch(self, mno, chain_node):
        _, record = enroll(mno, "alice")
        assert record.issuer_id == mno.credential.writer_id
        status = fetch_latest(chain_node, "alice")
        assert status.state == VALID
        assert status.record == record

    def test_proof_by_wrong_key_rejected(self, mno, chain_node):
        pair = generate_identity_keypair()
        wrong = generate_identity_keypair()
        challenge = mno.new_challenge("alice")
        proof = identity_sig.sign(
            wrong, challenge, possession_payload("alice", pair.public_key, challenge))
        refused(mno, chain_node, EnrollmentRequest("alice", pair.public_key, proof))

    def test_proof_for_another_user_refused(self, mno, chain_node):
        pair = generate_identity_keypair()
        challenge = mno.new_challenge("alice")
        proof = prove(pair, "bob", challenge)
        refused(mno, chain_node, EnrollmentRequest("alice", pair.public_key, proof))

    def test_missing_challenge_rejected(self, mno, chain_node):
        pair = generate_identity_keypair()
        proof = prove(pair, "alice", generate_identity_keypair().public_key)
        err = refused(mno, chain_node, EnrollmentRequest("alice", pair.public_key, proof))
        assert "no outstanding challenge" in str(err)

    def test_stale_challenge_refused(self, mno, chain_node):
        """A new challenge replaces the one before it; a proof for the old one
        fails and uses up the new one."""
        pair = generate_identity_keypair()
        stale = mno.new_challenge("alice")
        mno.new_challenge("alice")
        refused(mno, chain_node,
                EnrollmentRequest("alice", pair.public_key, prove(pair, "alice", stale)))
        assert json.loads(mno.dump_state())["pending_challenges"] == {}

    def test_challenge_consumed_no_replay(self, mno, chain_node):
        pair = generate_identity_keypair()
        challenge = mno.new_challenge("alice")
        request = EnrollmentRequest("alice", pair.public_key, prove(pair, "alice", challenge))
        mno.issue_certificate(request)
        refused(mno, chain_node, request)
        mno.new_challenge("alice")  # a fresh challenge does not revive the old proof
        refused(mno, chain_node, request)

    def test_signature_sized_proof_refused(self, mno, chain_node):
        """A 64-byte proof, the size of the signature that the MAC replaced,
        is refused, whatever its first 32 bytes."""
        pair = generate_identity_keypair()
        proof = prove(pair, "alice", mno.new_challenge("alice"))
        refused(mno, chain_node, EnrollmentRequest("alice", pair.public_key, proof + proof))

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
        assert fetch_latest(chain_node, "alice").state == REVOKED
        new_pair, new_record = enroll(mno, "alice")
        status = fetch_latest(chain_node, "alice")
        assert status.state == VALID
        assert status.record.subject_public_key == new_pair.public_key
        assert status.record == new_record

    def test_the_mno_sets_the_lifetime(self, mno, chain_node):
        """Neither the request nor the call carries a time, so no caller can
        date a certificate."""
        pair = generate_identity_keypair()
        request = EnrollmentRequest("alice", pair.public_key,
                                    prove(pair, "alice", mno.new_challenge("alice")))
        height = chain_node.height
        with pytest.raises(TypeError):
            mno.issue_certificate(request, 60)
        with pytest.raises(TypeError):
            mno.issue_certificate(request, now=1_000)
        assert chain_node.height == height
        record = mno.issue_certificate(request)
        assert record.expires_at - record.issued_at == VALIDITY_SECONDS

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
            proof = prove(pair, user, challenges[user])
            return mno.issue_certificate(EnrollmentRequest(user, pair.public_key, proof))

        for user in ("u1", "u2"):
            with pytest.raises(EnrollmentError, match="no outstanding challenge"):
                submit(user)
        for user in ("u0", "u3", "u4"):
            assert submit(user).user_id == user
        assert enroll(mno, "u1")[1].user_id == "u1"

    def test_low_order_keys_refused(self, mno, chain_node):
        """Nobody holds a private key for a low-order point. X25519 of any
        challenge key with one is the all-zero secret, so the only tag an
        attacker could compute is the one keyed from it; the exchange is
        refused for every encoding, canonical or not, so neither that tag
        nor a random one passes."""
        zero_key = oracles.hkdf_sha256(b"\x00" * 32, b"\x00" * 32, b"enroll-pop", 32)
        forgeries = (lambda payload: hmac.new(zero_key, payload, hashlib.sha256).digest(),
                     lambda payload: os.urandom(32))
        for u in v.LOW_ORDER_U:
            for key in (u.to_bytes(32, "little"), (u | 1 << 255).to_bytes(32, "little")):
                for forge in forgeries:
                    payload = possession_payload("mallory", key, mno.new_challenge("mallory"))
                    refused(mno, chain_node, EnrollmentRequest("mallory", key, forge(payload)))

    def test_a_user_id_over_the_cap_is_refused(self, mno, chain_node):
        """The cap counts UTF-8 bytes: 127 two-byte characters and one more
        byte fit, 128 two-byte characters do not."""
        longest = "\u00e9" * (MAX_USER_ID_BYTES // 2) + "a"
        assert len(longest.encode("utf-8")) == MAX_USER_ID_BYTES
        assert enroll(mno, longest)[1].user_id == longest
        over = "\u00e9" * (MAX_USER_ID_BYTES // 2 + 1)
        with pytest.raises(EnrollmentError) as err:
            mno.new_challenge(over)
        assert err.value.category == "enrollment-refused"
        assert json.loads(mno.dump_state())["pending_challenges"] == {}

    def test_a_submit_over_the_cap_is_refused_with_a_challenge_pending(
            self, mno, chain_node, monkeypatch):
        over = "u" * (MAX_USER_ID_BYTES + 1)
        pair = generate_identity_keypair()
        with monkeypatch.context() as patched:
            patched.setattr(mno_mod, "MAX_USER_ID_BYTES", len(over))
            proof = prove(pair, over, mno.new_challenge(over))
        refused(mno, chain_node, EnrollmentRequest(over, pair.public_key, proof))


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
        marker = chain_node.head.records[0]
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

    def test_dump_state_holds_no_challenge_private_half(self, mno, monkeypatch):
        pairs = []
        generate = mno_mod.crypto.generate_identity_keypair
        monkeypatch.setattr(mno_mod.crypto, "generate_identity_keypair",
                            lambda: pairs.append(generate()) or pairs[-1])
        mno.new_challenge("alice")
        blob = mno.dump_state()
        (pair,) = pairs
        assert pair.public_key.hex().encode() in blob
        for form in (pair.private_key, pair.private_key.hex().encode(),
                     base64.b64encode(pair.private_key)):
            assert form not in blob


class TestSignatureChecksUnderHeldKeys:
    """The chain checks a signature under a key the process holds by signing
    again, so the MNO's own records cost no Ed25519 verify, at append or at
    start-up, and the check of a record the credential has just signed reuses
    its signature; verifies counted at the name ``chain.py`` calls, signs at
    the library key."""

    @pytest.fixture
    def verifies(self, monkeypatch):
        calls = []
        verify = chain_mod.verify_edwards

        def counted(*args):
            calls.append(args)
            return verify(*args)

        monkeypatch.setattr(chain_mod, "verify_edwards", counted)
        return calls

    def test_issue_revoke_and_open_verify_nothing(self, mno_credential, relay_credential,
                                                   tmp_path, verifies):
        path = str(tmp_path / "chain.dat")
        counts = {"ed25519_signs": 0}
        credentials = [counting_credential(c, counts) for c in (mno_credential, relay_credential)]
        node = ChainNode.create([(c.writer_id, c.verification_key) for c in credentials],
                                path=path)
        mno = MnoCertificateAuthority(credentials[0], node)
        # each of issue and revoke: the record and the block; the record's
        # check before the block is signed reuses the record's signature
        for i in range(4):
            enroll(mno, f"user{i}")
            assert (counts["ed25519_signs"], len(verifies)) == (2 * (i + 1), 0)
        mno.revoke("user0")
        node.close()
        assert (counts["ed25519_signs"], len(verifies)) == (10, 0)
        records = 5
        counts["ed25519_signs"] = 0
        held = [counting_credential(WriterCredential.from_seed(c.writer_id, c.seed), counts)
                for c in credentials]
        opened, running = ChainNode.open(path, held), node
        opened.close()
        assert (opened.height, opened.head) == (running.height, running.head)
        # each record and the head's writer signature is re-signed
        assert (counts["ed25519_signs"], len(verifies)) == (records + 1, 0)
        counts["ed25519_signs"] = 0
        # holding no key, each record and the head's writer signature is verified
        ChainNode.open(path).close()
        assert (counts["ed25519_signs"], len(verifies)) == (0, records + 1)

    def test_concurrent_appends_under_one_credential(self, mno_credential, tmp_path):
        """Records made and appended by several threads at once under one
        credential each carry their own payload's signature, and a process
        holding no key accepts the file."""
        path = str(tmp_path / "chain.dat")
        node = ChainNode.create([(mno_credential.writer_id, mno_credential.verification_key)],
                                path=path)
        writers = 4
        start = threading.Barrier(writers)
        made = {n: [] for n in range(writers)}

        def writer(n):
            start.wait()
            for i in range(50):
                record = mno_credential.make_record(f"t{n}-{i}", bytes(range(1, 33)),
                                                    1_000, 2_000, KIND_CERTIFICATE)
                node.append(mno_credential, [record])
                made[n].append(record)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(n,)) for n in range(writers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        node.close()
        records = [record for n in range(writers) for record in made[n]]
        assert len(records) == 50 * writers
        assert all(verify_record(r, mno_credential.verification_key) for r in records)
        running, opened = node, ChainNode.open(path)
        opened.close()
        assert running.height == opened.height == len(records)
        assert all(running.newest(r.user_id) == opened.newest(r.user_id) == r for r in records)
        assert sorted(load_chain(path).latest) == sorted(r.user_id for r in records)


class TestHeldMemory:
    USERS = 1_000
    # a node holding each record's fields and no bytes held 449,540 B for
    # these users (CPython 3.11), about 450 B a user; one whose records
    # also kept their canonical bytes held about 720 B a user
    BOUND_PER_USER = 450 + 32

    def test_enrolled_records_keep_no_bytes(self, mno):
        """Users enrolled through the MNO on an in-memory node hold what
        their records' fields hold, after a full collection. One enrolment
        first loads what a process's first one loads."""
        enroll(mno, "warm-up")
        gc.collect()
        tracemalloc.start()
        try:
            for i in range(self.USERS):
                enroll(mno, f"user{i:04d}")
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert mno.chain_node.height == self.USERS + 1
        assert held <= self.USERS * self.BOUND_PER_USER
