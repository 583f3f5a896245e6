import hashlib
import itertools
import json
import re
import struct
import time
from dataclasses import replace
from pathlib import Path

import pytest

from chainchat import client as client_mod
from chainchat import crypto
from chainchat.chain import CertificateRecord
from chainchat.client import (_FRAME_TEXT, BACKUP_MAGIC, BACKUP_MAX_ITERATIONS, BackupArchive,
                              Client)
from chainchat.errors import (
    AuthenticationError,
    BackupFormatError,
    FingerprintMismatchError,
    GroupPermissionError,
    InstallError,
    NoSessionError,
    ReplayError,
    ResyncError,
    SessionRefusedError,
    UnknownGroupError,
    UnsealError,
    WireProtocolError,
)
from chainchat.mno import MnoCertificateAuthority
from chainchat.relay import Envelope
from chainchat.crypto import SealedPayload
from chainchat.encoding import encode_bytes, encode_str

import oracles


def is_registered(relay, user_id):
    return user_id in json.loads(relay.dump_state())["registry"]


# ---------------------------------------------------------------------------
# install
# ---------------------------------------------------------------------------

class TestInstall:
    def test_fresh_install(self, mno, relay, chain_node):
        client = Client.install("carol", mno, relay)
        assert relay.fetch_certificate("carol").is_valid
        assert is_registered(relay, "carol")
        assert client.certificate.subject_public_key == client.identity.public_key

    def test_second_install_supersedes(self, mno, relay):
        first = Client.install("carol", mno, relay)
        second = Client.install("carol", mno, relay)
        status = relay.fetch_certificate("carol")
        assert status.record.fingerprint == second.cert_fingerprint
        assert status.record.fingerprint != first.cert_fingerprint

    def test_failed_possession_proof_attributed_to_enrollment(self, mno_credential,
                                                              chain_node, relay):
        rejecting = MnoCertificateAuthority(mno_credential, chain_node,
                                            subscriber_check=lambda u: False)
        with pytest.raises(InstallError) as err:
            Client.install("carol", rejecting, relay)
        assert err.value.phase == "enrollment"


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

class TestSessions:
    def test_chains_mirror(self, connected_pair):
        alice, bob = connected_pair
        assert alice.sessions["bob"].send_chain.key == bob.sessions["alice"].recv_chain.key
        assert alice.sessions["bob"].recv_chain.key == bob.sessions["alice"].send_chain.key

    def test_revoked_peer_refused(self, mno, alice, bob):
        mno.revoke("bob")
        with pytest.raises(SessionRefusedError) as err:
            alice.start_session("bob")
        assert err.value.category == "peer-revoked"

    def test_certificate_of_another_user_refused(self, mno, relay, alice, bob):
        """A directory that answers one id with another user's validly signed
        record would have the client pin that user's key: nothing is pinned."""
        Client.install("mallory", mno, relay)

        class WrongRecordDirectory:
            def fetch_certificate(self, user_id):
                return relay.fetch_certificate("mallory")

        alice.directory = WrongRecordDirectory()
        with pytest.raises(WireProtocolError) as err:
            alice.start_session("bob")
        assert err.value.category == "protocol-error"
        assert alice.sessions == {}
        creation = alice.create_group("team", ["alice", "bob"])
        assert creation.excluded == {"bob": "protocol-error"}
        assert creation.envelopes == []

    def test_unknown_peer_refused(self, alice):
        with pytest.raises(SessionRefusedError) as err:
            alice.start_session("nobody")
        assert err.value.category == "peer-not-found"

    def test_session_with_self_rejected(self, alice):
        with pytest.raises(ValueError):
            alice.start_session("alice")


# ---------------------------------------------------------------------------
# send / receive
# ---------------------------------------------------------------------------

class TestSendReceive:
    def test_counters_progress_and_keys_differ(self, connected_pair):
        alice, bob = connected_pair
        envelopes = [alice.send_text("bob", f"m{i}") for i in range(3)]
        assert [e.counter for e in envelopes] == [0, 1, 2]
        ciphertexts = {e.payload.ciphertext for e in envelopes}
        assert len(ciphertexts) == 3
        assert alice.sessions["bob"].send_chain.index == 3

    def test_in_order_delivery(self, connected_pair):
        alice, bob = connected_pair
        for i in range(3):
            assert bob.receive_envelope(alice.send_text("bob", f"m{i}")) == f"m{i}"
        assert bob.sessions["alice"].recv_chain.index == 3

    def test_empty_string_roundtrip(self, connected_pair):
        alice, bob = connected_pair
        assert bob.receive_envelope(alice.send_text("bob", "")) == ""

    def test_no_session_usage_error(self, alice, bob):
        """A client rebuilt from storage has no directory to open a session
        with until its caller attaches one."""
        stored = Client.from_state_bytes(alice.to_state_bytes())
        with pytest.raises(NoSessionError):
            stored.send_text("bob", "hello")
        assert stored.sessions == {} and stored.history == []

    def test_send_to_a_peer_without_certificate_refused(self, alice):
        """As ``start_session`` refuses it, and nothing is sealed."""
        with pytest.raises(SessionRefusedError) as err:
            alice.send_text("bob", "hello")
        assert err.value.category == "peer-not-found"
        assert alice.sessions == {} and alice.history == []

    def test_send_opens_the_session_for_a_new_peer(self, alice, bob):
        envelope = alice.send_text("bob", "hello")
        assert alice.sessions["bob"].peer_cert_fingerprint == bob.cert_fingerprint
        assert bob.receive_envelope(envelope) == "hello"

    def test_send_refused_after_revocation(self, mno, relay, connected_pair):
        alice, bob = connected_pair
        relay.submit_envelope(alice.send_text("bob", "before"))
        mno.revoke("bob")
        with pytest.raises(SessionRefusedError) as err:
            relay.submit_envelope(alice.send_text("bob", "after"))
        assert err.value.category == "peer-revoked"

    def test_send_detects_reissued_peer(self, mno, relay, connected_pair):
        alice, bob = connected_pair
        Client.install("bob", mno, relay)  # bob re-installs behind alice's back
        with pytest.raises(FingerprintMismatchError):
            relay.submit_envelope(alice.send_text("bob", "stale session"))

    def test_refused_submit_leaves_the_send_counter_advanced(self, mno, relay,
                                                             connected_pair):
        # the session is dead (revoked peer), so the spent counter is never reused
        alice, bob = connected_pair
        mno.revoke("bob")
        with pytest.raises(SessionRefusedError):
            relay.submit_envelope(alice.send_text("bob", "refused"))
        assert alice.sessions["bob"].send_chain.index == 1

    def test_own_fingerprint_is_hashed_once(self, connected_pair, monkeypatch):
        """Sends reuse the fingerprint hashed at construction: no record is
        serialized, so none is hashed, while they run."""
        alice, bob = connected_pair
        fingerprint = hashlib.sha256(alice.certificate.canonical_bytes()).digest()
        calls = []
        canonical_bytes = CertificateRecord.canonical_bytes

        def counted(record):
            calls.append(record)
            return canonical_bytes(record)

        monkeypatch.setattr(CertificateRecord, "canonical_bytes", counted)
        envelopes = [alice.send_text("bob", f"m{i}") for i in range(3)]
        assert calls == []
        assert {e.sender_cert_fingerprint for e in envelopes} == {fingerprint}
        assert alice.cert_fingerprint == fingerprint

    def test_history_records_both_directions(self, connected_pair):
        alice, bob = connected_pair
        bob.receive_envelope(alice.send_text("bob", "ping"))
        alice.receive_envelope(bob.send_text("alice", "pong"))
        assert [(e.direction, e.text) for e in alice.history] == [
            ("sent", "ping"), ("received", "pong")]


class TestOutOfOrder:
    def test_all_permutations_of_three(self, mno, relay):
        """Every delivery order of three messages decrypts completely."""
        for perm in itertools.permutations(range(3)):
            alice = Client.install(f"a{perm[0]}{perm[1]}{perm[2]}", mno, relay)
            bob = Client.install(f"b{perm[0]}{perm[1]}{perm[2]}", mno, relay)
            alice.start_session(bob.user_id)
            bob.start_session(alice.user_id)
            envelopes = [alice.send_text(bob.user_id, f"m{i}") for i in range(3)]
            got = {}
            for idx in perm:
                got[idx] = bob.receive_envelope(envelopes[idx])
            assert got == {0: "m0", 1: "m1", 2: "m2"}
            assert bob.sessions[alice.user_id].skipped_keys == {}

    def test_skipped_key_stored_then_consumed(self, connected_pair):
        alice, bob = connected_pair
        e0, e1, e2 = [alice.send_text("bob", f"m{i}") for i in range(3)]
        assert bob.receive_envelope(e0) == "m0"
        assert bob.receive_envelope(e2) == "m2"
        assert set(bob.sessions["alice"].skipped_keys) == {1}
        assert bob.receive_envelope(e1) == "m1"
        assert bob.sessions["alice"].skipped_keys == {}

    def test_replay_rejected(self, connected_pair):
        alice, bob = connected_pair
        envelope = alice.send_text("bob", "once")
        assert bob.receive_envelope(envelope) == "once"
        with pytest.raises(ReplayError):
            bob.receive_envelope(envelope)

    def test_replay_of_skipped_key_message(self, connected_pair):
        alice, bob = connected_pair
        e0, e1 = alice.send_text("bob", "m0"), alice.send_text("bob", "m1")
        bob.receive_envelope(e1)  # skips m0
        bob.receive_envelope(e0)  # consumes the parked key
        with pytest.raises(ReplayError):
            bob.receive_envelope(e0)

    def test_gap_beyond_bound_is_resync_error(self, mno, relay, monkeypatch):
        monkeypatch.setattr(client_mod, "MAX_SKIPPED", 5)
        alice = Client.install("au", mno, relay)
        bob = Client.install("bu", mno, relay)
        alice.start_session("bu")
        bob.start_session("au")
        for i in range(7):
            envelope = alice.send_text("bu", f"m{i}")
        with pytest.raises(ResyncError):
            bob.receive_envelope(envelope)  # counter 6 > bound 5
        assert bob.sessions["au"].recv_chain.index == 0  # untouched

    def test_mac_failure_leaves_state_unchanged(self, connected_pair):
        alice, bob = connected_pair
        envelope = alice.send_text("bob", "truth")
        bad_ct = bytearray(envelope.payload.ciphertext)
        bad_ct[0] ^= 0x01
        forged = Envelope(
            sender_id=envelope.sender_id,
            recipient_id=envelope.recipient_id,
            counter=envelope.counter,
            sender_cert_fingerprint=envelope.sender_cert_fingerprint,
            group_id=envelope.group_id,
            payload=SealedPayload(bytes(bad_ct), envelope.payload.mac),
            sent_at=envelope.sent_at,
        )
        with pytest.raises(AuthenticationError):
            bob.receive_envelope(forged)
        assert bob.sessions["alice"].recv_chain.index == 0
        assert bob.sessions["alice"].skipped_keys == {}
        # the pristine envelope still decrypts
        assert bob.receive_envelope(envelope) == "truth"

    def test_header_mutation_detected(self, connected_pair):
        """A relay that rewrites any header field breaks the MAC binding."""
        alice, bob = connected_pair
        envelope = alice.send_text("bob", "bound")
        tampered = Envelope(
            sender_id=envelope.sender_id,
            recipient_id=envelope.recipient_id,
            counter=envelope.counter,
            sender_cert_fingerprint=envelope.sender_cert_fingerprint,
            group_id=envelope.group_id,
            payload=envelope.payload,
            sent_at=envelope.sent_at + 1,  # relay fudges the timestamp
        )
        with pytest.raises(AuthenticationError):
            bob.receive_envelope(tampered)

    def test_fingerprint_pinning_rejects_before_decryption(self, mno, relay,
                                                           connected_pair):
        alice, bob = connected_pair
        envelope = alice.send_text("bob", "old identity")
        reborn = Client.install("alice", mno, relay)  # alice re-installs
        reborn.start_session("bob")
        fresh = reborn.send_text("bob", "new identity")
        # bob pinned the original certificate; the new one must be rejected
        with pytest.raises(FingerprintMismatchError):
            bob.receive_envelope(fresh)
        # restarting the session against the new certificate heals it
        bob.start_session("alice")
        assert bob.receive_envelope(fresh) == "new identity"


class TestForgedEnvelopes:
    """Envelopes far ahead of the receive chain with a bad MAC, which the
    relay cannot tell from real ones: the gap in front of the first is
    derived once, kept in memory, and reused for the rest."""

    @staticmethod
    def forge(envelope, counter):
        return replace(envelope, counter=counter,
                       payload=SealedPayload(bytes(16), bytes(32)))

    @pytest.fixture
    def ratchet_calls(self, monkeypatch):
        calls = []
        ratchet = crypto.ratchet_forward
        monkeypatch.setattr(crypto, "ratchet_forward",
                            lambda ck: calls.append(ck.index) or ratchet(ck))
        return calls

    def test_forged_pull_derives_the_gap_once(self, relay, alice, bob, ratchet_calls):
        real = alice.send_text("bob", "after the forgeries")
        forged = self.forge(real, client_mod.MAX_SKIPPED - 1)
        for _ in range(200):
            relay.submit_envelope(forged)
        relay.submit_envelope(real)
        deliveries = bob.pull_messages()
        assert [d.error for d in deliveries] == ["auth-failed"] * 200 + [None]
        assert deliveries[-1].text == "after the forgeries"
        assert len(ratchet_calls) <= client_mod.MAX_SKIPPED + 200
        assert bob.sessions["alice"].lookahead is None  # the chain moved

    def test_forgery_at_the_chains_own_counter_keeps_its_one_step(self, connected_pair,
                                                                  ratchet_calls):
        """A forged envelope at the receive chain's own counter, then the
        real one: the in-order step is derived once, kept as the lookahead
        across the refusal, and spent by the real envelope."""
        alice, bob = connected_pair
        real = alice.send_text("bob", "in order")
        before = bob.to_state_bytes()
        ratchet_calls.clear()
        with pytest.raises(AuthenticationError):
            bob.receive_envelope(self.forge(real, real.counter))
        assert bob.to_state_bytes() == before
        assert bob.receive_envelope(real) == "in order"
        assert ratchet_calls == [real.counter]
        assert bob.sessions["alice"].lookahead is None
        with pytest.raises(ReplayError) as err:
            bob.receive_envelope(real)
        assert err.value.category == "replay-detected"

    def test_forged_envelopes_leave_the_state_bytes_alone(self, connected_pair):
        alice, bob = connected_pair
        real = [alice.send_text("bob", f"m{i}") for i in range(3)]
        before = bob.to_state_bytes()
        for _ in range(20):
            with pytest.raises(AuthenticationError):
                bob.receive_envelope(self.forge(real[0], 500))
        assert bob.sessions["alice"].lookahead is not None
        assert bob.to_state_bytes() == before
        assert Client.from_state_bytes(before).sessions["alice"].lookahead is None

    def test_real_envelopes_inside_the_gap_deliver(self, connected_pair, ratchet_calls):
        """Keys taken from the lookahead open real envelopes in any order."""
        alice, bob = connected_pair
        real = [alice.send_text("bob", f"m{i}") for i in range(5)]
        ratchet_calls.clear()
        with pytest.raises(AuthenticationError):
            bob.receive_envelope(self.forge(real[0], 9))
        assert len(ratchet_calls) == 10
        assert bob.receive_envelope(real[3]) == "m3"
        assert sorted(bob.sessions["alice"].skipped_keys) == [0, 1, 2]
        assert [bob.receive_envelope(real[i]) for i in (0, 4, 2, 1)] == ["m0", "m4", "m2", "m1"]
        assert len(ratchet_calls) == 11  # m4 followed the moved chain
        assert bob.sessions["alice"].skipped_keys == {}

    def test_group_chain_lookahead_lapses_when_the_chain_moves(self, mno, relay,
                                                              ratchet_calls):
        clients, _ = installed_group(mno, relay, 2)
        admin, member = clients
        sent = admin.send_group_message("team", "g0")
        forged = self.forge(sent, 50)
        with pytest.raises(AuthenticationError):
            member.receive_envelope(forged)
        member.send_group_message("team", "moves the shared chain")
        ratchet_calls.clear()
        with pytest.raises(AuthenticationError):
            member.receive_envelope(forged)
        assert len(ratchet_calls) == 50  # derived again from the moved chain


# ---------------------------------------------------------------------------
# pull via relay
# ---------------------------------------------------------------------------

class TestPullMessages:
    def test_pull_and_cursor(self, relay, connected_pair):
        alice, bob = connected_pair
        for i in range(3):
            relay.submit_envelope(alice.send_text("bob", f"m{i}"))
        deliveries = bob.pull_messages()
        assert [d.text for d in deliveries] == ["m0", "m1", "m2"]
        assert bob.pull_messages() == []  # cursor advanced

    def test_pull_reports_errors_per_envelope(self, relay, connected_pair):
        alice, bob = connected_pair
        envelope = alice.send_text("bob", "fine")
        relay.submit_envelope(envelope)
        assert [d.text for d in bob.pull_messages()] == ["fine"]
        relay.submit_envelope(envelope)  # duplicate submission: replay at bob
        outcomes = bob.pull_messages()
        assert len(outcomes) == 1
        assert outcomes[0].error == "replay-detected"

    def test_out_of_range_envelope_does_not_block_the_mailbox(self, connected_pair):
        """A counter or send time past u64 has no associated data: such an
        envelope is one protocol-error delivery, and the next one still
        arrives, so a client's cursor gets past it."""
        alice, bob = connected_pair
        good = alice.send_text("bob", "after the bad ones")

        class HostileMailbox:
            def fetch_envelopes(self, user_id, after_seq):
                return [(1, replace(good, counter=2**64)),
                        (2, replace(good, sent_at=2**64)),
                        (3, good)]

        bob.transport = HostileMailbox()
        deliveries = bob.pull_messages()
        assert [d.error for d in deliveries] == ["protocol-error", "protocol-error", None]
        assert deliveries[-1].text == "after the bad ones"
        assert bob.inbox_cursor == 3

    def test_self_addressed_envelope_does_not_block_the_mailbox(self, relay,
                                                                connected_pair):
        """An envelope from bob to bob, and one from bob to carol, queued in
        bob's mailbox past the relay's checks, are one protocol-error delivery
        each; no session with bob opens, and the next text still arrives."""
        alice, bob = connected_pair
        sealed = alice.send_text("bob", "sealed by alice")
        for recipient in ("bob", "carol"):
            relay._mailboxes["bob"].put(replace(sealed, sender_id="bob", recipient_id=recipient,
                                                sender_cert_fingerprint=bob.cert_fingerprint))
        relay.submit_envelope(alice.send_text("bob", "after"))
        deliveries = bob.pull_messages()
        assert [(d.text, d.error) for d in deliveries] == [(None, "protocol-error")] * 2 + [
            ("after", None)]
        assert "bob" not in bob.sessions
        assert bob.pull_messages() == []

    def test_non_utf8_text_does_not_block_the_mailbox(self, relay, connected_pair):
        """A text frame whose MAC holds but whose bytes are not UTF-8 is one
        protocol-error delivery; its key stays spent and the next text arrives."""
        alice, bob = connected_pair
        relay.submit_envelope(alice.send_text("bob", "before"))
        relay.submit_envelope(alice._seal_to(alice.sessions["bob"], _FRAME_TEXT + b"\xff"))
        relay.submit_envelope(alice.send_text("bob", "after"))
        assert [(d.text, d.error) for d in bob.pull_messages()] == [
            ("before", None), (None, "protocol-error"), ("after", None)]
        assert bob.sessions["alice"].recv_chain.index == 3
        assert [e.text for e in bob.history] == ["before", "after"]
        assert bob.pull_messages() == []

    def test_auto_session_on_first_contact(self, relay, alice, bob):
        alice.start_session("bob")
        relay.submit_envelope(alice.send_text("bob", "hi stranger"))
        deliveries = bob.pull_messages()  # bob had no session with alice
        assert [d.text for d in deliveries] == ["hi stranger"]
        assert "alice" in bob.sessions

    def test_receive_opens_the_session_for_a_new_sender(self, alice, bob):
        alice.start_session("bob")
        assert bob.receive_envelope(alice.send_text("bob", "first contact")) == "first contact"
        assert bob.sessions["alice"].recv_chain.index == 1
        detached = Client.from_state_bytes(bob.to_state_bytes())
        del detached.sessions["alice"]
        with pytest.raises(NoSessionError):  # no directory to fetch the certificate from
            detached.receive_envelope(alice.send_text("bob", "second"))


# ---------------------------------------------------------------------------
# backup / restore
# ---------------------------------------------------------------------------

class TestBackup:
    def test_roundtrip_canonical_equality(self, relay, connected_pair):
        alice, bob = connected_pair
        bob.receive_envelope(alice.send_text("bob", "keep me"))
        alice.receive_envelope(bob.send_text("alice", "and me"))
        archive = alice.export_backup("open sesame")
        restored = Client.restore_backup(archive, "open sesame")
        assert restored.to_state_bytes() == alice.to_state_bytes()

    def test_wrong_secret_authentication_error(self, alice):
        archive = alice.export_backup("right")
        with pytest.raises(AuthenticationError):
            Client.restore_backup(archive, "wrong")

    def test_two_exports_differ_but_both_restore(self, alice):
        a1 = alice.export_backup("s3cret")
        a2 = alice.export_backup("s3cret")
        assert a1.salt != a2.salt
        assert a1.to_bytes() != a2.to_bytes()
        for archive in (a1, a2):
            restored = Client.restore_backup(archive, "s3cret")
            assert restored.to_state_bytes() == alice.to_state_bytes()

    def test_flipped_payload_byte_rejected(self, alice):
        blob = bytearray(alice.export_backup("pw").to_bytes())
        blob[40] ^= 0x01  # inside the ciphertext
        with pytest.raises(UnsealError):
            Client.restore_backup(bytes(blob), "pw")

    def test_empty_archive_format_error(self):
        with pytest.raises(BackupFormatError):
            Client.restore_backup(b"", "pw")

    def test_iteration_ceiling_refused_before_any_derivation(self, alice, monkeypatch):
        """PBKDF2 runs before the MAC can refuse a header, so a count outside
        1 to the ceiling is refused first."""
        blob = bytearray(alice.export_backup("pw").to_bytes())
        counts = []
        derive = crypto.PBKDF2HMAC

        def counted_pbkdf2(algorithm, length, salt, iterations):
            counts.append(iterations)
            return derive(algorithm, length, salt, 1)

        monkeypatch.setattr(crypto, "PBKDF2HMAC", counted_pbkdf2)
        for count in (0, BACKUP_MAX_ITERATIONS + 1, 2**32 - 1):
            blob[21:25] = struct.pack(">I", count)
            with pytest.raises(BackupFormatError):
                Client.restore_backup(bytes(blob), "pw")
        assert counts == []
        blob[21:25] = struct.pack(">I", BACKUP_MAX_ITERATIONS)
        assert BackupArchive.from_bytes(bytes(blob)).iterations == BACKUP_MAX_ITERATIONS
        with pytest.raises(UnsealError):  # the changed count fails the MAC
            Client.restore_backup(bytes(blob), "pw")
        assert counts == [BACKUP_MAX_ITERATIONS]  # the stand-in sees a derivation

    def test_bad_magic_format_error(self, alice):
        blob = bytearray(alice.export_backup("pw").to_bytes())
        blob[0] ^= 0xFF
        with pytest.raises(BackupFormatError):
            Client.restore_backup(bytes(blob), "pw")

    def test_archive_layout_bit_exact(self, alice):
        archive = alice.export_backup("pw")
        blob = archive.to_bytes()
        assert blob[:5] == BACKUP_MAGIC
        assert blob[5:21] == archive.salt
        assert struct.unpack(">I", blob[21:25])[0] == archive.iterations
        (ct_len,) = struct.unpack(">I", blob[25:29])
        assert ct_len == len(archive.payload.ciphertext)
        assert blob[29:29 + ct_len] == archive.payload.ciphertext
        assert blob[29 + ct_len:] == archive.payload.mac
        assert len(blob[29 + ct_len:]) == 32
        # manual reassembly reproduces the identical archive
        rebuilt = BackupArchive.from_bytes(blob)
        assert rebuilt.to_bytes() == blob

    def test_stale_restore_sees_replays(self, relay, connected_pair):
        alice, bob = connected_pair
        e0 = alice.send_text("bob", "m0")
        assert bob.receive_envelope(e0) == "m0"
        archive = bob.export_backup("pw")  # snapshot after consuming m0
        e1 = alice.send_text("bob", "m1")
        assert bob.receive_envelope(e1) == "m1"
        older = Client.restore_backup(archive, "pw")
        # m1 arrived after the snapshot: decryptable again from restored state
        assert older.receive_envelope(e1) == "m1"
        # m0 was consumed before the snapshot: replay
        with pytest.raises(ReplayError):
            older.receive_envelope(e0)

    def test_empty_secret_rejected(self, alice):
        with pytest.raises(ValueError):
            alice.export_backup("")

    def test_ratchet_determinism_on_restored_state(self, connected_pair):
        """Replaying the same envelope sequence into a restored snapshot gives
        the same plaintexts and the same final indices."""
        alice, bob = connected_pair
        archive = bob.export_backup("pw")
        envelopes = [alice.send_text("bob", f"m{i}") for i in range(5)]
        first_run = [bob.receive_envelope(e) for e in envelopes]
        final_index = bob.sessions["alice"].recv_chain.index
        replayed = Client.restore_backup(archive, "pw")
        second_run = [replayed.receive_envelope(e) for e in envelopes]
        assert second_run == first_run
        assert replayed.sessions["alice"].recv_chain.index == final_index
        assert replayed.sessions["alice"].recv_chain.key == \
               bob.sessions["alice"].recv_chain.key


class TestForwardSecrecy:
    def test_retained_state_cannot_decrypt_consumed_messages(self, connected_pair):
        """After delivery, nothing a client still holds opens old envelopes:
        consumed message keys are gone and the chains have moved past them."""
        from chainchat import crypto

        alice, bob = connected_pair
        envelopes = [alice.send_text("bob", f"m{i}") for i in range(5)]
        for envelope in envelopes:
            bob.receive_envelope(envelope)
        session = bob.sessions["alice"]
        assert session.skipped_keys == {}  # nothing parked

        target = envelopes[0]
        ad = target.associated_data()
        retained = [session.recv_chain, session.send_chain,
                    bob.sessions["alice"].recv_chain]
        # walk every retained chain forward a long way; none of the derived
        # keys may open the already-consumed envelope
        for chain in retained:
            probe = chain
            for _ in range(50):
                mk, probe = crypto.ratchet_forward(probe)
                with pytest.raises(UnsealError):
                    crypto.unseal(mk, target.payload, ad)
        # the master secret re-derives the root, but the client no longer
        # stores any chain at an index <= 0 for this direction
        assert session.recv_chain.index == 5


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def installed_group(mno, relay, n=3):
    clients = [Client.install(f"u{i}", mno, relay) for i in range(n)]
    admin = clients[0]
    creation = admin.create_group("team", [c.user_id for c in clients])
    relay.create_group("team", admin.user_id, creation.member_ids)
    for envelope in creation.envelopes:
        relay.submit_envelope(envelope)
    for client in clients[1:]:
        client.pull_messages()
    return clients, creation


class TestGroups:
    def test_distribution_envelope_count(self, mno, relay):
        clients, creation = installed_group(mno, relay, 3)
        assert len(creation.envelopes) == 2
        assert creation.excluded == {}

    def test_members_share_group_key(self, mno, relay):
        clients, _ = installed_group(mno, relay, 3)
        keys = {c.groups["team"].group_key for c in clients}
        assert len(keys) == 1

    def test_fan_out_identical_plaintext(self, mno, relay):
        clients, _ = installed_group(mno, relay, 3)
        admin = clients[0]
        envelope = admin.send_group_message("team", "standup at 9")
        assert [c.receive_envelope(envelope) for c in clients[1:]] == \
               ["standup at 9"] * 2

    def test_revoked_member_excluded(self, mno, relay):
        clients = [Client.install(f"u{i}", mno, relay) for i in range(3)]
        mno.revoke("u2")
        creation = clients[0].create_group("team", ["u0", "u1", "u2"])
        assert creation.member_ids == ["u0", "u1"]
        assert creation.excluded == {"u2": "peer-revoked"}
        assert len(creation.envelopes) == 1

    def test_group_key_gate_needs_a_directory(self, mno, alice, bob):
        """A client with no directory attached cannot check a member's
        certificate, so the member is excluded and no key is sealed to it."""
        alice.start_session("bob")
        mno.revoke("bob")
        detached = Client.from_state_bytes(alice.to_state_bytes())
        creation = detached.create_group("team", ["alice", "bob"])
        assert creation.member_ids == ["alice"]
        assert creation.excluded == {"bob": "no-session"}
        assert creation.envelopes == []
        assert detached.sessions["bob"].send_chain == alice.sessions["bob"].send_chain

    def test_rekey_replaces_group_key(self, mno, relay):
        clients, _ = installed_group(mno, relay, 3)
        old_key = clients[1].groups["team"].group_key
        creation = clients[0].create_group("team", [c.user_id for c in clients])
        for envelope in creation.envelopes:
            relay.submit_envelope(envelope)
        for client in clients[1:]:
            client.pull_messages()
        new_keys = {c.groups["team"].group_key for c in clients}
        assert len(new_keys) == 1
        assert old_key not in new_keys

    def test_group_envelope_naming_a_recipient_refused(self, mno, relay):
        """A group envelope with a recipient id is protocol-error, even one
        sealed with the group's key, and spends nothing: the admin's next
        group message, on the same counter, opens."""
        clients, _ = installed_group(mno, relay, 3)
        admin, member = clients[0], clients[1]
        mk, _ = crypto.ratchet_forward(admin.groups["team"].group_chain)
        addressed = admin._build_envelope(member.user_id, "team", mk,
                                          _FRAME_TEXT + b"for u1 alone")
        with pytest.raises(WireProtocolError) as refused:
            member.receive_envelope(addressed)
        assert refused.value.category == "protocol-error"
        envelope = admin.send_group_message("team", "for all")
        assert envelope.counter == addressed.counter
        assert member.receive_envelope(envelope) == "for all"

    def test_non_member_send_is_usage_error(self, mno, relay):
        clients, _ = installed_group(mno, relay, 2)
        outsider = Client.install("outsider", mno, relay)
        with pytest.raises(UnknownGroupError):
            outsider.send_group_message("team", "let me in")

    def test_forged_group_envelope_rejected_by_all(self, mno, relay):
        clients, _ = installed_group(mno, relay, 3)
        outsider = Client.install("mallory", mno, relay)
        forged = Envelope(
            sender_id="u1",  # spoofed member id
            recipient_id="",
            counter=0,
            sender_cert_fingerprint=outsider.cert_fingerprint,
            group_id="team",
            payload=SealedPayload(b"\x00" * 16, b"\x00" * 32),
            sent_at=0,
        )
        for client in (clients[0], clients[2]):
            with pytest.raises(UnsealError):
                client.receive_envelope(forged)

    def test_unknown_sender_rejected_without_mac_work(self, mno, relay):
        clients, _ = installed_group(mno, relay, 2)
        forged = Envelope(
            sender_id="nobody",
            recipient_id="",
            counter=0,
            sender_cert_fingerprint=b"\x00" * 32,
            group_id="team",
            payload=SealedPayload(b"\x00" * 16, b"\x00" * 32),
            sent_at=0,
        )
        with pytest.raises(GroupPermissionError):
            clients[1].receive_envelope(forged)

    def test_concurrent_senders_collide_as_replay(self, mno, relay):
        """Two members sending at the same position of the shared group chain:
        the first arrival consumes counter 0, and the second, also counter 0,
        is refused as a replay. Such counter collisions on the one shared
        chain are an open bug, which per-sender chains (ROADMAP D3) fix."""
        clients, _ = installed_group(mno, relay, 3)
        u0, u1, u2 = clients
        from_u1 = u1.send_group_message("team", "first!")
        from_u2 = u2.send_group_message("team", "no, first!")
        assert u0.receive_envelope(from_u1) == "first!"
        with pytest.raises(ReplayError):
            u0.receive_envelope(from_u2)
        # state did not advance on the failure
        assert u0.groups["team"].group_chain.index == 1

    def test_group_message_members_stay_in_sync(self, mno, relay):
        clients, _ = installed_group(mno, relay, 3)
        u0, u1, u2 = clients
        m1 = u0.send_group_message("team", "one")
        assert u1.receive_envelope(m1) == "one"
        assert u2.receive_envelope(m1) == "one"
        m2 = u1.send_group_message("team", "two")
        assert u0.receive_envelope(m2) == "two"
        assert u2.receive_envelope(m2) == "two"
        m3 = u2.send_group_message("team", "three")
        assert u0.receive_envelope(m3) == "three"
        assert u1.receive_envelope(m3) == "three"

    def test_group_key_from_non_admin_rejected(self, mno, relay):
        clients, _ = installed_group(mno, relay, 3)
        u0, u1, u2 = clients
        # u1 (not the admin) tries to re-key the existing group toward u2
        u1_sessions = u1.sessions
        if "u2" not in u1_sessions:
            u1.start_session("u2")
        hijack = u1.create_group("team", ["u1", "u2"])
        with pytest.raises(GroupPermissionError):
            for envelope in hijack.envelopes:
                u2.receive_envelope(envelope)


def corrupted(envelope):
    ciphertext = bytearray(envelope.payload.ciphertext)
    ciphertext[0] ^= 0x01
    return replace(envelope, payload=SealedPayload(bytes(ciphertext), envelope.payload.mac))


class TestGroupReceive:
    """Group envelopes go through the same counter, skipped-key and replay
    rules as one-to-one envelopes, on the group chain."""

    def test_reordered_fan_out_decrypts(self, mno, relay):
        clients, _ = installed_group(mno, relay, 4)
        u0, u1, u2, u3 = clients
        from_a = u0.send_group_message("team", "a")
        assert u1.receive_envelope(from_a) == "a"
        from_b = u1.send_group_message("team", "b")
        assert [u2.receive_envelope(e) for e in (from_a, from_b)] == ["a", "b"]
        from_c = u2.send_group_message("team", "c")
        assert [e.counter for e in (from_a, from_b, from_c)] == [0, 1, 2]
        assert [u3.receive_envelope(e) for e in (from_b, from_a, from_c)] == ["b", "a", "c"]
        assert [(e.peer_id, e.group_id, e.text) for e in u3.history] == [
            ("u1", "team", "b"), ("u0", "team", "a"), ("u2", "team", "c")]

    def test_corrupted_envelope_does_not_wedge_the_group(self, mno, relay):
        clients, _ = installed_group(mno, relay, 3)
        u0, u1, u2 = clients
        relay.broadcast_group("team", corrupted(u0.send_group_message("team", "m0")))
        for i in (1, 2):
            relay.broadcast_group("team", u0.send_group_message("team", f"m{i}"))
        for member in (u1, u2):
            assert [(d.text, d.error) for d in member.pull_messages()] == [
                (None, "auth-failed"), ("m1", None), ("m2", None)]

    def test_non_utf8_text_does_not_wedge_the_group(self, mno, relay):
        clients, _ = installed_group(mno, relay, 3)
        u0, u1, u2 = clients
        group = u0.groups["team"]
        mk, group.group_chain = crypto.ratchet_forward(group.group_chain)
        relay.broadcast_group("team", u0._build_envelope("", "team", mk,
                                                         _FRAME_TEXT + b"\xff"))
        relay.broadcast_group("team", u0.send_group_message("team", "m1"))
        for member in (u1, u2):
            assert [(d.text, d.error) for d in member.pull_messages()] == [
                (None, "protocol-error"), ("m1", None)]

    def test_redelivered_envelope_is_replay(self, mno, relay):
        clients, _ = installed_group(mno, relay, 2)
        u0, u1 = clients
        envelope = u0.send_group_message("team", "once")
        for _ in range(2):
            relay.broadcast_group("team", envelope)
        assert [(d.text, d.error) for d in u1.pull_messages()] == [
            ("once", None), (None, "replay-detected")]

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_every_arrival_order_decrypts_once(self, mno, relay, order):
        clients, _ = installed_group(mno, relay, 2)
        u0, u1 = clients
        envelopes = [u0.send_group_message("team", f"m{i}") for i in range(3)]
        assert [u1.receive_envelope(envelopes[i]) for i in order] == [f"m{i}" for i in order]
        for envelope in envelopes:
            with pytest.raises(ReplayError):
                u1.receive_envelope(envelope)
        group = u1.groups["team"]
        assert (group.group_chain.index, group.skipped_keys) == (3, {})

    def test_gap_beyond_bound_is_resync_error_and_changes_nothing(self, mno, relay,
                                                                  monkeypatch):
        clients, _ = installed_group(mno, relay, 2)
        u0, u1 = clients
        monkeypatch.setattr(client_mod, "MAX_SKIPPED", 3)
        envelopes = [u0.send_group_message("team", f"m{i}") for i in range(5)]
        before = u1.to_state_bytes()
        with pytest.raises(ResyncError):
            u1.receive_envelope(envelopes[4])  # gap of 4 > bound 3
        assert u1.to_state_bytes() == before
        assert u1.receive_envelope(envelopes[3]) == "m3"  # gap of 3 is allowed
        assert set(u1.groups["team"].skipped_keys) == {0, 1, 2}

    def test_parked_group_keys_survive_state_and_backup(self, mno, relay):
        clients, _ = installed_group(mno, relay, 2)
        u0, u1 = clients
        envelopes = [u0.send_group_message("team", f"m{i}") for i in range(3)]
        assert u1.receive_envelope(envelopes[2]) == "m2"
        assert set(u1.groups["team"].skipped_keys) == {0, 1}
        state = u1.to_state_bytes()
        restored = [Client.from_state_bytes(state),
                    Client.restore_backup(u1.export_backup("pw"), "pw")]
        for copy in restored:
            assert copy.to_state_bytes() == state
            assert copy.groups["team"].skipped_keys == u1.groups["team"].skipped_keys
            assert [copy.receive_envelope(envelopes[i]) for i in (1, 0)] == ["m1", "m0"]
            with pytest.raises(ReplayError):
                copy.receive_envelope(envelopes[2])

    def test_version_one_state_refused(self, alice):
        state = alice.to_state_bytes()
        tag = encode_str("chainchat-state|3")
        assert state.startswith(tag)
        assert Client.from_state_bytes(state).to_state_bytes() == state
        for old in ("chainchat-state|2", "chainchat-state|1"):
            with pytest.raises(BackupFormatError):
                Client.from_state_bytes(encode_str(old) + state[len(tag):])

    def test_group_key_frame_in_group_envelope_refused(self, mno, relay):
        clients, _ = installed_group(mno, relay, 2)
        u0, u1 = clients
        mk, _ = crypto.ratchet_forward(u0.groups["team"].group_chain)
        body = client_mod._encode_group_descriptor(
            client_mod._new_group("team", "u0", ["u0", "u1"], bytes(32)))
        envelope = u0._build_envelope("", "team", mk, b"\x01" + body)
        with pytest.raises(WireProtocolError):
            u1.receive_envelope(envelope)


# ---------------------------------------------------------------------------
# state bytes
# ---------------------------------------------------------------------------

def _chain(ck):
    return {"key": ck.key, "index": ck.index}


def _parked(keys):
    assert all(mk.index == counter for counter, mk in keys.items())
    return {counter: {"cipher_key": mk.cipher_key, "mac_key": mk.mac_key, "iv": mk.iv}
            for counter, mk in keys.items()}


class TestStateBytes:
    def test_independent_reader_finds_each_value_once(self, mno, relay, alice, bob):
        """FORMATS.md read with struct alone, over a state with 2 sessions,
        parked keys in both sessions and in a group, and history."""
        carol = Client.install("carol", mno, relay)
        from_bob = [bob.send_text("alice", f"b{i}") for i in range(4)]
        from_carol = [carol.send_text("alice", f"c{i}") for i in range(2)]
        for envelope in (from_bob[3], from_bob[1], from_carol[1]):
            alice.receive_envelope(envelope)
        alice.send_text("bob", "hi")
        alice.receive_envelope(bob.create_group("club", ["alice"]).envelopes[0])
        alice.receive_envelope([bob.send_group_message("club", f"g{i}") for i in range(3)][2])
        alice.inbox_cursor = 7
        state = alice.to_state_bytes()

        read = oracles.read_client_state(state)
        assert read["tag"] == client_mod._STATE_TAG
        assert read["identity_private"] == alice.identity.private_key
        assert read["certificate"] == alice.certificate.canonical_bytes()
        assert (read["user_id"], read["identity_public"]) == ("alice",
                                                              alice.identity.public_key)
        assert read["inbox_cursor"] == 7
        assert [s["peer_id"] for s in read["sessions"]] == ["bob", "carol"]
        for stored in read["sessions"]:
            session = alice.sessions[stored["peer_id"]]
            assert stored == {"peer_id": session.peer_id, "send": _chain(session.send_chain),
                              "recv": _chain(session.recv_chain),
                              "parked": _parked(session.skipped_keys),
                              "peer_cert_fingerprint": session.peer_cert_fingerprint}
        assert [sorted(s["parked"]) for s in read["sessions"]] == [[0, 2], [0]]
        group = alice.groups["club"]
        assert read["groups"] == [{"group_id": "club", "admin_id": "bob",
                                   "member_ids": group.member_ids,
                                   "group_key": group.group_key,
                                   "chain": _chain(group.group_chain),
                                   "parked": _parked(group.skipped_keys)}]
        assert sorted(read["groups"][0]["parked"]) == [0, 1]
        assert read["history"] == [dict(vars(entry)) for entry in alice.history]
        assert len(read["history"]) == 5

        # no pair master, and the public key only inside the certificate
        for peer in (bob, carol):
            assert oracles.x25519(alice.identity.private_key, peer.identity.public_key) \
                not in state
        assert state.count(alice.identity.public_key) == 1
        assert Client.from_state_bytes(state).to_state_bytes() == state

    def test_the_library_key_reaches_no_bytes(self, alice, bob):
        """A client rebuilt from bytes loads its key on first use; the state,
        the backup, equality and ``replace`` read the pair's bytes alone."""
        alice.start_session("bob")
        restored = Client.from_state_bytes(alice.to_state_bytes())
        restored._rng = lambda n: b"\x07" * n
        identity = restored.identity
        assert "library_key" not in vars(identity)
        state, backup = restored.to_state_bytes(), restored.export_backup("pw").to_bytes()
        public = identity.library_key.public_key().public_bytes_raw()
        assert public == identity.public_key
        assert restored.to_state_bytes() == state
        assert restored.export_backup("pw").to_bytes() == backup
        assert identity == alice.identity == crypto.IdentityKeyPair(identity.private_key,
                                                                    identity.public_key)
        other = crypto.generate_identity_keypair()
        swapped = replace(identity, private_key=other.private_key)
        assert swapped.library_key.public_key().public_bytes_raw() == other.public_key

    def test_encoding_is_linear_in_the_history(self, alice):
        """20,000 history entries encode in well under 1 s of process CPU;
        appending to an immutable ``bytes``, which copies the whole state on
        each append, took some 30 s."""
        entry = client_mod.HistoryEntry(direction=client_mod.SENT, peer_id="bob",
                                        group_id="", counter=0, text="x" * 100, at=0)
        alice.history.extend(replace(entry, counter=i) for i in range(20_000))
        start = time.process_time()
        state = alice.to_state_bytes()
        assert time.process_time() - start < 1.0
        assert len(oracles.read_client_state(state)["history"]) == 20_000

    def test_reader_refuses_a_cut_or_extended_state(self, alice):
        state = alice.to_state_bytes()
        for broken in (state[:-1], state + b"\x00"):
            with pytest.raises(ValueError):
                oracles.read_client_state(broken)

    @pytest.mark.parametrize("change", [
        {"kind": "revocation", "subject_public_key": bytes(32)},
        {"subject_public_key": bytes(31)},
    ])
    def test_stored_record_that_is_no_certificate_refused(self, alice, change):
        state = alice.to_state_bytes()
        stored = encode_bytes(alice.certificate.canonical_bytes())
        other = encode_bytes(replace(alice.certificate, **change).canonical_bytes())
        assert state.count(stored) == 1
        with pytest.raises(BackupFormatError, match="not a certificate"):
            Client.from_state_bytes(state.replace(stored, other))

    def test_formats_md_names_the_state_tag(self):
        formats = (Path(__file__).resolve().parents[1] / "FORMATS.md").read_text("utf-8")
        section = formats.split("## Client state", 1)[1].split("\n## ", 1)[0]
        assert re.findall(r'string "(chainchat-state\|\d+)"', section) == \
            [client_mod._STATE_TAG]
