import functools
import json
import random
import struct
import sys
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from chainchat import chain as chain_mod
from chainchat import identity_sig
from chainchat import mno as mno_mod
from chainchat import relay as relay_mod
from chainchat.chain import REVOKED, VALID
from chainchat.client import Client
from chainchat.crypto import SealedPayload
from chainchat.encoding import encode_bytes
from chainchat.errors import (
    ChainChatError,
    ChainFormatError,
    FingerprintMismatchError,
    GroupPermissionError,
    MailboxFullError,
    MessageTooLargeError,
    RegistrationRefusedError,
    RoutingError,
    SessionRefusedError,
    TruncatedDataError,
    WireProtocolError,
)
from chainchat.crypto import derive_master_secret, generate_identity_keypair
from chainchat.mno import EnrollmentRequest, possession_payload
from chainchat.relay import ACK_QUEUED, Envelope


def plain_envelope(sender, recipient, counter=0, group_id=None, blob=b"\x10" * 16):
    return Envelope(
        sender_id=sender,
        recipient_id=recipient,
        counter=counter,
        sender_cert_fingerprint=b"\xfe" * 32,
        group_id=group_id,
        payload=SealedPayload(ciphertext=blob, mac=b"\xaa" * 32),
        sent_at=1_700_000_000,
    )


_U64 = (1 << 64) - 1

# (sender, recipient, counter, fingerprint, group, sent_at, ciphertext, mac),
# then the associated data and what canonical_bytes appends to it, as hex;
# pinned from the field-by-field encoding with the encoding module's helpers
_PINNED_HEADERS = [
    (("alice", "bob", 0, bytes(range(32)), None, 0, b"\x10" * 16, b"\x20" * 32),
     "00000005616c69636500000003626f6200000008000000000000000000000020"
     "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
     "00000000000000080000000000000000",
     "0000001010101010101010101010101010101010000000202020202020202020"
     "202020202020202020202020202020202020202020202020"),
    (("alice", "bob", 0, bytes(range(32)), "", 0, b"\x10" * 16, b"\x20" * 32),
     "00000005616c69636500000003626f6200000008000000000000000000000020"
     "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
     "00000000000000080000000000000000",
     "0000001010101010101010101010101010101010000000202020202020202020"
     "202020202020202020202020202020202020202020202020"),
    (("\u00e5lice\u00e9", 'b"o\x00b', _U64, b"\xff" * 32, 'r\u00f6"om\x00', _U64,
      bytes(range(48)), b"\x5a" * 32),
     "00000008c3a56c696365c3a90000000562226f006200000008ffffffffffffff"
     "ff00000020ffffffffffffffffffffffffffffffffffffffffffffffffffffff"
     "ffffffffff0000000772c3b6226f6d0000000008ffffffffffffffff",
     "00000030000102030405060708090a0b0c0d0e0f101112131415161718191a1b"
     "1c1d1e1f202122232425262728292a2b2c2d2e2f000000205a5a5a5a5a5a5a5a"
     "5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a"),
    (("\u6f22\U0001f600", "", 7, b"\x01" * 32, "room", 1_700_000_000_000,
      b"\x00" * 16, b"\xee" * 32),
     "00000007e6bca2f09f9880000000000000000800000000000000070000002001"
     "0101010101010101010101010101010101010101010101010101010101010100"
     "000004726f6f6d000000080000018bcfe56800",
     "000000100000000000000000000000000000000000000020eeeeeeeeeeeeeeee"
     "eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee"),
]


class TestEnvelopeBytes:
    @pytest.mark.parametrize("fields, ad_hex, tail_hex", _PINNED_HEADERS,
                             ids=["null-group", "empty-group", "non-ascii-quote-nul-u64-max",
                                  "astral-no-recipient"])
    def test_pinned_bytes(self, fields, ad_hex, tail_hex):
        sender, recipient, counter, fingerprint, group, sent_at, ciphertext, mac = fields
        envelope = Envelope(sender, recipient, counter, fingerprint, group,
                            SealedPayload(ciphertext=ciphertext, mac=mac), sent_at)
        assert envelope.associated_data().hex() == ad_hex
        assert envelope.canonical_bytes().hex() == ad_hex + tail_hex

    @pytest.mark.parametrize("fields, ad_hex, tail_hex", _PINNED_HEADERS,
                             ids=["null-group", "empty-group", "non-ascii-quote-nul-u64-max",
                                  "astral-no-recipient"])
    def test_parsed_envelope_keeps_the_bytes_it_was_parsed_from(self, fields, ad_hex,
                                                                 tail_hex):
        """A parsed envelope serves the bytes it was parsed from, and its
        associated data is their prefix; both equal what a new instance of
        the same fields builds."""
        data = bytes.fromhex(ad_hex + tail_hex)
        parsed = Envelope.from_bytes(data)
        rebuilt = replace(parsed)
        assert parsed.canonical_bytes() == rebuilt.canonical_bytes() == data
        assert parsed.associated_data() == rebuilt.associated_data() == bytes.fromhex(ad_hex)

    @pytest.mark.parametrize("fields, ad_hex, tail_hex", _PINNED_HEADERS,
                             ids=["null-group", "empty-group", "non-ascii-quote-nul-u64-max",
                                  "astral-no-recipient"])
    def test_parse_refuses_every_malformed_variant(self, fields, ad_hex, tail_hex):
        """Every proper prefix is truncated; one more byte, a u64 field of 7
        or 9 bytes, and a string field that is not UTF-8 are each refused."""
        data = bytes.fromhex(ad_hex + tail_hex)
        sender, recipient, counter, fingerprint, group, sent_at, ciphertext, mac = fields

        def build(**raw):
            parts = {"sender": sender.encode(), "recipient": recipient.encode(),
                     "counter": counter.to_bytes(8, "big"), "group": (group or "").encode(),
                     "sent_at": sent_at.to_bytes(8, "big"), **raw}
            return b"".join(encode_bytes(part) for part in (
                parts["sender"], parts["recipient"], parts["counter"], fingerprint,
                parts["group"], parts["sent_at"], ciphertext, mac))

        assert build() == data
        for cut in range(len(data)):
            with pytest.raises(TruncatedDataError):
                Envelope.from_bytes(data[:cut])
        with pytest.raises(ChainFormatError, match="trailing bytes"):
            Envelope.from_bytes(data + b"\x00")
        for name, value in (("counter", counter), ("sent_at", sent_at)):
            for width in (7, 9):
                with pytest.raises(ChainFormatError, match="integer width"):
                    Envelope.from_bytes(build(**{name: value.to_bytes(9, "big")[-width:]}))
        for name in ("sender", "recipient", "group"):
            with pytest.raises(ChainFormatError, match="utf-8"):
                Envelope.from_bytes(build(**{name: b"\xff"}))

    @pytest.mark.parametrize("change", [
        {"counter": 6}, {"recipient_id": "c"}, {"group_id": None},
        {"payload": SealedPayload(ciphertext=b"\x20" * 32, mac=b"\xbb" * 32)},
    ], ids=["counter", "recipient", "group", "payload"])
    def test_replace_of_a_parsed_envelope_keeps_no_stale_bytes(self, change):
        original = plain_envelope("a", "b", counter=5, group_id="g")
        parsed = Envelope.from_bytes(original.canonical_bytes())
        changed, expected = replace(parsed, **change), replace(original, **change)
        assert changed.associated_data() == expected.associated_data()
        assert changed.canonical_bytes() == expected.canonical_bytes() != parsed.canonical_bytes()

    def test_null_and_empty_group_give_the_same_bytes(self):
        assert (plain_envelope("a", "b", group_id=None).associated_data()
                == plain_envelope("a", "b", group_id="").associated_data())

    @pytest.mark.parametrize("field", ["counter", "sent_at"])
    @pytest.mark.parametrize("value, error", [(-1, ValueError), (2**64, struct.error)],
                             ids=["negative", "past-u64"])
    def test_out_of_range_header_raises(self, field, value, error):
        envelope = replace(plain_envelope("a", "b"), **{field: value})
        with pytest.raises(error):
            envelope.associated_data()
        with pytest.raises(error):
            envelope.canonical_bytes()


class TestRegistration:
    def test_enrolled_user_registers(self, relay, alice):
        # install already registered; a fresh registration is idempotent
        assert relay.register_user("alice", alice.cert_fingerprint) == "registered"
        assert relay.fetch_envelopes("alice", 0) == []

    def test_register_without_enrollment_refused(self, relay):
        with pytest.raises(RegistrationRefusedError):
            relay.register_user("ghost", b"\x00" * 32)

    def test_stale_fingerprint_after_reissue_refused(self, relay, mno, alice):
        old_fp = alice.cert_fingerprint
        Client.install("alice", mno, relay)  # re-install: new key, new record
        with pytest.raises(RegistrationRefusedError):
            relay.register_user("alice", old_fp)

    def test_revoked_user_refused(self, relay, mno, alice):
        mno.revoke("alice")
        with pytest.raises(RegistrationRefusedError):
            relay.register_user("alice", alice.cert_fingerprint)


class TestFetchCertificate:
    def test_valid_peer(self, relay, alice):
        status = relay.fetch_certificate("alice")
        assert status.state == VALID
        assert status.record.fingerprint == alice.cert_fingerprint

    def test_revoked_peer(self, relay, mno, alice):
        mno.revoke("alice")
        assert relay.fetch_certificate("alice").state == REVOKED


class TestStoreAndForward:
    def test_offline_queue_byte_identical(self, relay, connected_pair):
        alice, bob = connected_pair
        envelope = alice.send_text("bob", "hello")
        assert relay.submit_envelope(envelope) == ACK_QUEUED
        fetched = relay.fetch_envelopes("bob", 0)
        assert len(fetched) == 1
        assert fetched[0][1].canonical_bytes() == envelope.canonical_bytes()

    def test_unregistered_parties_rejected(self, relay, alice):
        with pytest.raises(RoutingError):
            relay.submit_envelope(plain_envelope("alice", "nobody"))
        with pytest.raises(RoutingError):
            relay.submit_envelope(plain_envelope("nobody", "alice"))

    def test_malformed_envelope_rejected(self, relay, connected_pair):
        bad = plain_envelope("alice", "bob", blob=b"\x10" * 15)  # not block-sized
        with pytest.raises(WireProtocolError):
            relay.submit_envelope(bad)

    def test_self_addressed_envelope_refused(self, relay, alice):
        """No session opens an envelope whose sender is its recipient, so the
        relay does not queue one, even with every other check passing."""
        envelope = replace(plain_envelope("alice", "alice"),
                           sender_cert_fingerprint=alice.cert_fingerprint,
                           recipient_cert_fingerprint=alice.cert_fingerprint)
        with pytest.raises(WireProtocolError) as refused:
            relay.submit_envelope(envelope)
        assert refused.value.category == "protocol-error"
        assert relay.fetch_envelopes("alice", 0) == []
        assert not envelope.shape_ok()
        assert plain_envelope("alice", "", group_id="g").shape_ok()

    @pytest.mark.parametrize("field", ["counter", "sent_at"])
    def test_header_past_u64_refused(self, relay, connected_pair, field):
        # such an envelope has no associated data, so it could never be read
        alice, bob = connected_pair
        envelope = alice.send_text("bob", "edge")
        with pytest.raises(WireProtocolError):
            relay.submit_envelope(replace(envelope, **{field: 2**64}))
        assert relay.fetch_envelopes("bob", 0) == []
        assert relay.submit_envelope(replace(envelope, **{field: 2**64 - 1})) == ACK_QUEUED

    @pytest.mark.parametrize("group_id", [None, "g"], ids=["submit", "group_send"])
    def test_an_envelope_over_the_bound_is_refused_in_process(self, mno, relay, bob,
                                                               group_id):
        """``MAX_ENVELOPE`` is the relay's own rule, not only the wire's: one
        byte more is refused with message-too-large and nothing is queued,
        and the longest envelope is queued."""
        recipient = "" if group_id else "bob"

        def envelope(size):
            """An envelope of exactly ``size`` bytes from a new sender, whose
            id takes what the ciphertext's 16-byte steps leave over."""
            empty = plain_envelope("", recipient, group_id=group_id, blob=b"")
            bare = len(empty.canonical_bytes())
            ciphertext = (size - bare - 1) // 16 * 16
            sender = Client.install("s" * (size - bare - ciphertext), mno, relay)
            result = replace(plain_envelope(sender.user_id, recipient, group_id=group_id,
                                            blob=b"\x10" * ciphertext),
                             recipient_cert_fingerprint=bob.cert_fingerprint)
            assert len(result.canonical_bytes()) == size
            return result

        too_long, fits = envelope(relay_mod.MAX_ENVELOPE + 1), envelope(relay_mod.MAX_ENVELOPE)
        if group_id:
            relay.create_group(group_id, "bob", ["bob", too_long.sender_id, fits.sender_id])
            send = functools.partial(relay.broadcast_group, group_id)
        else:
            send = relay.submit_envelope
        with pytest.raises(MessageTooLargeError) as refused:
            send(too_long)
        assert refused.value.category == "message-too-large"
        assert relay.fetch_envelopes("bob", 0) == []
        send(fits)
        [(_, queued)] = relay.fetch_envelopes("bob", 0)
        assert queued == fits

    def test_revoked_recipient_routing_error(self, relay, mno, connected_pair):
        # the recipient's status is the sender's concern: peer-*, not routing-error
        alice, bob = connected_pair
        envelope = alice.send_text("bob", "one")
        assert relay.submit_envelope(envelope) == ACK_QUEUED
        mno.revoke("bob")
        second = alice.send_text("bob", "two")
        with pytest.raises(SessionRefusedError) as refused:
            relay.submit_envelope(second)
        assert refused.value.category == "peer-revoked"
        assert [env.counter for _, env in relay.fetch_envelopes("bob", 0)] == [0]

    def test_expired_recipient_refused(self, relay, mno, monkeypatch):
        t0 = int(time.time())
        Client.install("gil", mno, relay)
        monkeypatch.setattr(mno_mod, "time", SimpleNamespace(time=lambda: t0 + 120))
        fay = Client.install("fay", mno, relay)  # issued after gil, so expires after
        fay.start_session("gil")
        monkeypatch.setattr(chain_mod, "_now", lambda: t0 + mno_mod.VALIDITY_SECONDS + 60)
        with pytest.raises(SessionRefusedError) as refused:
            relay.submit_envelope(fay.send_text("gil", "too late"))
        assert refused.value.category == "peer-expired"

    def test_stale_recipient_fingerprint_refused(self, relay, mno, connected_pair):
        alice, bob = connected_pair
        Client.install("bob", mno, relay)  # re-issued behind alice's session
        with pytest.raises(FingerprintMismatchError) as refused:
            relay.submit_envelope(alice.send_text("bob", "stale"))
        assert refused.value.category == "fingerprint-mismatch"
        assert relay.fetch_envelopes("bob", 0) == []

    def test_unpinned_envelope_refused(self, relay, connected_pair):
        with pytest.raises(FingerprintMismatchError):
            relay.submit_envelope(plain_envelope("alice", "bob"))
        assert relay.fetch_envelopes("bob", 0) == []

    def test_revoked_sender_refused(self, relay, mno):
        fay = Client.install("fay", mno, relay)
        gil = Client.install("gil", mno, relay)
        fay.start_session("gil")
        gil.start_session("fay")
        assert relay.submit_envelope(fay.send_text("gil", "before")) == ACK_QUEUED
        mno.revoke("fay")
        with pytest.raises(RoutingError) as refused:
            relay.submit_envelope(fay.send_text("gil", "after"))
        assert refused.value.category == "routing-error"
        assert [env.counter for _, env in relay.fetch_envelopes("gil", 0)] == [0]

    def test_submit_reads_one_snapshot_at_one_time(self, relay, chain_node,
                                                   connected_pair, monkeypatch):
        alice, _ = connected_pair
        envelope = alice.send_text("bob", "one look")
        reads, clock_reads = [], []
        newest_of, now = chain_node.newest_of, chain_mod._now
        monkeypatch.setattr(chain_node, "newest_of",
                            lambda *users: reads.append(users) or newest_of(*users))
        monkeypatch.setattr(chain_node, "newest", None)  # no read outside newest_of
        monkeypatch.setattr(chain_mod, "_now", lambda: clock_reads.append(1) or now())
        assert relay.submit_envelope(envelope) == ACK_QUEUED
        assert (reads, len(clock_reads)) == ([("alice", "bob")], 1)


class TestFetchSemantics:
    def test_fresh_mailbox_empty(self, relay, alice):
        assert relay.fetch_envelopes("alice", 0) == []

    def test_after_seq_offsets(self, relay, connected_pair):
        alice, bob = connected_pair
        for text in ("one", "two", "three"):
            relay.submit_envelope(alice.send_text("bob", text))
        first = relay.fetch_envelopes("bob", 0)[0][0]
        entries = relay.fetch_envelopes("bob", first)
        assert [seq for seq, _ in entries] == [first + 1, first + 2]

    def test_fetch_is_idempotent(self, relay, connected_pair):
        alice, bob = connected_pair
        for text in ("one", "two"):
            relay.submit_envelope(alice.send_text("bob", text))
        first = relay.fetch_envelopes("bob", 0)
        second = relay.fetch_envelopes("bob", 0)
        assert first == second

    def test_ack_drops_consumed(self, relay, connected_pair):
        alice, bob = connected_pair
        for text in ("one", "two", "three"):
            relay.submit_envelope(alice.send_text("bob", text))
        first = relay.fetch_envelopes("bob", 0)[0][0]
        relay.fetch_envelopes("bob", first + 1)
        # the first two acknowledged and gone; the third still retained
        assert [seq for seq, _ in relay.fetch_envelopes("bob", 0)] == [first + 2]

    def test_unknown_recipient(self, relay):
        with pytest.raises(RoutingError):
            relay.fetch_envelopes("nobody", 0)


class TestFifoPerSender:
    def test_randomized_interleaving(self, chain_node, mno, relay):
        rng = random.Random(99)
        senders = [Client.install(f"s{i}", mno, relay) for i in range(5)]
        receiver = Client.install("sink", mno, relay)
        for s in senders:
            s.start_session("sink")
        schedule = [s for s in senders for _ in range(100)]
        rng.shuffle(schedule)
        sent: dict[str, list[int]] = {s.user_id: [] for s in senders}
        for sender in schedule:
            envelope = sender.send_text("sink", f"m{len(sent[sender.user_id])}")
            sent[sender.user_id].append(envelope.counter)
            relay.submit_envelope(envelope)
        fetched = relay.fetch_envelopes("sink", 0)
        assert len(fetched) == 500
        per_sender: dict[str, list[int]] = {s.user_id: [] for s in senders}
        for _, envelope in fetched:
            per_sender[envelope.sender_id].append(envelope.counter)
        for user, counters in per_sender.items():
            assert counters == sent[user]


class TestGroupFanOut:
    def make_group(self, mno, relay, n=3):
        members = [Client.install(f"g{i}", mno, relay) for i in range(n)]
        ids = [c.user_id for c in members]
        relay.create_group("room", ids[0], ids)
        return members, ids

    def test_fan_out_count(self, mno, relay):
        members, ids = self.make_group(mno, relay, 3)
        admin = members[0]
        creation = admin.create_group("room", ids)
        for env in creation.envelopes:
            relay.submit_envelope(env)
        envelope = admin.send_group_message("room", "hi all")
        acks = relay.broadcast_group("room", envelope)
        assert len(acks) == 2
        assert all(result == ACK_QUEUED for _, result in acks)

    def test_non_member_sender_rejected(self, mno, relay):
        members, ids = self.make_group(mno, relay, 3)
        outsider = Client.install("outsider", mno, relay)
        envelope = plain_envelope("outsider", "", group_id="room")
        with pytest.raises(GroupPermissionError):
            relay.broadcast_group("room", envelope)

    def test_partial_fan_out_on_revocation(self, mno, relay):
        members, ids = self.make_group(mno, relay, 3)
        mno.revoke(ids[2])
        envelope = plain_envelope(ids[0], "", group_id="room")
        acks = dict(relay.broadcast_group("room", envelope))
        assert acks[ids[1]] == ACK_QUEUED
        assert acks[ids[2]].startswith("error:")

    def test_revoked_sender_broadcast_refused(self, mno, relay):
        members, ids = self.make_group(mno, relay, 3)
        mno.revoke(ids[1])
        envelope = plain_envelope(ids[1], "", group_id="room")
        with pytest.raises(RoutingError):
            relay.broadcast_group("room", envelope)
        for member in (ids[0], ids[2]):
            assert relay.fetch_envelopes(member, 0) == []

    def test_unregistered_sender_broadcast_refused(self, mno, relay):
        # "dan" holds a valid certificate but never registered with the relay
        members, ids = self.make_group(mno, relay, 2)
        pair = generate_identity_keypair()
        challenge = mno.new_challenge("dan")
        proof = identity_sig.sign(
            pair, challenge, possession_payload("dan", pair.public_key, challenge))
        mno.issue_certificate(EnrollmentRequest("dan", pair.public_key, proof))
        relay.create_group("room", ids[0], ids + ["dan"])
        envelope = plain_envelope("dan", "", group_id="room")
        with pytest.raises(RoutingError):
            relay.broadcast_group("room", envelope)
        for member in ids:
            assert relay.fetch_envelopes(member, 0) == []

    def test_counter_past_u64_refused(self, mno, relay):
        members, ids = self.make_group(mno, relay, 3)
        envelope = plain_envelope(ids[0], "", counter=2**64, group_id="room")
        with pytest.raises(WireProtocolError):
            relay.broadcast_group("room", envelope)
        for member in ids[1:]:
            assert relay.fetch_envelopes(member, 0) == []

    def test_fan_out_reads_one_snapshot_at_one_time(self, mno, relay, chain_node,
                                                    monkeypatch):
        members, ids = self.make_group(mno, relay, 4)
        reads, clock_reads = [], []
        newest_of, now = chain_node.newest_of, chain_mod._now
        monkeypatch.setattr(chain_node, "newest_of",
                            lambda *users: reads.append(users) or newest_of(*users))
        monkeypatch.setattr(chain_node, "newest", None)  # no read outside newest_of
        monkeypatch.setattr(chain_mod, "_now", lambda: clock_reads.append(1) or now())
        acks = relay.broadcast_group("room", plain_envelope(ids[0], "", group_id="room"))
        assert acks == [(member, ACK_QUEUED) for member in ids[1:]]
        assert (reads, len(clock_reads)) == ([tuple(ids)], 1)

    def test_expired_member_gets_routing_error(self, mno, relay, monkeypatch):
        t0 = int(time.time())
        Client.install("g0", mno, relay)
        monkeypatch.setattr(mno_mod, "time", SimpleNamespace(time=lambda: t0 + 120))
        ids = ["g0"] + [Client.install(f"g{i}", mno, relay).user_id for i in (1, 2)]
        relay.create_group("room", "g1", ids)
        monkeypatch.setattr(chain_mod, "_now", lambda: t0 + mno_mod.VALIDITY_SECONDS + 60)
        acks = relay.broadcast_group("room", plain_envelope("g1", "", group_id="room"))
        assert acks == [("g0", "error:routing-error"), ("g2", ACK_QUEUED)]

    def test_group_envelope_naming_a_recipient_refused(self, mno, relay):
        members, ids = self.make_group(mno, relay, 3)
        with pytest.raises(WireProtocolError) as refused:
            relay.broadcast_group("room", plain_envelope(ids[0], ids[1], group_id="room"))
        assert refused.value.category == "protocol-error"
        for member in ids[1:]:
            assert relay.fetch_envelopes(member, 0) == []

    def test_sender_outside_the_stored_group_refused(self, mno, relay):
        members, ids = self.make_group(mno, relay, 3)
        relay.create_group("pair", ids[1], ids[1:])
        with pytest.raises(GroupPermissionError):
            relay.broadcast_group("pair", plain_envelope(ids[0], "", group_id="pair"))
        for member in ids[1:]:
            assert relay.fetch_envelopes(member, 0) == []

    def test_duplicate_member_ids_refused(self, mno, relay):
        ids = [Client.install(f"g{i}", mno, relay).user_id for i in range(2)]
        with pytest.raises(WireProtocolError):
            relay.create_group("room", ids[0], ids + [ids[1]])
        assert json.loads(relay.dump_state())["groups"] == {}

    def test_member_list_over_the_cap_refused(self, mno, relay, monkeypatch):
        monkeypatch.setattr(relay_mod, "GROUP_CAP", 3)
        ids = [Client.install(f"g{i}", mno, relay).user_id for i in range(4)]
        relay.create_group("room", ids[0], ids[:3])
        with pytest.raises(WireProtocolError) as refused:
            relay.create_group("room", ids[0], ids)
        assert refused.value.category == "protocol-error"
        assert json.loads(relay.dump_state())["groups"]["room"]["members"] == ids[:3]

    def test_an_id_over_the_cap_is_refused(self, relay):
        """A group id and each member id are capped as the MNO caps a user
        id, in UTF-8 bytes: 127 two-byte characters and one more byte fit,
        one byte more does not, and a refused list stores nothing."""
        longest = "\u00e9" * (mno_mod.MAX_USER_ID_BYTES // 2) + "a"
        over = longest + "a"
        relay.create_group(longest, "admin", ["admin", longest])
        surrogates = "\ud800" * (mno_mod.MAX_USER_ID_BYTES // 3 + 1)  # 3 bytes each
        for group_id, members in ((over, ["admin"]), ("room", ["admin", over]),
                                  ("room", [surrogates, "admin"])):
            with pytest.raises(WireProtocolError) as refused:
                relay.create_group(group_id, "admin", members)
            assert refused.value.category == "protocol-error"
        assert json.loads(relay.dump_state())["groups"] == {
            longest: {"admin": "admin", "members": ["admin", longest]}}

    def test_one_to_one_envelope_refused(self, mno, relay):
        members, ids = self.make_group(mno, relay, 3)
        members[0].start_session(ids[1])
        envelope = members[0].send_text(ids[1], "for g1 alone")
        with pytest.raises(WireProtocolError):
            relay.broadcast_group("room", envelope)
        for member in ids[1:]:
            assert relay.fetch_envelopes(member, 0) == []

    def test_other_groups_envelope_refused(self, mno, relay):
        members, ids = self.make_group(mno, relay, 3)
        relay.create_group("other", ids[0], ids)
        with pytest.raises(WireProtocolError):
            relay.broadcast_group("room", plain_envelope(ids[0], "", group_id="other"))
        for member in ids[1:]:
            assert relay.fetch_envelopes(member, 0) == []

    def test_group_registry(self, relay, mno):
        members, ids = self.make_group(mno, relay, 3)
        assert json.loads(relay.dump_state())["groups"]["room"]["members"] == ids
        with pytest.raises(RoutingError):
            relay.broadcast_group("nowhere", plain_envelope(ids[0], "", group_id="nowhere"))


class TestMailboxCap:
    @pytest.fixture(autouse=True)
    def cap_of_two(self, monkeypatch):
        monkeypatch.setattr(relay_mod, "MAILBOX_CAP", 2)

    def test_submit_to_full_mailbox_refused(self, relay, connected_pair):
        alice, bob = connected_pair
        for text in ("one", "two"):
            assert relay.submit_envelope(alice.send_text("bob", text)) == ACK_QUEUED
        with pytest.raises(MailboxFullError) as refused:
            relay.submit_envelope(alice.send_text("bob", "three"))
        assert refused.value.category == "mailbox-full"
        first = relay.fetch_envelopes("bob", 0)[0][0]
        assert [seq for seq, _ in relay.fetch_envelopes("bob", 0)] == [first, first + 1]
        # acknowledging makes room again, and sequence numbers carry on
        assert relay.fetch_envelopes("bob", first + 1) == []
        assert relay.submit_envelope(alice.send_text("bob", "four")) == ACK_QUEUED
        assert [seq for seq, _ in relay.fetch_envelopes("bob", first + 1)] == [first + 2]

    def test_fan_out_skips_a_full_mailbox(self, mno, relay):
        ids = [Client.install(f"g{i}", mno, relay).user_id for i in range(3)]
        relay.create_group("room", ids[0], ids)
        envelope = plain_envelope(ids[0], "", group_id="room")
        for _ in range(2):
            relay.broadcast_group("room", envelope)
        last = relay.fetch_envelopes(ids[1], 0)[-1][0]
        relay.fetch_envelopes(ids[1], last)  # g1 acknowledges; g2 does not
        acks = relay.broadcast_group("room", envelope)
        assert acks == [(ids[1], ACK_QUEUED), (ids[2], "error:mailbox-full")]
        assert len(relay.fetch_envelopes(ids[2], 0)) == 2


class TestMailboxBytes:
    def test_a_mailbox_over_its_byte_budget_is_full(self, mno, relay, monkeypatch):
        """A fan-out charges each mailbox the envelope's length, a submit
        past the budget is refused, and acknowledging releases the bytes."""
        members = [Client.install(f"g{i}", mno, relay) for i in range(3)]
        ids = [member.user_id for member in members]
        relay.create_group("room", ids[0], ids)
        envelope = plain_envelope(ids[0], "", group_id="room")
        monkeypatch.setattr(relay_mod, "MAILBOX_BYTES", 2 * len(envelope.canonical_bytes()))
        for _ in range(2):
            assert relay.broadcast_group("room", envelope) == [(member, ACK_QUEUED)
                                                               for member in ids[1:]]
        last = relay.fetch_envelopes(ids[1], 0)[-1][0]
        relay.fetch_envelopes(ids[1], last)  # g1 acknowledges; g2 does not
        acks = relay.broadcast_group("room", envelope)
        assert acks == [(ids[1], ACK_QUEUED), (ids[2], "error:mailbox-full")]
        with pytest.raises(MailboxFullError) as refused:
            relay.submit_envelope(replace(plain_envelope(ids[0], ids[2]),
                                          recipient_cert_fingerprint=members[2].cert_fingerprint))
        assert refused.value.category == "mailbox-full"
        assert len(relay.fetch_envelopes(ids[2], 0)) == 2


_LONG_ID = "x" * (1 << 20)


class TestIdsOverTheCap:
    @pytest.mark.parametrize("send, category", [
        (lambda relay, bob: relay.register_user(_LONG_ID, bytes(32)), "registration-refused"),
        (lambda relay, bob: relay.submit_envelope(replace(
            plain_envelope(_LONG_ID, "bob"), recipient_cert_fingerprint=bob.cert_fingerprint)),
         "routing-error"),
        (lambda relay, bob: relay.submit_envelope(plain_envelope("alice", _LONG_ID)),
         "routing-error"),
        (lambda relay, bob: relay.fetch_envelopes(_LONG_ID, 0), "routing-error"),
        (lambda relay, bob: relay.broadcast_group(
            _LONG_ID, plain_envelope("alice", "", group_id=_LONG_ID)), "routing-error"),
        (lambda relay, bob: relay.broadcast_group(
            "room", plain_envelope(_LONG_ID, "", group_id="room")), "not-a-group-member"),
    ], ids=["register", "submit-sender", "submit-recipient", "fetch", "group_send-group",
            "group_send-sender"])
    def test_an_id_of_1_mib_is_refused_and_kept_nowhere(self, relay, connected_pair,
                                                          send, category):
        """Every id a request names is looked up in a map whose keys were
        capped before they were kept, by the MNO or by ``create_group``; so
        an id of 1 MiB finds nothing, is refused, and the relay keeps none
        of it."""
        _, bob = connected_pair
        relay.create_group("room", "alice", ["alice", "bob"])
        before = relay.dump_state()
        with pytest.raises(ChainChatError) as refused:
            send(relay, bob)
        assert refused.value.category == category
        assert relay.dump_state() == before


class TestConcurrentMailboxes:
    def test_parallel_submissions_isolated_per_mailbox(self, chain_node, mno, relay):
        import threading

        senders = [Client.install(f"p{i}", mno, relay) for i in range(4)]
        sinks = [Client.install(f"q{i}", mno, relay) for i in range(4)]
        for sender, sink in zip(senders, sinks):
            sender.start_session(sink.user_id)
        errors = []

        def pump(sender, sink):
            try:
                for i in range(50):
                    relay.submit_envelope(sender.send_text(sink.user_id, f"n{i}"))
            except Exception as e:  # noqa: BLE001 - surface to the main thread
                errors.append(e)

        threads = [threading.Thread(target=pump, args=pair)
                   for pair in zip(senders, sinks)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for sink in sinks:
            entries = relay.fetch_envelopes(sink.user_id, 0)
            assert [env.counter for _, env in entries] == list(range(50))


    def test_no_fetch_sees_part_of_a_fan_out(self, mno, relay):
        """Three threads fan out to 15 members while a fourth reads the
        first member's mailbox, then the last's: the last never holds fewer
        envelopes than the first just did, since each fan-out queues to all
        under one lock, and every envelope gets a number of its own."""
        ids = [Client.install(f"g{i}", mno, relay).user_id for i in range(16)]
        relay.create_group("room", ids[0], ids)
        envelope = plain_envelope(ids[0], "", group_id="room")
        reads, done = [], threading.Event()

        def fan_out():
            for _ in range(100):
                relay.broadcast_group("room", envelope)

        def read():
            while not done.is_set():
                reads.append((len(relay.fetch_envelopes(ids[1], 0)),
                              len(relay.fetch_envelopes(ids[-1], 0))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader = threading.Thread(target=read)
            senders = [threading.Thread(target=fan_out) for _ in range(3)]
            for thread in [reader] + senders:
                thread.start()
            for thread in senders:
                thread.join(timeout=30)
            done.set()
            reader.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in [reader] + senders)
        assert reads and all(first <= second for first, second in reads)
        seqs = [[seq for seq, _ in relay.fetch_envelopes(member, 0)] for member in ids[1:]]
        assert all(len(numbers) == 300 and numbers == sorted(numbers) for numbers in seqs)
        assert len({seq for numbers in seqs for seq in numbers}) == 15 * 300


class TestZeroKnowledgeRelay:
    def test_relay_state_contains_no_secrets(self, chain_node, mno, relay):
        alice = Client.install("alice", mno, relay)
        bob = Client.install("bob", mno, relay)
        alice.start_session("bob")
        bob.start_session("alice")
        plaintexts = [f"secret number {i}" for i in range(20)]
        for text in plaintexts:
            relay.submit_envelope(alice.send_text("bob", text))
        blob = relay.dump_state()
        secrets = [
            alice.identity.private_key, bob.identity.private_key,
            derive_master_secret(alice.identity,
                                 bob.identity.public_key).bytes_,
            alice.sessions["bob"].send_chain.key,
            alice.sessions["bob"].recv_chain.key,
        ]
        for secret in secrets:
            assert secret not in blob
            assert secret.hex().encode() not in blob
        for text in plaintexts:
            assert text.encode() not in blob
