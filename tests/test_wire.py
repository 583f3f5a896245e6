import base64
import contextlib
import inspect
import json
import random
import re
import socket
import struct
import threading
from pathlib import Path

import pytest

from chainchat import identity_sig, wire
from chainchat import mno as mno_mod
from chainchat import relay as relay_mod
from chainchat.client import Client
from chainchat.chain import CertificateRecord, CertStatus
from chainchat.config import StackConfig
from chainchat.crypto import SealedPayload, generate_identity_keypair
from chainchat.encoding import U64_MAX, encode_bytes, encode_u64
from chainchat.errors import StackStartupError, WireProtocolError
from chainchat.mno import EnrollmentRequest, possession_payload
from chainchat.relay import ACK_QUEUED, Envelope
from chainchat.stack import run_stack
from chainchat.wire import (
    RelayClient,
    WireRemoteError,
    WireServer,
    decode_message,
    encode_message,
)


@contextlib.contextmanager
def serve_one_reply(reply: bytes):
    """A client connected to a fake server that reads one request line and
    answers it with ``reply``."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve_one():
        conn, _ = listener.accept()
        with conn, conn.makefile("rwb") as stream:
            stream.readline()
            stream.write(reply)
            stream.flush()

    thread = threading.Thread(target=serve_one)
    thread.start()
    try:
        with RelayClient(*listener.getsockname()) as client:
            yield client
    finally:
        thread.join(timeout=5)
        listener.close()
    assert not thread.is_alive()


@pytest.fixture
def server(relay, mno):
    srv = WireServer(relay, mno, port=0)
    yield srv
    srv.close()


@pytest.fixture
def rc(server):
    client = RelayClient(server.host, server.port)
    yield client
    client.close()


class TestFraming:
    def test_version_byte_leads(self):
        raw = encode_message("fetch", {"recipient_id": "a", "after_seq": 0})
        assert raw[:1] == b"1"
        assert raw.endswith(b"\n")

    def test_canonical_json_sorted_compact(self):
        raw = encode_message("register", {"user_id": "u", "cert_fingerprint": "AA=="})
        body = raw[1:-1].decode()
        assert body == json.dumps(json.loads(body), sort_keys=True,
                                  separators=(",", ":"))

    def test_roundtrip(self):
        raw = encode_message("fetch_cert", {"user_id": "bob"})
        msg_type, body = decode_message(raw)
        assert msg_type == "fetch_cert"
        assert body == {"user_id": "bob"}

    def test_missing_version_byte(self):
        with pytest.raises(WireProtocolError):
            decode_message(b'{"type":"fetch_cert","body":{}}\n')

    def test_unknown_type(self):
        with pytest.raises(WireProtocolError):
            decode_message(b'1{"body":{},"type":"teleport"}\n')

    def test_garbage(self):
        with pytest.raises(WireProtocolError):
            decode_message(b"1not json\n")


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _envelope_bytes(**fields):
    header = {"sender_id": "alice", "recipient_id": "bob", "counter": 0,
              "sender_cert_fingerprint": b"\x42" * 32, "group_id": None, "sent_at": 0,
              "payload": SealedPayload(b"\x10" * 16, b"\x42" * 32)}
    header.update(fields)
    return Envelope(**header).canonical_bytes()


_RECORD_BYTES = CertificateRecord("bob", b"\x42" * 32, "mno-1", 0, 10, "certificate",
                                  b"\x00" * 64).canonical_bytes()
_ZERO_U64 = encode_bytes(b"\x00" * 8)

# canonical bytes broken one way each, as base64. Both objects above start
# with a short string field, and their first u64 field holds 0.
_BROKEN = {
    "truncated": lambda data: _b64(data[:-1]),
    "trailing-byte": lambda data: _b64(data + b"\x00"),
    "non-utf8-id": lambda data: _b64(encode_bytes(b"\xff") + data[4 + data[3]:]),
    "u64-width": lambda data: _b64(data.replace(_ZERO_U64, encode_bytes(b"\x00" * 7), 1)),
}


def _past_u64(field):
    """The test envelope, base64, with ``field`` (``counter`` or ``sent_at``)
    holding 2**64 as a 9-byte integer."""
    data = _envelope_bytes(**{field: 7})
    return _b64(data.replace(encode_u64(7), encode_bytes((1 << 64).to_bytes(9, "big"))))


class TestCodecs:
    """Envelopes and records cross the wire as base64 of their canonical
    bytes, the same bytes the MAC and the fingerprint cover."""

    def test_record_bytes_roundtrip(self, mno_credential):
        record = mno_credential.make_record("alice", b"\x42" * 32, 100, 200,
                                            "certificate")
        text = wire.status_to_obj(CertStatus("valid", record))["record"]
        assert text == _b64(record.canonical_bytes())
        assert wire._decoded(CertificateRecord, text) == record

    def test_envelope_bytes_roundtrip(self, connected_pair):
        alice, bob = connected_pair
        envelope = alice.send_text("bob", "over the wire")
        assert envelope.wire_text() == _b64(envelope.canonical_bytes())
        decoded = wire._decoded(Envelope, envelope.wire_text())
        assert decoded == envelope
        assert bob.receive_envelope(decoded) == "over the wire"

    def test_empty_group_id_decodes_as_none(self):
        tagged = Envelope.from_bytes(_envelope_bytes(group_id=""))
        assert tagged.group_id is None
        assert tagged.canonical_bytes() == _envelope_bytes(group_id=None)
        assert Envelope.from_bytes(_envelope_bytes(group_id="g")).group_id == "g"

    def test_bad_envelope_obj(self):
        """The envelope object of older builds is no envelope now."""
        with pytest.raises(WireProtocolError):
            wire._decoded(Envelope, {"sender_id": "x"})


_TRICKY = ["", "a", "bob", "é", "\u00e9t\u00e9", '"', "\\", "\n", "a\"b\\c\nd",
           "\u2028", "\U0001f600", "\x00", "\x7f", "</script>", "user-0017"]
_EDGE_INTS = [0, 1, 255, 2**32, 2**63, U64_MAX]


def _reference_entry(seq, env):
    return {"envelope": _b64(env.canonical_bytes()), "seq": seq}


def _reference_fetch_reply(entries):
    """The fetch reply as encode_message builds it, from each envelope's
    canonical bytes in base64."""
    body = {"envelopes": [_reference_entry(seq, env) for seq, env in entries]}
    return b"1" + json.dumps({"type": "ack", "body": body}, sort_keys=True,
                             separators=(",", ":")).encode("utf-8") + b"\n"


class TestFetchReply:
    """The fetch reply is spliced from each envelope's kept base64 text; its
    bytes must stay what encode_message gives for the whole reply."""

    def test_spliced_reply_is_byte_identical(self):
        rng = random.Random(20261018)

        def pick_int():
            return rng.choice(_EDGE_INTS + [rng.randrange(2**64)])

        pool = [Envelope(
            sender_id=rng.choice(_TRICKY[1:]),
            recipient_id=rng.choice(_TRICKY),
            counter=pick_int(),
            sender_cert_fingerprint=rng.randbytes(32),
            group_id=rng.choice([None, ""] + _TRICKY),
            payload=SealedPayload(rng.randbytes(16 * rng.randrange(1, 8)),
                                  rng.randbytes(32)),
            sent_at=pick_int(),
        ) for _ in range(200)]
        for case in range(3000):
            entries = [(pick_int(), rng.choice(pool)) for _ in range(case % 6)]
            expected = _reference_fetch_reply(entries)
            assert wire._fetch_reply(entries) == expected
            assert encode_message("ack", {"envelopes": [
                {"seq": seq, "envelope": env.wire_text()} for seq, env in entries
            ]}) == expected

    def test_reply_budget_is_half_a_line(self, monkeypatch):
        """The reply carries the longest prefix of the entries whose texts,
        each counted one byte longer for its comma, fit in half a line, and
        never fewer than one entry."""
        rng = random.Random(20261019)
        entries = [(seq, Envelope(
            sender_id="alice", recipient_id="bob", counter=seq,
            sender_cert_fingerprint=rng.randbytes(32), group_id=None,
            payload=SealedPayload(rng.randbytes(16 * rng.randrange(1, 8)),
                                  rng.randbytes(32)),
            sent_at=rng.randrange(2**64),
        )) for seq in range(1, 9)]
        costs = [len(json.dumps(_reference_entry(seq, env),
                                sort_keys=True, separators=(",", ":"))) + 1
                 for seq, env in entries]
        for k in range(1, len(entries) + 1):
            for budget, fits in ((sum(costs[:k]), k), (sum(costs[:k]) - 1, max(k - 1, 1))):
                monkeypatch.setattr(wire, "_MAX_LINE", 2 * budget)
                assert wire._fetch_reply(entries) == _reference_fetch_reply(entries[:fits])


class TestServer:
    def test_port_conflict_is_startup_error(self, relay, mno, server):
        with pytest.raises(StackStartupError):
            WireServer(relay, mno, host=server.host, port=server.port)

    def test_health_probe(self, rc):
        assert rc.health()

    def test_health_probe_is_one_read_only_round_trip(self, rc, mno, monkeypatch):
        """The probe used to ask the MNO for a challenge too, which left one
        pending and replaced any real enrollment under the probe's id."""
        sent = []
        request = rc.request
        monkeypatch.setattr(rc, "request", lambda t, body: sent.append(t) or request(t, body))
        assert rc.health()
        assert sent == ["fetch_cert"]
        assert json.loads(mno.dump_state())["pending_challenges"] == {}

    def test_full_session_over_wire(self, rc):
        alice = Client.install("alice", rc, rc)
        bob = Client.install("bob", rc, rc)
        alice.start_session("bob")
        envelope = alice.send_text("bob", "via socket")
        assert rc.submit_envelope(envelope) == ACK_QUEUED
        deliveries = bob.pull_messages()
        assert [d.text for d in deliveries] == ["via socket"]

    def test_submit_checks_the_pinned_recipient(self, rc):
        alice = Client.install("alice", rc, rc)
        bob = Client.install("bob", rc, rc)
        alice.start_session("bob")
        Client.install("bob", rc, rc)  # re-issued behind alice's session
        with pytest.raises(WireRemoteError) as err:
            rc.submit_envelope(alice.send_text("bob", "stale"))
        assert err.value.category == "fingerprint-mismatch"
        rc.revoke_user("bob")
        with pytest.raises(WireRemoteError) as err:
            rc.submit_envelope(alice.send_text("bob", "revoked"))
        assert err.value.category == "peer-revoked"
        assert bob.pull_messages() == []

    def test_remote_error_carries_category(self, rc):
        with pytest.raises(WireRemoteError) as err:
            rc.register_user("ghost", b"\x00" * 32)
        assert err.value.category == "registration-refused"

    def test_revoke_via_enroll_family(self, rc):
        Client.install("alice", rc, rc)
        rc.revoke_user("alice")
        assert rc.fetch_certificate("alice").state == "revoked"

    def test_group_flow_over_wire(self, rc):
        users = [Client.install(f"w{i}", rc, rc) for i in range(3)]
        admin = users[0]
        creation = admin.create_group("wireroom", [u.user_id for u in users])
        rc.create_group("wireroom", admin.user_id, creation.member_ids)
        for envelope in creation.envelopes:
            rc.submit_envelope(envelope)
        for user in users[1:]:
            user.pull_messages()
        envelope = admin.send_group_message("wireroom", "fan out")
        acks = rc.broadcast_group("wireroom", envelope)
        assert sorted(member for member, _ in acks) == ["w1", "w2"]
        for user in users[1:]:
            assert [d.text for d in user.pull_messages()] == ["fan out"]

    def test_group_send_of_a_one_to_one_envelope_refused(self, rc):
        users = [Client.install(f"w{i}", rc, rc) for i in range(3)]
        ids = [u.user_id for u in users]
        rc.create_group("wireroom", ids[0], ids)
        users[0].start_session("w1")
        envelope = users[0].send_text("w1", "not for the room")
        with pytest.raises(WireRemoteError) as err:
            rc.broadcast_group("wireroom", envelope)
        assert err.value.category == "protocol-error"
        for user_id in ids[1:]:
            assert rc.fetch_envelopes(user_id, 0) == []

    def test_enroll_lifetime_is_the_mnos(self, rc):
        """A submit body that still names a lifetime gets the MNO's."""
        pair = generate_identity_keypair()
        challenge = rc.new_challenge("alice")
        proof = identity_sig.sign(
            pair, challenge, possession_payload("alice", pair.public_key, challenge))
        reply = rc.request("enroll", _enroll_submit(
            subject_public_key=wire._b64(pair.public_key),
            proof_of_possession=wire._b64(proof)))
        record = CertificateRecord.from_bytes(base64.b64decode(reply["record"]))
        assert record.expires_at - record.issued_at == mno_mod.VALIDITY_SECONDS
        assert rc.fetch_certificate("alice").record == record

    def test_full_mailbox_refused_over_wire(self, rc, monkeypatch):
        monkeypatch.setattr(relay_mod, "MAILBOX_CAP", 1)
        alice = Client.install("alice", rc, rc)
        bob = Client.install("bob", rc, rc)
        alice.start_session("bob")
        assert rc.submit_envelope(alice.send_text("bob", "fits")) == ACK_QUEUED
        with pytest.raises(WireRemoteError) as err:
            rc.submit_envelope(alice.send_text("bob", "does not"))
        assert err.value.category == "mailbox-full"
        assert [d.text for d in bob.pull_messages()] == ["fits"]

    def test_client_reset_ends_the_connection_quietly(self, server, monkeypatch):
        """A reset while the server waits for a request line ends that
        connection's handler without an exception (no traceback in the log)."""
        handler = server._server.RequestHandlerClass
        real_handle, outcomes, done = handler.handle, [], threading.Event()

        def handle(self):
            try:
                real_handle(self)
                outcomes.append(None)
            except BaseException as e:
                outcomes.append(e)
                raise
            finally:
                done.set()

        monkeypatch.setattr(handler, "handle", handle)
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall(encode_message("fetch_cert", {"user_id": "nobody"}))
            with sock.makefile("rb") as stream:
                assert stream.readline()  # the handler is running
            sock.sendall(b"1{")  # a request cut short
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        assert done.wait(timeout=5)
        assert outcomes == [None]

    def test_pipelined_requests_one_connection(self, rc):
        for _ in range(10):
            assert rc.fetch_certificate("nobody").state == "not_found"

    def test_concurrent_connections(self, server):
        import threading
        results = []

        def probe():
            with RelayClient(server.host, server.port) as conn:
                results.append(conn.fetch_certificate("nobody").state)

        threads = [threading.Thread(target=probe) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == ["not_found"] * 8


def test_relay_and_wire_client_take_the_same_parameters():
    """A ``Client`` or a caller that works in process works over the wire."""
    def parameters(klass):
        return {method: [(p.name, p.kind) for p in
                         inspect.signature(getattr(klass, method)).parameters.values()]
                for method in ("register_user", "fetch_certificate", "submit_envelope",
                               "fetch_envelopes", "create_group", "broadcast_group")}

    assert parameters(relay_mod.Relay) == parameters(RelayClient)


def test_protocol_md_lists_exactly_the_message_types():
    text = (Path(__file__).resolve().parents[1] / "PROTOCOL.md").read_text("utf-8")
    for label, types in (("Request types", wire.REQUEST_TYPES),
                         ("Reply types", wire.REPLY_TYPES)):
        listed = re.search(rf"^{label}:([^.]*)\.", text, re.MULTILINE)
        assert listed is not None, label
        assert tuple(re.findall(r"`(\w+)`", listed.group(1))) == types


class TestLineLimit:
    """A line cut at ``_MAX_LINE`` must not leave its rest to be read as the
    next message. The limit is patched small; no test sends 16 MiB."""

    @pytest.mark.parametrize("head", [b"1" + b"x" * 99, b" " * 80 + b"1x"],
                             ids=["text", "blank-start"])
    def test_overlong_request_answered_once_then_closed(self, server, monkeypatch, head):
        monkeypatch.setattr(wire, "_MAX_LINE", 64)
        fetch = encode_message("fetch", {"recipient_id": "alice", "after_seq": 0})
        with socket.create_connection((server.host, server.port)) as sock, \
                sock.makefile("rwb") as stream:
            stream.write(head + b"\n" + fetch)
            stream.flush()
            reply_type, body = decode_message(stream.readline())
            assert (reply_type, body["category"]) == ("error", "protocol-error")
            assert "exceeds 64 bytes" in body["message"]
            try:
                rest = stream.readline()
            except ConnectionResetError:
                rest = b""
            assert rest == b""
        with RelayClient(server.host, server.port) as fresh:
            assert fresh.fetch_certificate("nobody").state == "not_found"

    def test_lines_of_exactly_the_limit_are_served(self, rc, monkeypatch):
        # pad the user id so request and reply are both limit bytes long,
        # newline included
        reply = encode_message("ack", {"record": None, "status": "not_found"})
        user_id = "n" * (len(reply) - len(encode_message("fetch_cert", {"user_id": ""})))
        assert len(encode_message("fetch_cert", {"user_id": user_id})) == len(reply)
        monkeypatch.setattr(wire, "_MAX_LINE", len(reply))
        for _ in range(2):
            assert rc.fetch_certificate(user_id).state == "not_found"

    def test_full_mailbox_drains_over_several_fetches(self, rc, monkeypatch):
        alice = Client.install("alice", rc, rc)
        bob = Client.install("bob", rc, rc)
        alice.start_session("bob")
        monkeypatch.setattr(wire, "_MAX_LINE", 4096)  # server and client share it
        texts = [f"queued text {i}" for i in range(20)]
        for text in texts:
            assert rc.submit_envelope(alice.send_text("bob", text)) == ACK_QUEUED
        batches = []
        while len(batches) < len(texts):
            batch = [d.text for d in bob.pull_messages()]
            if not batch:
                break
            batches.append(batch)
        assert [text for batch in batches for text in batch] == texts
        assert len(batches) > 1

    def test_overlong_reply_raises(self, monkeypatch):
        # the first _MAX_LINE bytes of this reply decode as a valid ack
        monkeypatch.setattr(wire, "_MAX_LINE", 64)
        reply = encode_message("ack", {}).rstrip(b"\n") + b" " * 100 + b"\n"
        with serve_one_reply(reply) as client:
            with pytest.raises(WireProtocolError, match="exceeds 64 bytes"):
                client.request("fetch_cert", {"user_id": "n"})


_KEY = wire._b64(b"\x42" * 32)
_PROOF = wire._b64(b"\x00" * 32)


def _enroll_submit(**fields):
    body = {"phase": "submit", "user_id": "alice", "subject_public_key": _KEY,
            "proof_of_possession": _PROOF, "validity_seconds": 60}
    body.update(fields)
    return body


def _submit(**fields):
    body = {"envelope": _b64(_envelope_bytes()), "recipient_cert_fingerprint": _KEY}
    body.update(fields)
    return body


class TestMalformedBodies:
    """A body with a missing or mistyped field is the client's fault: the
    reply is ``protocol-error``, never ``internal``, and nothing is done."""

    @pytest.mark.parametrize("msg_type, body", [
        ("register", {"user_id": "alice"}),
        ("register", {"user_id": 7, "cert_fingerprint": _KEY}),
        ("fetch_cert", {}),
        ("fetch_cert", {"user_id": None}),
        ("submit", {}),
        ("submit", _submit(envelope={"sender_id": "alice"})),
        ("submit", _submit(envelope="")),
        *[("submit", _submit(envelope=broken(_envelope_bytes())))
          for broken in _BROKEN.values()],
        ("submit", _submit(envelope=_past_u64("counter"))),
        ("submit", _submit(envelope=_past_u64("sent_at"))),
        ("submit", {"envelope": _b64(_envelope_bytes())}),
        ("submit", _submit(recipient_cert_fingerprint="not base64!")),
        ("submit", _submit(recipient_cert_fingerprint=7)),
        ("fetch", {"recipient_id": "alice", "after_seq": "abc"}),
        ("fetch", {"after_seq": 0}),
        ("group_create", {"group_id": "g", "admin_id": "a", "member_ids": None}),
        ("group_create", {"group_id": "g", "admin_id": "a", "member_ids": "abc"}),
        ("group_create", {"group_id": "g", "admin_id": "a", "member_ids": ["a", 1]}),
        ("group_create", {"group_id": "g", "admin_id": "a", "member_ids": ["a", "b", "b"]}),
        ("group_create", {"group_id": "g", "admin_id": "a", "member_ids": ["a", "\ud800"]}),
        ("group_send", {"envelope": _b64(_envelope_bytes(group_id="g"))}),
        ("group_send", {"group_id": "g",
                        "envelope": _BROKEN["truncated"](_envelope_bytes(group_id="g"))}),
        ("enroll", {"phase": "challenge"}),
        ("enroll", {"phase": "revoke"}),
        ("enroll", {"phase": "submit", "user_id": "alice", "proof_of_possession": _PROOF}),
        ("enroll", {"phase": "challenge", "user_id": "\ud800"}),
    ], ids=["register-no-fingerprint", "register-int-user", "fetch_cert-no-user",
            "fetch_cert-null-user", "submit-no-envelope", "submit-envelope-object",
            "submit-envelope-empty",
            *[f"submit-envelope-{how}" for how in _BROKEN],
            "submit-counter-past-u64", "submit-sent_at-past-u64",
            "submit-no-recipient-fingerprint", "submit-bad-recipient-fingerprint",
            "submit-int-recipient-fingerprint",
            "fetch-string-seq", "fetch-no-recipient", "group_create-null-members",
            "group_create-string-members", "group_create-int-member",
            "group_create-duplicate-member", "group_create-lone-surrogate-member",
            "group_send-no-group", "group_send-truncated-envelope",
            "enroll-challenge-no-user", "enroll-revoke-no-user",
            "enroll-submit-no-key", "enroll-challenge-lone-surrogate-user"])
    def test_protocol_error(self, rc, relay, msg_type, body):
        with pytest.raises(WireRemoteError) as err:
            rc.request(msg_type, body)
        assert err.value.category == "protocol-error", str(err.value)
        assert json.loads(relay.dump_state())["groups"] == {}
        assert rc.fetch_certificate("alice").state == "not_found"

    def test_enroll_submit_of_a_lone_surrogate_id(self, rc, mno):
        """JSON spells a lone surrogate, which has no UTF-8 encoding. With a
        challenge pending for such an id, the submit reached the proof
        check, which encodes the id, and got ``internal``."""
        mno.new_challenge("\ud800")
        with pytest.raises(WireRemoteError) as err:
            rc.request("enroll", _enroll_submit(user_id="\ud800"))
        assert err.value.category == "protocol-error", str(err.value)


_ENVELOPE = Envelope.from_bytes(_envelope_bytes())
_CALLS = {
    "fetch_cert": lambda c: c.fetch_certificate("bob"),
    "challenge": lambda c: c.new_challenge("bob"),
    "issue": lambda c: c.issue_certificate(
        EnrollmentRequest("bob", b"\x42" * 32, b"\x00" * 32)),
    "register": lambda c: c.register_user("bob", b"\x42" * 32),
    "submit": lambda c: c.submit_envelope(_ENVELOPE),
    "fetch": lambda c: c.fetch_envelopes("bob", 0),
    "group_send": lambda c: c.broadcast_group("g", _ENVELOPE),
}


class TestMalformedReplies:
    """A reply with a missing or mistyped field is the server's fault: the
    client raises ``WireProtocolError``, never a ``KeyError`` or a wrong value."""

    @pytest.mark.parametrize("call, reply_type, body", [
        ("fetch_cert", "ack", {}),
        ("fetch_cert", "ack", {"status": 7, "record": None}),
        ("fetch_cert", "ack", {"status": "valid", "record": None}),
        ("fetch_cert", "ack", {"status": "expired", "record": None}),
        ("fetch_cert", "ack", {"status": "valid", "record": {"user_id": "bob"}}),
        *[("fetch_cert", "ack", {"status": "valid", "record": broken(_RECORD_BYTES)})
          for broken in _BROKEN.values()],
        ("challenge", "ack", {}),
        ("issue", "ack", {}),
        ("issue", "ack", {"record": _BROKEN["trailing-byte"](_RECORD_BYTES)}),
        ("register", "ack", {"result": 1}),
        ("submit", "ack", {}),
        ("fetch", "ack", {"envelopes": None}),
        ("fetch", "ack", {"envelopes": [{"seq": "1", "envelope": _b64(_envelope_bytes())}]}),
        ("fetch", "ack", {"envelopes": ["x"]}),
        *[("fetch", "ack", {"envelopes": [{"seq": 1, "envelope": broken(_envelope_bytes())}]})
          for broken in _BROKEN.values()],
        ("group_send", "ack", {"acks": [{"member_id": "bob"}]}),
        ("fetch_cert", "error", {"message": "no category"}),
        ("register", "submit", {"result": "registered"}),
    ], ids=["status-missing", "status-int", "valid-without-record",
            "expired-without-record", "record-object",
            *[f"record-{how}" for how in _BROKEN],
            "challenge-missing", "record-missing", "issued-record-trailing-byte",
            "register-int-result", "submit-no-result", "envelopes-null",
            "string-seq", "entry-string", *[f"envelope-{how}" for how in _BROKEN],
            "ack-no-result", "error-no-category", "request-type-reply"])
    def test_protocol_error(self, call, reply_type, body):
        with serve_one_reply(encode_message(reply_type, body)) as client:
            with pytest.raises(WireProtocolError):
                _CALLS[call](client)


# JSON that the decoder's own limits refuse: an integer past CPython's
# int-string digit limit, and nesting past the recursion limit
_HUGE_INT = "9" * 4401
_DEEP_LIST = "[" * 2000 + "]" * 2000


class TestHostileJson:
    """A line that trips a limit of the JSON decoder is the sender's fault:
    ``protocol-error`` on the server, ``WireProtocolError`` on the client."""

    @pytest.mark.parametrize("line", [
        '1{"body":{"after_seq":%s,"recipient_id":"alice"},"type":"fetch"}\n' % _HUGE_INT,
        '1{"body":{"user_id":%s},"type":"fetch_cert"}\n' % _DEEP_LIST,
    ], ids=["huge-int", "deep-nesting"])
    def test_server_answers_protocol_error_and_serves_on(self, server, line):
        assert len(line) < 5000
        with socket.create_connection((server.host, server.port)) as sock, \
                sock.makefile("rwb") as stream:
            stream.write(line.encode("ascii"))
            stream.write(encode_message("fetch_cert", {"user_id": "nobody"}))
            stream.flush()
            reply_type, body = decode_message(stream.readline())
            assert (reply_type, body["category"]) == ("error", "protocol-error")
            reply_type, body = decode_message(stream.readline())
            assert (reply_type, body["status"]) == ("ack", "not_found")

    @pytest.mark.parametrize("reply", [
        '1{"body":{"record":null,"status":%s},"type":"ack"}\n' % _HUGE_INT,
        '1{"body":{"record":%s,"status":"valid"},"type":"ack"}\n' % _DEEP_LIST,
    ], ids=["huge-int", "deep-nesting"])
    def test_client_raises_wire_protocol_error(self, reply):
        assert len(reply) < 5000
        with serve_one_reply(reply.encode("ascii")) as client:
            with pytest.raises(WireProtocolError):
                client.fetch_certificate("nobody")


class TestRoundTrips:
    def test_chat_step_is_submit_then_fetch(self, tmp_path, monkeypatch):
        """One chat step costs two round trips: the send takes no
        certificate fetch, since the relay checks the pinned recipient."""
        with run_stack(StackConfig(state_dir=str(tmp_path / "state"),
                                   relay_port=0)) as stack, \
                RelayClient(stack.host, stack.port) as rc:
            alice = Client.install("alice", rc, rc)
            bob = Client.install("bob", rc, rc)
            alice.start_session("bob")
            bob.start_session("alice")
            issued = []
            request = RelayClient.request

            def counting(self, msg_type, body):
                issued.append(msg_type)
                return request(self, msg_type, body)

            monkeypatch.setattr(RelayClient, "request", counting)
            for text in ("one", "two"):
                issued.clear()
                envelope = alice.send_text("bob", text)
                assert rc.submit_envelope(envelope) == ACK_QUEUED
                assert [d.text for d in bob.pull_messages()] == [text]
                assert issued == ["submit", "fetch"]

    def test_group_envelope_is_encoded_once(self, tmp_path, monkeypatch):
        """A group message in three mailboxes is encoded once on the server,
        however many fetch replies carry it."""
        with run_stack(StackConfig(state_dir=str(tmp_path / "state"),
                                   relay_port=0)) as stack, \
                RelayClient(stack.host, stack.port) as rc:
            users = [Client.install(f"m{i}", rc, rc) for i in range(4)]
            admin = users[0]
            creation = admin.create_group("four", [u.user_id for u in users])
            rc.create_group("four", admin.user_id, creation.member_ids)
            for envelope in creation.envelopes:
                rc.submit_envelope(envelope)
            for user in users[1:]:
                user.pull_messages()
            envelope = admin.send_group_message("four", "to all three")
            server_encodes = []
            canonical_bytes = Envelope.canonical_bytes

            def counting(self):
                data = canonical_bytes(self)
                # the server answers on its handler thread; this one is the client
                if (self.payload == envelope.payload
                        and threading.current_thread() is not threading.main_thread()):
                    server_encodes.append(data)
                return data

            monkeypatch.setattr(Envelope, "canonical_bytes", counting)
            acks = rc.broadcast_group("four", envelope)
            assert [result for _, result in acks] == [ACK_QUEUED] * 3
            for user in users[1:]:
                assert [d.text for d in user.pull_messages()] == ["to all three"]
            assert len(server_encodes) == 1
