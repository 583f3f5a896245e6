import contextlib
import inspect
import json
import os
import random
import re
import socket
import struct
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import oracles
from chainchat import client as client_mod
from chainchat import crypto
from chainchat import identity_sig, wire
from chainchat import mno as mno_mod
from chainchat import relay as relay_mod
from chainchat.client import Client
from chainchat.chain import CertificateRecord, CertStatus, load_chain, verify_chain
from chainchat.config import StackConfig
from chainchat.crypto import SealedPayload, generate_identity_keypair
from chainchat.encoding import U64_MAX, Reader, encode_bytes, encode_str, encode_u64
from chainchat.errors import (
    ChainFormatError,
    InstallError,
    StackStartupError,
    WireProtocolError,
    WireRemoteError,
)
from chainchat.mno import EnrollmentRequest, possession_payload
from chainchat.relay import ACK_QUEUED, Envelope
from chainchat.stack import run_stack
from chainchat.wire import (
    RelayClient,
    WireServer,
    decode_message,
    encode_message,
)


def _read_frame(stream) -> bytes:
    """One frame off ``stream``, length prefix included."""
    head = stream.read(4)
    return head + stream.read(struct.unpack(">I", head)[0])


@contextlib.contextmanager
def serve_one_reply(reply: bytes):
    """A client connected to a fake server that reads one request frame and
    answers it with ``reply``."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve_one():
        conn, _ = listener.accept()
        with conn, conn.makefile("rwb") as stream:
            _read_frame(stream)
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
    def test_frame_is_length_then_fields(self):
        """``u32 length | string type | fields``, the length counting every
        byte after it."""
        raw = encode_message("register", encode_str("u") + encode_bytes(b"\x00\x01"))
        body = b"\x00\x00\x00\x08register" + b"\x00\x00\x00\x01u" + b"\x00\x00\x00\x02\x00\x01"
        assert raw == struct.pack(">I", len(body)) + body

    def test_version_byte_leads(self):
        """A frame leads with its length, whose first byte is 0x00 or 0x01
        under the cap: never the version byte ``1`` that led the JSON lines
        this framing replaced, so the leading byte still tells the two
        protocols apart."""
        for raw in (encode_message("fetch_cert", encode_str("bob")),
                    encode_message("fetch", encode_str("a") + encode_u64(0))):
            assert raw[:1] == b"\x00"
        assert struct.pack(">I", wire._MAX_FRAME)[:1] < b"1"
        assert struct.unpack(">I", b'1{"b')[0] > wire._MAX_FRAME

    def test_canonical_json_sorted_compact(self):
        """A message has exactly one byte encoding, as canonical JSON gave the
        old lines: a decoded frame re-encodes to the same bytes, and the same
        value written in a wider field is refused."""
        raw = encode_message("fetch", encode_str("alice") + encode_u64(7))
        msg_type, body = decode_message(raw)
        fields = encode_str(body.read_str()) + encode_u64(body.read_u64())
        assert body.exhausted
        assert encode_message(msg_type, fields) == raw
        wide = encode_message("fetch", encode_str("alice")
                              + encode_bytes((7).to_bytes(9, "big")))
        _, body = decode_message(wide)
        body.read_str()
        with pytest.raises(ChainFormatError):
            body.read_u64()

    def test_roundtrip(self):
        raw = encode_message("fetch_cert", encode_str("bob"))
        msg_type, body = decode_message(raw)
        assert msg_type == "fetch_cert"
        assert body.read_str() == "bob"
        assert body.exhausted

    def test_missing_version_byte(self):
        """An old client's JSON line is no frame, with its version byte or
        without."""
        with pytest.raises(WireProtocolError):
            decode_message(b'{"type":"fetch_cert","body":{}}\n')
        with pytest.raises(WireProtocolError):
            decode_message(b'1{"body":{},"type":"fetch_cert"}\n')

    def test_unknown_type(self):
        with pytest.raises(WireProtocolError):
            decode_message(encode_message("teleport", b""))

    def test_garbage(self):
        fetch_cert = encode_message("fetch_cert", encode_str("bob"))
        for frame in (b"", b"\x00\x00", b"1not json\n", fetch_cert[:-1], fetch_cert + b"\x00",
                      encode_bytes(encode_bytes(b"\xff")),
                      encode_bytes(b"\x00\x00\x00\x09fetch")):
            with pytest.raises(WireProtocolError):
                decode_message(frame)


def _envelope_bytes(**fields):
    header = {"sender_id": "alice", "recipient_id": "bob", "counter": 0,
              "sender_cert_fingerprint": b"\x42" * 32, "group_id": None, "sent_at": 0,
              "payload": SealedPayload(b"\x10" * 16, b"\x42" * 32)}
    header.update(fields)
    return Envelope(**header).canonical_bytes()


_RECORD_BYTES = CertificateRecord("bob", b"\x42" * 32, "mno-1", 0, 10, "certificate",
                                  b"\x00" * 64).canonical_bytes()
_ZERO_U64 = encode_bytes(b"\x00" * 8)

# canonical bytes broken one way each. Both objects above start with a short
# string field, and their first u64 field holds 0.
_BROKEN = {
    "truncated": lambda data: data[:-1],
    "trailing-byte": lambda data: data + b"\x00",
    "non-utf8-id": lambda data: encode_bytes(b"\xff") + data[4 + data[3]:],
    "u64-width": lambda data: data.replace(_ZERO_U64, encode_bytes(b"\x00" * 7), 1),
}


def _past_u64(field):
    """The test envelope with ``field`` (``counter`` or ``sent_at``) holding
    2**64 as a 9-byte integer."""
    data = _envelope_bytes(**{field: 7})
    return data.replace(encode_u64(7), encode_bytes((1 << 64).to_bytes(9, "big")))


class TestCodecs:
    """Envelopes and records cross the wire as one bytes field holding their
    canonical bytes, the same bytes the MAC and the fingerprint cover."""

    def test_record_bytes_roundtrip(self, mno_credential):
        record = mno_credential.make_record("alice", b"\x42" * 32, 100, 200,
                                            "certificate")
        body = encode_str("valid") + encode_bytes(record.canonical_bytes())
        assert wire._read(Reader(body), wire._read_status) == CertStatus("valid", record)

    def test_envelope_bytes_roundtrip(self, connected_pair):
        alice, bob = connected_pair
        envelope = alice.send_text("bob", "over the wire")
        assert envelope.canonical_bytes() == replace(envelope).canonical_bytes()
        decoded = Envelope.from_bytes(envelope.canonical_bytes())
        assert decoded == envelope
        assert bob.receive_envelope(decoded) == "over the wire"

    def test_empty_group_id_decodes_as_none(self):
        tagged = Envelope.from_bytes(_envelope_bytes(group_id=""))
        assert tagged.group_id is None
        assert tagged.canonical_bytes() == _envelope_bytes(group_id=None)
        assert Envelope.from_bytes(_envelope_bytes(group_id="g")).group_id == "g"

    def test_bad_envelope_obj(self):
        """The envelope object of older builds is no envelope now."""
        body = encode_bytes(json.dumps({"sender_id": "x"}).encode("utf-8"))
        with pytest.raises(WireProtocolError):
            wire._read(Reader(body), lambda r: Envelope.from_bytes(r.read_bytes()))


_TRICKY = ["", "a", "bob", "é", "été", '"', "\\", "\n", "a\"b\\c\nd",
           " ", "\U0001f600", "\x00", "\x7f", "</script>", "user-0017"]
_EDGE_INTS = [0, 1, 255, 2**32, 2**63, U64_MAX]


def _reference_fetch_reply(entries):
    """The fetch ack built field by field with ``struct``, from each
    envelope's canonical bytes."""
    def field(data):
        return struct.pack(">I", len(data)) + data

    fields = field(b"ack") + field(struct.pack(">Q", len(entries)))
    for seq, env in entries:
        fields += field(struct.pack(">Q", seq)) + field(env.canonical_bytes())
    return struct.pack(">I", len(fields)) + fields


class TestFetchReply:
    """The fetch reply is assembled from each envelope's kept canonical
    bytes; its bytes must stay the fields of PROTOCOL.md §fetch."""

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
        for case in range(1000):
            entries = [(pick_int(), rng.choice(pool)) for _ in range(case % 6)]
            reply = wire._fetch_reply(entries)
            assert reply == _reference_fetch_reply(entries)
            [body] = oracles.split_frames(reply)
            assert oracles.read_reply(body, "fetch") == (
                "ack", [[(seq, env.canonical_bytes()) for seq, env in entries]])

    def test_reply_budget_is_half_a_line(self, monkeypatch):
        """The reply carries the longest prefix of the entries whose fields
        (16 bytes and the envelope each) fit in half the frame cap, and never
        fewer than one entry."""
        rng = random.Random(20261019)
        entries = [(seq, Envelope(
            sender_id="alice", recipient_id="bob", counter=seq,
            sender_cert_fingerprint=rng.randbytes(32), group_id=None,
            payload=SealedPayload(rng.randbytes(16 * rng.randrange(1, 8)),
                                  rng.randbytes(32)),
            sent_at=rng.randrange(2**64),
        )) for seq in range(1, 9)]
        costs = [16 + len(env.canonical_bytes()) for _, env in entries]
        for k in range(1, len(entries) + 1):
            for budget, fits in ((sum(costs[:k]), k), (sum(costs[:k]) - 1, max(k - 1, 1))):
                monkeypatch.setattr(wire, "_MAX_FRAME", 2 * budget)
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

    def test_a_mebibyte_user_id_is_refused_and_the_chain_keeps_its_size(self, tmp_path):
        """Nothing bounded an id's length, so a 1 MiB id went into the
        permanent chain over the wire."""
        cfg = StackConfig(state_dir=str(tmp_path / "state"), relay_port=0)
        huge = "u" * 2**20
        with run_stack(cfg) as stack, RelayClient(stack.host, stack.port) as rc:
            size = os.path.getsize(cfg.resolved_chain_file())
            with pytest.raises(InstallError) as err:
                Client.install(huge, rc, rc)
            assert err.value.__cause__.category == "enrollment-refused"
            pair = generate_identity_keypair()
            with pytest.raises(WireRemoteError) as err:
                rc.issue_certificate(EnrollmentRequest(huge, pair.public_key, b"\x00" * 32))
            assert err.value.category == "enrollment-refused"
            assert json.loads(stack.mno.dump_state())["pending_challenges"] == {}
        assert os.path.getsize(cfg.resolved_chain_file()) == size

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

    def test_a_repeated_revoke_is_refused(self, rc):
        Client.install("alice", rc, rc)
        rc.revoke_user("alice")
        with pytest.raises(WireRemoteError, match="already revoked") as err:
            rc.revoke_user("alice")
        assert err.value.category == "revocation-error"

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
        """A submit carries no lifetime: the record gets the MNO's, and a
        submit that still names one after the proof is refused."""
        pair = generate_identity_keypair()
        challenge = rc.new_challenge("alice")
        proof = identity_sig.sign(
            pair, challenge, possession_payload("alice", pair.public_key, challenge))
        submit = encode_str("submit") + _enroll_submit(key=pair.public_key, proof=proof)
        with pytest.raises(WireRemoteError) as err:
            rc.request("enroll", submit + encode_u64(60))
        assert err.value.category == "protocol-error"
        record = CertificateRecord.from_bytes(rc.request("enroll", submit).read_bytes())
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
        """A reset while the server waits for a request frame ends that
        connection's thread without an exception (no traceback in the log)."""
        real_serve, outcomes, done = WireServer._serve, [], threading.Event()

        def serve(self, conn):
            try:
                real_serve(self, conn)
                outcomes.append(None)
            except BaseException as e:
                outcomes.append(e)
                raise
            finally:
                done.set()

        monkeypatch.setattr(WireServer, "_serve", serve)
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall(encode_message("fetch_cert", encode_str("nobody")))
            with sock.makefile("rb") as stream:
                assert _read_frame(stream)  # the connection's thread is running
            sock.sendall(b"\x00\x00\x01\x00fetch")  # a request cut short
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        assert done.wait(timeout=5)
        assert outcomes == [None]

    def test_a_timed_out_round_trip_closes_the_connection(self, server, monkeypatch):
        """A request whose reply does not come in time closes the client's
        connection: the server lets go of it, and a second request fails
        before it is sent, so no handler acts on it."""
        dispatch, handled = WireServer._dispatch, []

        def slow(self, msg_type, body):
            handled.append(msg_type)
            time.sleep(0.5)
            return dispatch(self, msg_type, body)

        monkeypatch.setattr(WireServer, "_dispatch", slow)
        with RelayClient(server.host, server.port, timeout=0.2) as client:
            with pytest.raises(WireProtocolError, match="timed out"):
                client.fetch_certificate("nobody")
            deadline = time.monotonic() + 5
            while server._connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._connections == {}
            with pytest.raises(WireProtocolError):
                client.fetch_certificate("nobody")
        assert handled == ["fetch_cert"]

    def test_pipelined_requests_one_connection(self, rc):
        for _ in range(10):
            assert rc.fetch_certificate("nobody").state == "not_found"

    def test_concurrent_connections(self, server):
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


    def test_an_envelope_no_fetch_reply_can_carry_is_refused(self, rc):
        """No client seals more than ``crypto.MAX_PLAINTEXT`` bytes, so no
        envelope it sends is longer than its header with three ids at the
        cap, the ciphertext of that plaintext (PKCS#7 adds a whole block)
        and the MAC, each field with its 4-byte prefix. A fetch reply
        carries any such envelope. A longer one is refused whole, at submit
        too, and the longest one is delivered."""
        def envelope(size):
            """A group envelope of exactly ``size`` canonical bytes from a
            new member, whose id takes what the ciphertext's 16-byte steps
            leave over."""
            fields = dict(recipient_id="", counter=0, group_id="g", sent_at=0)
            bare = len(Envelope(sender_id="", sender_cert_fingerprint=b"\x42" * 32,
                                payload=SealedPayload(b"", b"\x42" * 32),
                                **fields).canonical_bytes())
            ciphertext = (size - bare - 1) // 16 * 16
            sender = Client.install("s" * (size - bare - ciphertext), rc, rc)
            result = Envelope(sender_id=sender.user_id,
                              sender_cert_fingerprint=sender.cert_fingerprint,
                              payload=SealedPayload(b"\x10" * ciphertext, b"\x42" * 32),
                              **fields)
            assert len(result.canonical_bytes()) == size
            return result

        Client.install("bob", rc, rc)
        header = 3 * (4 + mno_mod.MAX_USER_ID_BYTES) + 2 * (4 + 8) + (4 + 32)
        largest = header + (4 + crypto.MAX_PLAINTEXT + 16) + (4 + 32)
        too_long, fits = envelope(largest + 1), envelope(largest)
        rc.create_group("g", "bob", ["bob", too_long.sender_id, fits.sender_id])
        for send in (lambda: rc.broadcast_group("g", too_long),
                     lambda: rc.request("submit", encode_bytes(too_long.canonical_bytes())
                                        + encode_bytes(b""))):
            with pytest.raises(WireRemoteError) as err:
                send()
            assert err.value.category == "message-too-large"
        assert rc.fetch_envelopes("bob", 0) == []
        assert dict(rc.broadcast_group("g", fits))["bob"] == ACK_QUEUED
        [(seq, delivered)] = rc.fetch_envelopes("bob", 0)
        assert delivered == fits
        assert rc.fetch_envelopes("bob", seq) == []


class TestConnectionBounds:
    """The cap and the timeout are patched small; no test here opens more
    than three connections."""

    @staticmethod
    def _wait_for_registry(server, size):
        deadline = time.monotonic() + 10
        while len(server._connections) > size and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(server._connections) <= size

    def test_a_connection_over_the_cap_is_refused_then_closed(self, server, monkeypatch):
        monkeypatch.setattr(wire, "MAX_CONNECTIONS", 2)
        held = [RelayClient(server.host, server.port) for _ in range(2)]
        try:
            assert all(client.health() for client in held)  # both are registered
            with socket.create_connection((server.host, server.port), timeout=10) as sock, \
                    sock.makefile("rb") as stream:
                reply_type, body = decode_message(_read_frame(stream))
                assert (reply_type, body.read_str()) == ("error", "server-busy")
                assert stream.read() == b""
            assert all(client.health() for client in held)
        finally:
            for client in held:
                client.close()
        self._wait_for_registry(server, 1)
        with RelayClient(server.host, server.port) as fresh:
            assert fresh.health()

    @pytest.mark.parametrize("sent, replies", [
        (b"", 0),
        (encode_message("fetch_cert", encode_str("nobody")), 1),
        (struct.pack(">I", 100) + b"x" * 10, 0),
    ], ids=["nothing", "one-request", "part-of-a-frame"])
    def test_an_idle_connection_is_closed(self, server, monkeypatch, sent, replies):
        monkeypatch.setattr(wire, "IDLE_TIMEOUT", 0.2)
        with socket.create_connection((server.host, server.port), timeout=10) as sock, \
                sock.makefile("rb") as stream:
            sock.sendall(sent)
            for _ in range(replies):
                assert decode_message(_read_frame(stream))[0] == "ack"
            assert stream.read() == b""  # closed by the server, not by the 10 s timeout
        self._wait_for_registry(server, 0)
        with RelayClient(server.host, server.port) as fresh:
            assert fresh.health()


class TestClose:
    def test_no_request_reaches_the_chain_after_close(self, tmp_path):
        """``close`` ends every connection before it lets go of the state
        directory: an enroll sent afterwards on a connection opened before
        it gets no reply and writes nothing, so the next server on the
        directory appends to the chain the first one left, and it verifies."""
        cfg = StackConfig(state_dir=str(tmp_path / "state"), relay_port=0)
        path = cfg.resolved_chain_file()
        first = run_stack(cfg)
        with RelayClient(first.host, first.port) as early:
            Client.install("alice", early, early)
            first.close()
            height = load_chain(path).height
            with pytest.raises(InstallError) as err:
                Client.install("bob", early, early)
            assert isinstance(err.value.__cause__, WireProtocolError)
        assert load_chain(path).height == height
        with run_stack(cfg) as second, RelayClient(second.host, second.port) as rc:
            Client.install("carol", rc, rc)
        state = load_chain(path)
        assert verify_chain(state).ok and state.height == height + 1
        with run_stack(cfg) as third:
            assert third.mno.chain_node.height == height + 1

    def test_close_ends_idle_connections_and_a_second_close_does_nothing(self, server):
        clients = [RelayClient(server.host, server.port) for _ in range(3)]
        try:
            assert clients[0].health()  # one has been served; two never sent a request
            closer = threading.Thread(target=server.close)
            closer.start()
            closer.join(timeout=5)
            assert not closer.is_alive()
            assert not [t for t in threading.enumerate() if t.name.startswith("chainchat-wire")]
            server.close()
            for client in clients:
                with pytest.raises(WireProtocolError):
                    client.fetch_certificate("nobody")
        finally:
            for client in clients:
                client.close()


    def test_close_while_connections_come_and_go(self, server):
        """Connections that open, are served and end while ``close`` runs
        all leave the registry, and ``close`` returns with no wire thread
        left, with threads switching as often as they can."""
        interval, stop = sys.getswitchinterval(), threading.Event()

        def churn():
            while not stop.is_set():
                try:
                    with RelayClient(server.host, server.port, timeout=2) as client:
                        client.fetch_certificate("nobody")
                except (OSError, WireProtocolError):
                    pass  # refused or ended by close()

        workers = [threading.Thread(target=churn) for _ in range(8)]
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            time.sleep(0.2)
            closer = threading.Thread(target=server.close)
            closer.start()
            closer.join(timeout=10)
            assert not closer.is_alive()
            assert server._connections == {}
            assert not [t for t in threading.enumerate() if t.name.startswith("chainchat-wire")]
        finally:
            stop.set()
            for worker in workers:
                worker.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)


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


def _assert_refused_then_closed(sock, stream, limit):
    reply_type, body = decode_message(_read_frame(stream))
    assert (reply_type, body.read_str()) == ("error", "protocol-error")
    assert f"exceeds {limit} bytes" in body.read_str()
    try:
        rest = stream.read()
    except ConnectionResetError:
        rest = b""
    assert rest == b""


class TestLineLimit:
    """The frame limit: a length over the cap must not leave the bytes after
    it to be read as the next frame. The cap is patched small; no test sends
    16 MiB."""

    @pytest.mark.parametrize("head", [b"1" + b"x" * 99, b"\x00\x00\x00\x41" + b"x" * 65],
                             ids=["text", "blank-start"])
    def test_overlong_request_answered_once_then_closed(self, server, monkeypatch, head):
        """``text``: bytes whose first four read as a huge length; and a length
        of zero high bytes just over the cap."""
        monkeypatch.setattr(wire, "_MAX_FRAME", 64)
        fetch = encode_message("fetch", encode_str("alice") + encode_u64(0))
        with socket.create_connection((server.host, server.port)) as sock, \
                sock.makefile("rwb") as stream:
            stream.write(head + fetch)
            stream.flush()
            _assert_refused_then_closed(sock, stream, 64)
        with RelayClient(server.host, server.port) as fresh:
            assert fresh.fetch_certificate("nobody").state == "not_found"

    def test_old_json_client_is_refused_and_closed(self, server):
        """A line of the JSON protocol this framing replaced: its first four
        bytes read as a length over the cap."""
        line = b'1{"body":{"user_id":"nobody"},"type":"fetch_cert"}\n'
        with socket.create_connection((server.host, server.port)) as sock, \
                sock.makefile("rwb") as stream:
            stream.write(line + line)
            stream.flush()
            _assert_refused_then_closed(sock, stream, wire._MAX_FRAME)

    def test_lines_of_exactly_the_limit_are_served(self, rc, monkeypatch):
        # pad the user id so request and reply bodies are both limit bytes long
        reply = encode_message("ack", encode_str("not_found") + encode_bytes(b""))
        user_id = "n" * (len(reply) - len(encode_message("fetch_cert", encode_str(""))))
        assert len(encode_message("fetch_cert", encode_str(user_id))) == len(reply)
        monkeypatch.setattr(wire, "_MAX_FRAME", len(reply) - 4)
        for _ in range(2):
            assert rc.fetch_certificate(user_id).state == "not_found"

    def test_full_mailbox_drains_over_several_fetches(self, rc, monkeypatch):
        alice = Client.install("alice", rc, rc)
        bob = Client.install("bob", rc, rc)
        alice.start_session("bob")
        monkeypatch.setattr(wire, "_MAX_FRAME", 4096)  # server and client share it
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
        # the first 64 bytes of this reply's body decode as a valid ack
        monkeypatch.setattr(wire, "_MAX_FRAME", 64)
        fields = encode_str("ack") + encode_str("registered")
        reply = struct.pack(">I", 100) + fields + b"\x00" * (100 - len(fields))
        with serve_one_reply(reply) as client:
            with pytest.raises(WireProtocolError, match="exceeds 64 bytes"):
                client.request("register", encode_str("n") + encode_bytes(b""))


_KEY = b"\x42" * 32
_PROOF = b"\x00" * 32
_NOT_UTF8 = encode_u64(U64_MAX)  # an integer field where a string goes: no UTF-8
_SURROGATE = encode_bytes(b"\xed\xa0\x80")  # the UTF-8 pattern of U+D800, which has none


def _enroll_submit(user=encode_str("alice"), key=_KEY, proof=_PROOF):
    return user + encode_bytes(key) + encode_bytes(proof)


def _submit(envelope=None, fingerprint=encode_bytes(_KEY)):
    return encode_bytes(_envelope_bytes() if envelope is None else envelope) + fingerprint


def _group_create(*members):
    return encode_str("g") + encode_str("a") + encode_u64(len(members)) + b"".join(members)


# Request bodies, each valid but for one fault. The ids name the faults of
# the JSON protocol this framing replaced; each body is the frame fault that
# stands for it.
_MALFORMED_BODIES = {
    "register-no-fingerprint": ("register", encode_str("alice")),
    "register-int-user": ("register", _NOT_UTF8 + encode_bytes(_KEY)),
    "fetch_cert-no-user": ("fetch_cert", b""),
    "fetch_cert-null-user": ("fetch_cert", b"\x00\x00"),
    "submit-no-envelope": ("submit", b""),
    "submit-envelope-object": ("submit", _submit(json.dumps({"sender_id": "alice"}).encode())),
    "submit-envelope-empty": ("submit", _submit(b"")),
    **{f"submit-envelope-{how}": ("submit", _submit(broken(_envelope_bytes())))
       for how, broken in _BROKEN.items()},
    "submit-counter-past-u64": ("submit", _submit(_past_u64("counter"))),
    "submit-sent_at-past-u64": ("submit", _submit(_past_u64("sent_at"))),
    "submit-no-recipient-fingerprint": ("submit", _submit(fingerprint=b"")),
    "submit-bad-recipient-fingerprint": ("submit", _submit(fingerprint=b"\x00\x00\x00\x20")),
    "submit-int-recipient-fingerprint": ("submit", _submit() + encode_u64(7)),
    "fetch-string-seq": ("fetch", encode_str("alice") + encode_str("abc")),
    "fetch-no-recipient": ("fetch", encode_u64(0)),
    "group_create-null-members": ("group_create", encode_str("g") + encode_str("a")),
    "group_create-string-members": ("group_create",
                                    encode_str("g") + encode_str("a") + encode_str("abc")),
    "group_create-int-member": ("group_create", _group_create(encode_str("a"), _NOT_UTF8)),
    "group_create-duplicate-member": ("group_create", _group_create(
        encode_str("a"), encode_str("b"), encode_str("b"))),
    "group_create-lone-surrogate-member": ("group_create",
                                           _group_create(encode_str("a"), _SURROGATE)),
    # a list count is not checked ahead: 2^63 members, one of them present
    "group_create-huge-count": ("group_create", encode_str("g") + encode_str("a")
                                + encode_u64(1 << 63) + encode_str("a")),
    "group_send-no-group": ("group_send", encode_bytes(_envelope_bytes(group_id="g"))),
    "group_send-truncated-envelope": ("group_send", encode_str("g") + encode_bytes(
        _BROKEN["truncated"](_envelope_bytes(group_id="g")))),
    "enroll-challenge-no-user": ("enroll", encode_str("challenge")),
    "enroll-revoke-no-user": ("enroll", encode_str("revoke")),
    "enroll-submit-no-key": ("enroll", encode_str("submit") + encode_str("alice")
                             + encode_bytes(_PROOF)),
    "enroll-challenge-lone-surrogate-user": ("enroll", encode_str("challenge") + _SURROGATE),
}

# one valid body per request and enroll phase, each naming only ids that
# hold nothing, with the offset of a string field's length and of a u64
# field's length (None where the request has no u64 field of its own)
_VALID_BODIES = {
    "enroll/challenge": ("enroll", encode_str("challenge") + encode_str("alice"), 13, None),
    "enroll/submit": ("enroll", encode_str("submit") + _enroll_submit(), 10, None),
    "enroll/revoke": ("enroll", encode_str("revoke") + encode_str("alice"), 10, None),
    "register": ("register", encode_str("alice") + encode_bytes(_KEY), 0, None),
    "fetch_cert": ("fetch_cert", encode_str("alice"), 0, None),
    "submit": ("submit", _submit(), 4, 4 + 9 + 7),
    "fetch": ("fetch", encode_str("alice") + encode_u64(0), 0, 9),
    "group_create": ("group_create", _group_create(encode_str("a"), encode_str("b")), 0, 10),
    "group_send": ("group_send", encode_str("g") + encode_bytes(_envelope_bytes(group_id="g")),
                   0, 5 + 4 + 9 + 7),
}


def _break(body, how, string_at, u64_at):
    if how == "truncated":
        return body[:-1]
    if how == "trailing-bytes":
        return body + b"\x00"
    if how == "bad-utf8":  # the string field's first byte
        return body[:string_at + 4] + b"\xff" + body[string_at + 5:]
    # bad-u64-width: the u64 field's length says 7, and every later offset holds
    return body[:u64_at] + b"\x00\x00\x00\x07" + body[u64_at + 4:]


_BREAKS = ("truncated", "trailing-bytes", "bad-utf8", "bad-u64-width")


class TestMalformedBodies:
    """A body that does not parse is the client's fault: the reply is
    ``protocol-error``, never ``internal``, nothing is done, and the
    connection serves the next request."""

    @pytest.mark.parametrize("msg_type, body", list(_MALFORMED_BODIES.values()),
                             ids=list(_MALFORMED_BODIES))
    def test_protocol_error(self, rc, relay, msg_type, body):
        with pytest.raises(WireRemoteError) as err:
            rc.request(msg_type, body)
        assert err.value.category == "protocol-error", str(err.value)
        assert json.loads(relay.dump_state())["groups"] == {}
        assert rc.fetch_certificate("alice").state == "not_found"

    @pytest.mark.parametrize("request_name", list(_VALID_BODIES))
    def test_each_request_refuses_a_broken_body(self, rc, relay, mno, request_name):
        """Truncated, with trailing bytes, with a string that is not UTF-8,
        and with a u64 field whose length is not 8, where the request has one."""
        msg_type, body, string_at, u64_at = _VALID_BODIES[request_name]
        for how in _BREAKS[:3] if u64_at is None else _BREAKS:
            with pytest.raises(WireRemoteError) as err:
                rc.request(msg_type, _break(body, how, string_at, u64_at))
            assert err.value.category == "protocol-error", (how, str(err.value))
            assert json.loads(relay.dump_state())["groups"] == {}
            assert json.loads(mno.dump_state())["pending_challenges"] == {}
            assert rc.fetch_certificate("alice").state == "not_found"

    def test_enroll_submit_of_a_lone_surrogate_id(self, rc, mno):
        """An id whose bytes are the UTF-8 pattern of a lone surrogate is not
        UTF-8. With a challenge pending for such an id, a submit once reached
        the proof check, which encodes the id, and got ``internal``."""
        mno.new_challenge("\ud800")
        with pytest.raises(WireRemoteError) as err:
            rc.request("enroll", encode_str("submit") + _enroll_submit(user=_SURROGATE))
        assert err.value.category == "protocol-error", str(err.value)


_ENVELOPE = Envelope.from_bytes(_envelope_bytes())
_CALLS = {
    "fetch_cert": lambda c: c.fetch_certificate("bob"),
    "challenge": lambda c: c.new_challenge("bob"),
    "issue": lambda c: c.issue_certificate(
        EnrollmentRequest("bob", b"\x42" * 32, b"\x00" * 32)),
    "revoke": lambda c: c.revoke_user("bob"),
    "register": lambda c: c.register_user("bob", b"\x42" * 32),
    "submit": lambda c: c.submit_envelope(_ENVELOPE),
    "fetch": lambda c: c.fetch_envelopes("bob", 0),
    "group_create": lambda c: c.create_group("g", "bob", ["bob"]),
    "group_send": lambda c: c.broadcast_group("g", _ENVELOPE),
}


def _entry(seq=encode_u64(1), envelope=_envelope_bytes(), count=1):
    return encode_u64(count) + seq + encode_bytes(envelope)


# Reply bodies, each valid but for one fault; the ids name the faults of the
# JSON protocol this framing replaced, as for the request bodies.
_MALFORMED_REPLIES = {
    "status-missing": ("fetch_cert", "ack", b""),
    "status-int": ("fetch_cert", "ack", encode_u64(7) + encode_bytes(b"")),
    "valid-without-record": ("fetch_cert", "ack", encode_str("valid") + encode_bytes(b"")),
    "expired-without-record": ("fetch_cert", "ack", encode_str("expired") + encode_bytes(b"")),
    "record-object": ("fetch_cert", "ack", encode_str("valid") + encode_bytes(
        json.dumps({"user_id": "bob"}).encode())),
    **{f"record-{how}": ("fetch_cert", "ack",
                         encode_str("valid") + encode_bytes(broken(_RECORD_BYTES)))
       for how, broken in _BROKEN.items()},
    "challenge-missing": ("challenge", "ack", b""),
    "record-missing": ("issue", "ack", b""),
    "issued-record-trailing-byte": ("issue", "ack",
                                    encode_bytes(_BROKEN["trailing-byte"](_RECORD_BYTES))),
    "register-int-result": ("register", "ack", _NOT_UTF8),
    "submit-no-result": ("submit", "ack", b""),
    "envelopes-null": ("fetch", "ack", b""),
    "string-seq": ("fetch", "ack", _entry(seq=encode_str("1"))),
    "entry-string": ("fetch", "ack", encode_u64(1) + encode_str("x")),
    **{f"envelope-{how}": ("fetch", "ack", _entry(envelope=broken(_envelope_bytes())))
       for how, broken in _BROKEN.items()},
    "ack-no-result": ("group_send", "ack", encode_u64(1) + encode_str("bob")),
    # a list count is not checked ahead: 2^63 items, one of them present
    "envelopes-huge-count": ("fetch", "ack", _entry(count=1 << 63)),
    "acks-huge-count": ("group_send", "ack",
                        encode_u64(1 << 63) + encode_str("bob") + encode_str("queued")),
    "error-no-category": ("fetch_cert", "error", encode_str("no category")),
    "request-type-reply": ("register", "submit", encode_str("registered")),
}

# one valid ack body per client call, with the offset of a string field's
# length and of a u64 field's length (None where the reply has none)
_VALID_REPLIES = {
    "fetch_cert": (encode_str("valid") + encode_bytes(_RECORD_BYTES), 0, 9 + 4 + 7 + 36 + 9),
    "challenge": (encode_bytes(_KEY), None, None),
    "issue": (encode_bytes(_RECORD_BYTES), 4, 4 + 7 + 36 + 9),
    "revoke": (encode_str("revoked"), 0, None),
    "register": (encode_str("registered"), 0, None),
    "submit": (encode_str("queued"), 0, None),
    "fetch": (_entry(), 12 + 12 + 4, 0),
    "group_create": (encode_str("created"), 0, None),
    "group_send": (encode_u64(1) + encode_str("bob") + encode_str("queued"), 12, 0),
}
_BROKEN_REPLIES = [(call, how) for call, (_, string_at, u64_at) in _VALID_REPLIES.items()
                   for how in _BREAKS
                   if (how != "bad-utf8" or string_at is not None)
                   and (how != "bad-u64-width" or u64_at is not None)]


class TestMalformedReplies:
    """A reply that does not parse is the server's fault: the client raises
    ``WireProtocolError``, never a ``KeyError`` or a wrong value."""

    @pytest.mark.parametrize("call, reply_type, body", list(_MALFORMED_REPLIES.values()),
                             ids=list(_MALFORMED_REPLIES))
    def test_protocol_error(self, call, reply_type, body):
        with serve_one_reply(encode_message(reply_type, body)) as client:
            with pytest.raises(WireProtocolError):
                _CALLS[call](client)

    @pytest.mark.parametrize("call", list(_VALID_REPLIES))
    def test_each_valid_reply_is_read(self, call):
        with serve_one_reply(encode_message("ack", _VALID_REPLIES[call][0])) as client:
            _CALLS[call](client)

    @pytest.mark.parametrize("call, how", _BROKEN_REPLIES,
                             ids=[f"{c}-{h}" for c, h in _BROKEN_REPLIES])
    def test_each_reply_refuses_a_broken_body(self, call, how):
        body, string_at, u64_at = _VALID_REPLIES[call]
        with serve_one_reply(encode_message("ack", _break(body, how, string_at, u64_at))) \
                as client:
            with pytest.raises(WireProtocolError):
                _CALLS[call](client)


class _Tap:
    """A TCP relay between a client and a server that keeps every byte each
    way; one connection."""

    def __init__(self, server):
        self.sent, self.received = bytearray(), bytearray()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.host, self.port = self._listener.getsockname()
        self._upstream = (server.host, server.port)
        self._threads = [threading.Thread(target=self._accept)]
        self._threads[0].start()

    def _accept(self):
        down, _ = self._listener.accept()
        up = socket.create_connection(self._upstream)
        pumps = [threading.Thread(target=self._pump, args=(down, up, self.sent)),
                 threading.Thread(target=self._pump, args=(up, down, self.received))]
        for pump in pumps:
            pump.start()
        for pump in pumps:
            pump.join()
        down.close()
        up.close()

    @staticmethod
    def _pump(src, dst, record):
        while True:
            data = src.recv(65536)
            if not data:
                dst.shutdown(socket.SHUT_WR)
                return
            record += data
            dst.sendall(data)

    def close(self):
        self._threads[0].join(timeout=10)
        self._listener.close()
        assert not self._threads[0].is_alive()


class TestIndependentReader:
    def test_tapped_session_parses_exactly(self, server):
        """Every frame of a session, read with ``oracles``' reader written
        from PROTOCOL.md alone, parses exactly: every request type and
        enroll phase, an error reply, a fetch of several entries and a
        fan-out."""
        tap = _Tap(server)
        with RelayClient(tap.host, tap.port) as rc:
            users = [Client.install(f"t{i}", rc, rc) for i in range(3)]
            alice, bob, carol = users
            alice.start_session("t1")
            texts = ["one", "two", "three"]
            envelopes = [alice.send_text("t1", text) for text in texts]
            for envelope in envelopes:
                rc.submit_envelope(envelope)
            assert [d.text for d in bob.pull_messages()] == texts
            creation = alice.create_group("room", [u.user_id for u in users])
            rc.create_group("room", "t0", creation.member_ids)
            for envelope in creation.envelopes:
                rc.submit_envelope(envelope)
            bob.pull_messages()
            carol.pull_messages()
            group_envelope = alice.send_group_message("room", "to the room")
            rc.broadcast_group("room", group_envelope)
            with pytest.raises(WireRemoteError):
                rc.register_user("ghost", b"\x00" * 32)
            rc.revoke_user("t2")
        tap.close()

        requests = [oracles.read_request(b) for b in oracles.split_frames(bytes(tap.sent))]
        replies = oracles.split_frames(bytes(tap.received))
        assert len(replies) == len(requests)
        exchanges = [(name, fields, oracles.read_reply(body, name))
                     for (name, fields), body in zip(requests, replies)]
        assert {name for name, _, _ in exchanges} == set(oracles.REQUEST_FIELDS)

        assert ("register", ["ghost", b"\x00" * 32],
                ("error", ["registration-refused", "certificate for 'ghost' is not_found"])) \
            in exchanges
        fetched = [reply[1][0] for name, _, reply in exchanges
                   if name == "fetch" and len(reply[1][0]) > 1]
        assert [[data for _, data in entries] for entries in fetched] == \
            [[e.canonical_bytes() for e in envelopes]]
        [(_, send_fields, fan_out)] = [x for x in exchanges if x[0] == "group_send"]
        assert send_fields == ["room", group_envelope.canonical_bytes()]
        assert fan_out == ("ack", [[("t1", ACK_QUEUED), ("t2", ACK_QUEUED)]])
        submits = [fields for name, fields, _ in exchanges if name == "submit"]
        assert submits[0] == [envelopes[0].canonical_bytes(),
                              envelopes[0].recipient_cert_fingerprint]


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

    def test_a_sent_envelope_is_encoded_once(self, tmp_path, monkeypatch):
        """One ``send_text`` and its wire submit encode the header once, as the
        client seals: the submit sends the bytes the envelope holds, and the
        server and the recipient keep the bytes they parsed."""
        with run_stack(StackConfig(state_dir=str(tmp_path / "state"),
                                   relay_port=0)) as stack, \
                RelayClient(stack.host, stack.port) as rc:
            alice, bob = (Client.install(user, rc, rc) for user in ("alice", "bob"))
            alice.start_session("bob")
            encodes, header_bytes = [], relay_mod.header_bytes

            def counting(*fields):
                encodes.append(fields)
                return header_bytes(*fields)

            monkeypatch.setattr(relay_mod, "header_bytes", counting)
            monkeypatch.setattr(client_mod, "header_bytes", counting)
            assert rc.submit_envelope(alice.send_text("bob", "once")) == ACK_QUEUED
            assert [d.text for d in bob.pull_messages()] == ["once"]
            assert len(encodes) == 1

    def test_group_envelope_is_encoded_once(self, tmp_path, monkeypatch):
        """A group message in three mailboxes is encoded once, by its sender:
        the server encodes no envelope header, and each fetch reply carries
        the exact bytes the group_send carried."""
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
            header_bytes = relay_mod.header_bytes

            def counting(*fields):
                data = header_bytes(*fields)
                # the server answers on a connection's thread; this one is the client
                if threading.current_thread() is not threading.main_thread():
                    server_encodes.append(data)
                return data

            replies, decode = [], wire.decode_message

            def recording(frame):
                if threading.current_thread() is threading.main_thread():
                    replies.append(frame)
                return decode(frame)

            monkeypatch.setattr(relay_mod, "header_bytes", counting)
            monkeypatch.setattr(wire, "decode_message", recording)
            sent = envelope.canonical_bytes()
            acks = rc.broadcast_group("four", envelope)
            assert [result for _, result in acks] == [ACK_QUEUED] * 3
            for user in users[1:]:
                replies.clear()
                assert [d.text for d in user.pull_messages()] == ["to all three"]
                (reply,) = replies
                _, body = decode(reply)
                assert (body.read_u64(), body.read_u64() > 0, body.read_bytes()) == \
                    (1, True, sent)
                body.require_exhausted()
            assert server_encodes == []
