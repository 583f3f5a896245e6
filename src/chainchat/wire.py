"""Wire protocol: length-prefixed frames of canonical fields over a local socket.

Every message is one frame, ``u32 length | string type | fields``, in the
canonical field encoding of FORMATS.md (``encoding``), the body at most 2^24
bytes; an envelope or a record is one bytes field of its canonical bytes.
Requests and replies alternate on one connection; replies are either the ack
type or an error carrying a machine-readable category. Both ends read a body
with one ``encoding.Reader`` and require it used up, so any body that does
not parse is ``protocol-error``. PROTOCOL.md fixes each type's field list.

The server fronts all three desk-scale roles on one listener: the relay
endpoints directly, the chain via ``fetch_cert``, and the MNO via the
``enroll`` family (challenge / submit / revoke phases). An accept thread
starts a thread per connection, kept in a registry until it ends; ``close``
ends them all before it lets go of the state-directory lock. At most
``MAX_CONNECTIONS`` are served at once, and one that sends nothing for
``IDLE_TIMEOUT`` seconds is closed, by the kernel's receive timeout. The
relay alone decides which envelopes it admits; the server parses them.
"""

from __future__ import annotations

import contextlib
import os
import socket
import struct
import threading
from typing import BinaryIO, Callable, Dict, List, Optional, Tuple, TypeVar

from .chain import EXPIRED, NOT_FOUND, REVOKED, VALID, CertificateRecord, CertStatus
from .encoding import LENGTH_PREFIX, Reader, encode_bytes, encode_str, encode_u64
from .errors import (
    ChainChatError,
    ChainFormatError,
    StackStartupError,
    WireProtocolError,
    WireRemoteError,
)
from .mno import EnrollmentRequest, MnoCertificateAuthority
from .relay import Envelope, Relay

REQUEST_TYPES = ("enroll", "register", "fetch_cert", "submit", "fetch",
                 "group_create", "group_send")
REPLY_TYPES = ("ack", "error")
_MESSAGE_TYPES = frozenset(REQUEST_TYPES + REPLY_TYPES)
CERT_STATES = (VALID, REVOKED, EXPIRED, NOT_FOUND)

_MAX_FRAME = 1 << 24  # bytes of body, after the length prefix
# an ack holding a list: the frame's length, string "ack" and u64 n
_LIST_ACK_HEAD = struct.Struct(">II3sIQ")
# a fetch entry's u64 seq and its envelope's length prefix
_FETCH_ENTRY_HEAD = struct.Struct(">IQI")
# connections served at once, one thread each; one more gets "server-busy"
MAX_CONNECTIONS = 256
# seconds a connection may wait for its next bytes before it is closed
IDLE_TIMEOUT = 300.0

T = TypeVar("T")


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def encode_message(msg_type: str, body: bytes) -> bytes:
    """The frame of one message; ``body`` is the type's fields, encoded."""
    type_field = encode_str(msg_type)
    return LENGTH_PREFIX.pack(len(type_field) + len(body)) + type_field + body


def decode_message(frame: bytes) -> Tuple[str, Reader]:
    """The type of one frame, and a reader over the fields that follow it."""
    try:
        outer = Reader(frame, what="frame")
        body = Reader(outer.read_bytes(), what="message")
        outer.require_exhausted()
        msg_type = body.read_str()
    except ChainFormatError as e:
        raise WireProtocolError(f"undecodable message: {e}") from e
    if msg_type not in _MESSAGE_TYPES:
        raise WireProtocolError(f"unknown message type {msg_type!r}")
    return msg_type, body


def _read_frame(stream: BinaryIO) -> bytes:
    """The next frame on ``stream``, length prefix included, or ``b""`` when
    the stream ends before a whole frame, or a kernel receive timeout expires
    first (the read gives ``None``, or what had arrived). A length over the
    cap raises: the bytes after it cannot be told apart from the next frame."""
    head = stream.read(4) or b""
    if len(head) < 4:
        return b""
    size = LENGTH_PREFIX.unpack(head)[0]
    if size > _MAX_FRAME:
        raise WireProtocolError(f"frame of {size} bytes exceeds {_MAX_FRAME} bytes")
    body = stream.read(size) or b""
    return head + body if len(body) == size else b""


def _read(body: Reader, read: Callable[[Reader], T]) -> T:
    """``read(body)``, with the body used up exactly; fields that do not
    parse are the sender's fault."""
    try:
        value = read(body)
        body.require_exhausted()
    except ChainFormatError as e:
        raise WireProtocolError(f"malformed message: {e}") from e
    return value


def _read_fetch_entries(body: Reader) -> List[Tuple[int, Envelope]]:
    """A fetch ack, ``u64 n | (u64 seq | bytes envelope)×n``, its ``2n``
    fields split in one pass; a count past the body's end fails at the first
    field that is not there."""
    fields = iter(body.read_fields(2 * body.read_u64()))
    entries = []
    for seq, data in zip(fields, fields):
        if len(seq) != 8:
            raise ChainFormatError("bad integer width in fetch reply")
        entries.append((int.from_bytes(seq, "big"), Envelope.from_bytes(data)))
    return entries


def _encode_list(items: List[bytes]) -> bytes:
    return encode_u64(len(items)) + b"".join(items)


def _ack(body: bytes) -> bytes:
    return encode_message("ack", body)


def _error(category: str, message: str) -> bytes:
    return encode_message("error", encode_str(category) + encode_str(message))


def _list_ack(n: int, parts: List[bytes]) -> bytes:
    """The ack frame ``u64 n`` then ``parts[1:]``, the fields of its ``n``
    items, in one join; ``parts[0]`` is ``b""``, the place of the frame's head."""
    size = _LIST_ACK_HEAD.size - LENGTH_PREFIX.size + sum(map(len, parts))
    parts[0] = _LIST_ACK_HEAD.pack(size, 3, b"ack", 8, n)
    return b"".join(parts)


def _fetch_reply(entries: List[Tuple[int, Envelope]]) -> bytes:
    """The ack of a fetch, ``u64 n | (u64 seq | bytes envelope)×n``, of the
    bytes each envelope holds, those the server received: none is encoded.

    The reply carries the longest prefix of ``entries`` whose fields fit in
    half a frame, and always the first entry, which ``relay.MAX_ENVELOPE`` keeps
    within a frame; the rest stays queued for the next fetch."""
    parts, budget = [b""], _MAX_FRAME // 2
    for seq, env in entries:
        data = env.canonical_bytes()
        budget -= _FETCH_ENTRY_HEAD.size + len(data)
        if budget < 0 and len(parts) > 1:
            break
        parts += (_FETCH_ENTRY_HEAD.pack(8, seq, len(data)), data)
    return _list_ack(len(parts) // 2, parts)


def _group_send_reply(acks: List[Tuple[str, str]]) -> bytes:
    """The ack of a group_send, ``u64 n | (string member | string result)×n``;
    each distinct result is encoded once."""
    results: Dict[str, bytes] = {}
    parts = [b""]
    for member, result in acks:
        field = results.get(result)
        if field is None:
            field = results[result] = encode_str(result)
        parts += (encode_str(member), field)
    return _list_ack(len(acks), parts)


def _read_status(body: Reader) -> CertStatus:
    state, record = body.read_str(), body.read_bytes()
    if state not in CERT_STATES:
        raise WireProtocolError(f"status must be one of {', '.join(CERT_STATES)}")
    if not record and state in (VALID, EXPIRED):
        raise WireProtocolError(f"a {state} status must carry its record")
    return CertStatus(state=state,
                      record=CertificateRecord.from_bytes(record) if record else None)


# ---------------------------------------------------------------------------
# server
# ---------------------------------------------------------------------------

class WireServer:
    """Frame server dispatching wire requests to relay and MNO."""

    def __init__(self, relay: Relay, mno: MnoCertificateAuthority,
                 host: str = "127.0.0.1", port: int = 0, state_lock: Optional[int] = None):
        self.relay = relay
        self.mno = mno
        self._state_lock = state_lock  # a descriptor holding a lock; close() closes it
        try:
            self._listener = socket.create_server((host, port))
        except OSError as e:
            raise StackStartupError(f"cannot bind relay listener on {host}:{port}: {e}") from e
        self.host, self.port = self._listener.getsockname()[:2]
        self._connections: Dict[socket.socket, threading.Thread] = {}  # under _lock
        self._lock, self._closed = threading.Lock(), False
        self._accept_thread = threading.Thread(target=self._accept, name="chainchat-wire",
                                               daemon=True)
        self._accept_thread.start()

    def close(self) -> None:
        """End the accept loop, then every connection, then close the chain
        node, and only then let go of the state-directory lock; a second call
        does nothing."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        self._accept_thread.join()
        self._listener.close()
        with self._lock:  # a registered socket is open: its thread closes it on leaving
            threads = list(self._connections.values())
            for conn in self._connections:
                with contextlib.suppress(OSError):  # already reset by the client
                    conn.shutdown(socket.SHUT_RDWR)  # wakes its thread's read
        for thread in threads:
            thread.join()
        self.mno.chain_node.close()
        if self._state_lock is not None:
            os.close(self._state_lock)

    def __enter__(self) -> "WireServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _accept(self) -> None:
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except OSError:  # shut down by close(), or a connection lost before it was accepted
                continue
            # in the kernel, not settimeout, which polls before each recv and send;
            # _serve ends on it: a read gives no frame, a send raises an OSError
            idle = struct.pack("ll", int(IDLE_TIMEOUT), int(IDLE_TIMEOUT % 1 * 1_000_000))
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, idle)
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, idle)
            with self._lock:
                busy = len(self._connections) >= MAX_CONNECTIONS
                if not busy:
                    thread = self._connections[conn] = threading.Thread(
                        target=self._serve, args=(conn,), name="chainchat-wire-conn",
                        daemon=True)
            if busy:  # one short frame, which the socket's send buffer takes at once
                with contextlib.suppress(OSError), conn:
                    conn.sendall(_error("server-busy", f"{MAX_CONNECTIONS} connections are open"))
                continue
            thread.start()

    def _serve(self, conn: socket.socket) -> None:
        try:  # an OSError (reset by the client, shut down by close()) ends the connection
            with contextlib.suppress(OSError), conn.makefile("rb") as stream:
                try:
                    while frame := _read_frame(stream):
                        try:
                            reply = self._dispatch(*decode_message(frame))
                        except ChainChatError as e:
                            reply = _error(e.category, str(e))
                        except Exception as e:  # never kill the connection loop
                            reply = _error("internal", str(e))
                        conn.sendall(reply)
                except WireProtocolError as e:  # a frame over the cap: answer once, then drop
                    conn.sendall(_error(e.category, str(e)))
        finally:
            with self._lock:
                del self._connections[conn]
                conn.close()

    # -- request dispatch -----------------------------------------------------

    def _dispatch(self, msg_type: str, body: Reader) -> bytes:
        """Serve one request; returns the reply frame. Every field is read,
        and the body found used up, before the request acts."""
        if msg_type == "enroll":
            return _ack(self._handle_enroll(body))
        if msg_type == "register":
            user_id, fingerprint = _read(body, lambda r: (r.read_str(), r.read_bytes()))
            return _ack(encode_str(self.relay.register_user(user_id, fingerprint)))
        if msg_type == "fetch_cert":
            # served as stored: every record was verified when it entered the chain
            status = self.relay.fetch_certificate(_read(body, Reader.read_str))
            record = status.record.canonical_bytes() if status.record else b""
            return _ack(encode_str(status.state) + encode_bytes(record))
        if msg_type == "submit":  # arguments are read left to right: the envelope first
            envelope = _read(body, lambda r: Envelope.from_bytes(r.read_bytes(), r.read_bytes()))
            return _ack(encode_str(self.relay.submit_envelope(envelope)))
        if msg_type == "fetch":
            recipient_id, after_seq = _read(body, lambda r: (r.read_str(), r.read_u64()))
            return _fetch_reply(self.relay.fetch_envelopes(recipient_id, after_seq))
        if msg_type == "group_create":
            group_id, admin_id, members = _read(body, lambda r: (
                r.read_str(), r.read_str(), r.read_strs(r.read_u64())))
            self.relay.create_group(group_id, admin_id, members)
            return _ack(encode_str("created"))
        if msg_type == "group_send":
            group_id, envelope = _read(body, lambda r: (
                r.read_str(), Envelope.from_bytes(r.read_bytes())))
            return _group_send_reply(self.relay.broadcast_group(group_id, envelope))
        raise WireProtocolError(f"unhandled request type {msg_type!r}")

    def _handle_enroll(self, body: Reader) -> bytes:
        try:
            phase = body.read_str()
        except ChainFormatError as e:
            raise WireProtocolError(f"malformed message: {e}") from e
        if phase == "challenge":
            return encode_bytes(self.mno.new_challenge(_read(body, Reader.read_str)))
        if phase == "submit":
            request = _read(body, lambda r: EnrollmentRequest(
                user_id=r.read_str(), subject_public_key=r.read_bytes(),
                proof_of_possession=r.read_bytes()))
            return encode_bytes(self.mno.issue_certificate(request).canonical_bytes())
        if phase == "revoke":
            self.mno.revoke(_read(body, Reader.read_str))
            return encode_str("revoked")
        raise WireProtocolError(f"unknown enroll phase {phase!r}")


# ---------------------------------------------------------------------------
# client
# ---------------------------------------------------------------------------

class RelayClient:
    """Connects to a wire server; presents the relay/MNO surfaces locally.

    Satisfies the client's ``directory`` and ``transport`` duck types plus
    the MNO enrollment surface, so a ``Client`` works identically against a
    remote stack and an in-process one.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")
        self._lock = threading.Lock()

    def close(self) -> None:
        self._file.close()  # read-only: closing it flushes nothing, so it cannot fail
        self._sock.close()

    def __enter__(self) -> "RelayClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(self, msg_type: str, body: bytes) -> Reader:
        """One round trip: ``body`` is the request's fields, encoded; the
        result reads the ack's fields."""
        try:
            with self._lock:
                self._sock.sendall(encode_message(msg_type, body))
                frame = _read_frame(self._file)
            if not frame:
                raise WireProtocolError("connection closed by server")
        except (OSError, WireProtocolError) as e:
            # reset, timeout, a cut or oversized frame: the server may still act on
            # this request, so no later one is sent on this connection
            self.close()
            raise WireProtocolError(f"connection to the server failed: {e}") from e
        reply_type, reply = decode_message(frame)
        if reply_type == "error":
            raise WireRemoteError(*_read(reply, lambda r: (r.read_str(), r.read_str())))
        if reply_type != "ack":
            raise WireProtocolError(f"reply of request type {reply_type!r}")
        return reply

    # -- MNO surface ------------------------------------------------------------

    def new_challenge(self, user_id: str) -> bytes:
        return _read(self.request("enroll", encode_str("challenge") + encode_str(user_id)),
                     Reader.read_bytes)

    def issue_certificate(self, request: EnrollmentRequest) -> CertificateRecord:
        reply = self.request("enroll", encode_str("submit") + encode_str(request.user_id)
                             + encode_bytes(request.subject_public_key)
                             + encode_bytes(request.proof_of_possession))
        return _read(reply, lambda r: CertificateRecord.from_bytes(r.read_bytes()))

    def revoke_user(self, user_id: str) -> None:
        _read(self.request("enroll", encode_str("revoke") + encode_str(user_id)),
              Reader.read_str)

    # -- relay surface -------------------------------------------------------------

    def register_user(self, user_id: str, cert_fingerprint: bytes) -> str:
        return _read(self.request("register", encode_str(user_id)
                                  + encode_bytes(cert_fingerprint)), Reader.read_str)

    def fetch_certificate(self, user_id: str) -> CertStatus:
        return _read(self.request("fetch_cert", encode_str(user_id)), _read_status)

    def submit_envelope(self, envelope: Envelope) -> str:
        return _read(self.request("submit", encode_bytes(envelope.canonical_bytes())
                                  + encode_bytes(envelope.recipient_cert_fingerprint)),
                     Reader.read_str)

    def fetch_envelopes(self, recipient_id: str,
                        after_seq: int) -> List[Tuple[int, Envelope]]:
        reply = self.request("fetch", encode_str(recipient_id) + encode_u64(after_seq))
        return _read(reply, _read_fetch_entries)

    def create_group(self, group_id: str, admin_id: str,
                     member_ids: List[str]) -> None:
        reply = self.request("group_create", encode_str(group_id) + encode_str(admin_id)
                             + _encode_list([encode_str(m) for m in member_ids]))
        _read(reply, Reader.read_str)

    def broadcast_group(self, group_id: str, envelope: Envelope) -> List[Tuple[str, str]]:
        reply = self.request("group_send", encode_str(group_id)
                             + encode_bytes(envelope.canonical_bytes()))
        results = iter(_read(reply, lambda r: r.read_strs(2 * r.read_u64())))
        return list(zip(results, results))  # (member, result) pairs

    # -- health -----------------------------------------------------------------------

    def health(self) -> bool:
        """One read-only round trip: the server routes it and the chain
        answers; nothing on the server changes."""
        try:
            return self.fetch_certificate("__health_probe__").state is not None
        except ChainChatError:
            return False
