"""Wire protocol: newline-delimited canonical messages over a local socket.

Every message on the stream is the version byte "1", a canonical JSON object
{"type": ..., "body": ...} (sorted keys, no extra whitespace, byte fields as
base64; an envelope or a certificate record is the base64 of its canonical
bytes), and a trailing newline. Requests and replies alternate on one
connection; replies are either the ack type or an error carrying a
machine-readable category. PROTOCOL.md in the repository root fixes the
exact field names.

The server fronts all three desk-scale roles on one listener: the relay
endpoints directly, the chain via ``fetch_cert``, and the MNO via the
``enroll`` family (challenge / submit / revoke phases).
"""

from __future__ import annotations

import base64
import json
import socket
import socketserver
import threading
from typing import Any, Dict, List, Tuple

from .chain import EXPIRED, NOT_FOUND, REVOKED, VALID, CertificateRecord, CertStatus
from .encoding import CANONICAL_JSON
from .encoding import b64_text as _b64
from .errors import ChainChatError, ChainFormatError, StackStartupError, WireProtocolError
from .mno import EnrollmentRequest, MnoCertificateAuthority
from .relay import Envelope, Relay

VERSION_BYTE = b"1"
REQUEST_TYPES = ("enroll", "register", "fetch_cert", "submit", "fetch",
                 "group_create", "group_send")
REPLY_TYPES = ("ack", "error")
CERT_STATES = (VALID, REVOKED, EXPIRED, NOT_FOUND)

_MAX_LINE = 1 << 24


def _unb64(text: Any) -> bytes:
    if not isinstance(text, str):
        raise WireProtocolError("expected base64 string field")
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as e:
        raise WireProtocolError(f"bad base64 field: {e}") from e


def _text(value: Any, what: str) -> str:
    """``value`` if it is a string that has a UTF-8 encoding; JSON also
    spells a lone surrogate, which has none."""
    if isinstance(value, str):
        try:
            value.encode("utf-8")
            return value
        except UnicodeEncodeError:
            pass
    raise WireProtocolError(f"{what} must be a UTF-8 string")


def _str(obj: Dict[str, Any], key: str) -> str:
    return _text(obj.get(key), f"field {key!r}")


def _int(obj: Dict[str, Any], key: str) -> int:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireProtocolError(f"field {key!r} must be an integer")
    return value


def _obj(value: Any, what: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise WireProtocolError(f"{what} must be an object")
    return value


def _list(obj: Dict[str, Any], key: str) -> List[Any]:
    value = obj.get(key)
    if not isinstance(value, list):
        raise WireProtocolError(f"field {key!r} must be a list")
    return value


def encode_message(msg_type: str, body: Dict[str, Any]) -> bytes:
    payload = CANONICAL_JSON.encode({"type": msg_type, "body": body})
    return VERSION_BYTE + payload.encode("utf-8") + b"\n"


def _fetch_reply(entries: List[Tuple[int, Envelope]]) -> bytes:
    """``encode_message("ack", {"envelopes": [{"seq": ..., "envelope": ...}]})``
    byte for byte, spliced from each envelope's kept base64 text (which JSON
    carries unescaped), so an envelope held by many mailboxes is encoded once.

    The reply carries the longest prefix of ``entries`` whose texts fit in
    half a line, and always the first entry, which is about as long as the
    request that queued it; the rest stays queued for the next fetch."""
    items, budget = [], _MAX_LINE // 2
    for seq, env in entries:
        item = f'{{"envelope":"{env.wire_text()}","seq":{seq:d}}}'
        budget -= len(item) + 1
        if items and budget < 0:
            break
        items.append(item)
    return b'%s{"body":{"envelopes":[%s]},"type":"ack"}\n' % (
        VERSION_BYTE, ",".join(items).encode("ascii"))


def _overlong(line: bytes) -> bool:
    """True when ``readline(_MAX_LINE)`` stopped at the limit, not at a newline."""
    return len(line) >= _MAX_LINE and not line.endswith(b"\n")


def decode_message(line: bytes) -> Tuple[str, Dict[str, Any]]:
    line = line.rstrip(b"\n")
    if not line.startswith(VERSION_BYTE):
        raise WireProtocolError("missing protocol version byte")
    try:
        obj = json.loads(line[1:].decode("utf-8"))
    except (ValueError, RecursionError) as e:  # also the int-digit and nesting limits
        raise WireProtocolError(f"undecodable message: {e}") from e
    if not isinstance(obj, dict) or "type" not in obj or "body" not in obj:
        raise WireProtocolError("message must be an object with type and body")
    msg_type, body = obj["type"], obj["body"]
    if msg_type not in REQUEST_TYPES + REPLY_TYPES:
        raise WireProtocolError(f"unknown message type {msg_type!r}")
    if not isinstance(body, dict):
        raise WireProtocolError("message body must be an object")
    return msg_type, body


# ---------------------------------------------------------------------------
# object and status codecs
# ---------------------------------------------------------------------------

def _decoded(cls: Any, text: Any, **note: bytes) -> Any:
    """``cls.from_bytes`` of a wire field that carries an object's canonical
    bytes (FORMATS.md) as base64, with ``note`` (a submit's relay note)
    passed on; bytes that do not parse are the sender's fault, as a
    mistyped field is."""
    try:
        return cls.from_bytes(_unb64(text), **note)
    except ChainFormatError as e:
        raise WireProtocolError(f"malformed field: {e}") from e


def status_to_obj(status: CertStatus) -> Dict[str, Any]:
    return {
        "status": status.state,
        "record": _b64(status.record.canonical_bytes()) if status.record else None,
    }


def status_from_obj(obj: Dict[str, Any]) -> CertStatus:
    state = obj.get("status")
    if state not in CERT_STATES:
        raise WireProtocolError(f"field 'status' must be one of {', '.join(CERT_STATES)}")
    record = obj.get("record")
    if record is None and state in (VALID, EXPIRED):
        raise WireProtocolError(f"a {state} status must carry its record")
    return CertStatus(state=state,
                      record=None if record is None else _decoded(CertificateRecord, record))


# ---------------------------------------------------------------------------
# server
# ---------------------------------------------------------------------------

class WireServer:
    """Threaded line server dispatching wire requests to relay and MNO."""

    def __init__(self, relay: Relay, mno: MnoCertificateAuthority,
                 host: str = "127.0.0.1", port: int = 0):
        self.relay = relay
        self.mno = mno
        dispatch = self._dispatch

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                while True:
                    try:
                        line = self.rfile.readline(_MAX_LINE)
                    except OSError:  # e.g. reset by the client: the connection is over
                        return
                    if not line:
                        return
                    # the rest of an overlong line would be read as the next
                    # request, so answer once and drop the connection
                    overlong = _overlong(line)
                    if line.strip() == b"" and not overlong:
                        continue
                    try:
                        if overlong:
                            raise WireProtocolError(f"line exceeds {_MAX_LINE} bytes")
                        reply = dispatch(*decode_message(line))
                    except ChainChatError as e:
                        reply = encode_message("error", {"category": e.category,
                                                         "message": str(e)})
                    except Exception as e:  # never kill the connection loop
                        reply = encode_message("error", {"category": "internal",
                                                         "message": str(e)})
                    try:
                        self.wfile.write(reply)
                        self.wfile.flush()
                    except OSError:
                        return
                    if overlong:
                        return

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        try:
            self._server = Server((host, port), Handler)
        except OSError as e:
            raise StackStartupError(f"cannot bind relay listener on {host}:{port}: {e}") from e
        self.host, self.port = self._server.server_address
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="chainchat-wire", daemon=True)
        self._thread.start()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()

    def __enter__(self) -> "WireServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request dispatch -----------------------------------------------------

    def _dispatch(self, msg_type: str, body: Dict[str, Any]) -> bytes:
        """Serve one request; returns the encoded reply line."""
        if msg_type == "enroll":
            return encode_message("ack", self._handle_enroll(body))
        if msg_type == "register":
            result = self.relay.register_user(_str(body, "user_id"),
                                              _unb64(body.get("cert_fingerprint")))
            return encode_message("ack", {"result": result})
        if msg_type == "fetch_cert":
            # served as stored: every record was verified when it entered the chain
            status = self.relay.fetch_certificate(_str(body, "user_id"))
            return encode_message("ack", status_to_obj(status))
        if msg_type == "submit":
            envelope = _decoded(
                Envelope, body.get("envelope"),
                recipient_cert_fingerprint=_unb64(body.get("recipient_cert_fingerprint")))
            return encode_message("ack", {"result": self.relay.submit_envelope(envelope)})
        if msg_type == "fetch":
            return _fetch_reply(self.relay.fetch_envelopes(_str(body, "recipient_id"),
                                                           _int(body, "after_seq")))
        if msg_type == "group_create":
            members = [_text(m, "each entry of 'member_ids'")
                       for m in _list(body, "member_ids")]
            self.relay.create_group(_str(body, "group_id"), _str(body, "admin_id"), members)
            return encode_message("ack", {"result": "created"})
        if msg_type == "group_send":
            acks = self.relay.broadcast_group(_str(body, "group_id"),
                                              _decoded(Envelope, body.get("envelope")))
            return encode_message("ack", {"acks": [
                {"member_id": member, "result": result} for member, result in acks
            ]})
        raise WireProtocolError(f"unhandled request type {msg_type!r}")

    def _handle_enroll(self, body: Dict[str, Any]) -> Dict[str, Any]:
        phase = body.get("phase")
        if phase == "challenge":
            challenge = self.mno.new_challenge(_str(body, "user_id"))
            return {"challenge": _b64(challenge)}
        if phase == "submit":
            record = self.mno.issue_certificate(EnrollmentRequest(
                user_id=_str(body, "user_id"),
                subject_public_key=_unb64(body.get("subject_public_key")),
                proof_of_possession=_unb64(body.get("proof_of_possession")),
            ))
            return {"record": _b64(record.canonical_bytes())}
        if phase == "revoke":
            self.mno.revoke(_str(body, "user_id"))
            return {"result": "revoked"}
        raise WireProtocolError(f"unknown enroll phase {phase!r}")


# ---------------------------------------------------------------------------
# client
# ---------------------------------------------------------------------------

class WireRemoteError(ChainChatError):
    """Server-side failure relayed to the caller, category preserved."""

    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


class RelayClient:
    """Connects to a wire server; presents the relay/MNO surfaces locally.

    Satisfies the client's ``directory`` and ``transport`` duck types plus
    the MNO enrollment surface, so a ``Client`` works identically against a
    remote stack and an in-process one.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._lock = threading.Lock()

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "RelayClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(self, msg_type: str, body: Dict[str, Any]) -> Dict[str, Any]:
        try:
            with self._lock:
                self._file.write(encode_message(msg_type, body))
                self._file.flush()
                line = self._file.readline(_MAX_LINE)
        except OSError as e:  # reset, timeout: the reply is lost either way
            raise WireProtocolError(f"connection to the server failed: {e}") from e
        if not line:
            raise WireProtocolError("connection closed by server")
        if _overlong(line):
            self.close()
            raise WireProtocolError(f"reply exceeds {_MAX_LINE} bytes")
        reply_type, reply = decode_message(line)
        if reply_type == "error":
            raise WireRemoteError(_str(reply, "category"), _str(reply, "message"))
        if reply_type != "ack":
            raise WireProtocolError(f"reply of request type {reply_type!r}")
        return reply

    # -- MNO surface ------------------------------------------------------------

    def new_challenge(self, user_id: str) -> bytes:
        return _unb64(self.request("enroll", {"phase": "challenge",
                                              "user_id": user_id}).get("challenge"))

    def issue_certificate(self, request: EnrollmentRequest) -> CertificateRecord:
        reply = self.request("enroll", {
            "phase": "submit",
            "user_id": request.user_id,
            "subject_public_key": _b64(request.subject_public_key),
            "proof_of_possession": _b64(request.proof_of_possession),
        })
        return _decoded(CertificateRecord, reply.get("record"))

    def revoke_user(self, user_id: str) -> None:
        self.request("enroll", {"phase": "revoke", "user_id": user_id})

    # -- relay surface -------------------------------------------------------------

    def register_user(self, user_id: str, cert_fingerprint: bytes) -> str:
        return _str(self.request("register", {
            "user_id": user_id,
            "cert_fingerprint": _b64(cert_fingerprint),
        }), "result")

    def fetch_certificate(self, user_id: str) -> CertStatus:
        return status_from_obj(self.request("fetch_cert", {"user_id": user_id}))

    def submit_envelope(self, envelope: Envelope) -> str:
        return _str(self.request("submit", {
            "envelope": _b64(envelope.canonical_bytes()),
            "recipient_cert_fingerprint": _b64(envelope.recipient_cert_fingerprint),
        }), "result")

    def fetch_envelopes(self, recipient_id: str,
                        after_seq: int) -> List[Tuple[int, Envelope]]:
        reply = self.request("fetch", {"recipient_id": recipient_id,
                                       "after_seq": after_seq})
        entries = [_obj(e, "mailbox entry") for e in _list(reply, "envelopes")]
        return [(_int(e, "seq"), _decoded(Envelope, e.get("envelope"))) for e in entries]

    def create_group(self, group_id: str, admin_id: str,
                     member_ids: List[str]) -> None:
        self.request("group_create", {"group_id": group_id, "admin_id": admin_id,
                                      "member_ids": member_ids})

    def broadcast_group(self, group_id: str, envelope: Envelope) -> List[Tuple[str, str]]:
        reply = self.request("group_send", {"group_id": group_id,
                                            "envelope": _b64(envelope.canonical_bytes())})
        acks = [_obj(a, "fan-out ack") for a in _list(reply, "acks")]
        return [(_str(a, "member_id"), _str(a, "result")) for a in acks]

    # -- health -----------------------------------------------------------------------

    def health(self) -> bool:
        """One read-only round trip: the server routes it and the chain
        answers; nothing on the server changes."""
        try:
            return self.fetch_certificate("__health_probe__").state is not None
        except ChainChatError:
            return False
