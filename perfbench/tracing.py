"""Spans around the public functions of chainchat, recorded from outside.

Each wrapper replaces a function at the place where its caller looks it up:
``fetch_latest`` in ``chainchat.relay``, which bound it by name at import;
``save_chain`` in ``chainchat.chain``; ``load_chain`` and ``verify_chain`` in
``chainchat.stack``; methods on their classes. The generator instruments the
client side (client, crypto, identity_sig.sign, the wire client) and the
server launcher the server side (wire dispatch, relay, chain, mno,
identity_sig.verify). Spans stay in memory until the run ends.

A span is ``[id, name, start, end, parent, op, segment, extra]``. ``op`` is
the operation number in the timed phase, ``SETUP_OP`` during set-up and
``AFTER_OP`` during the checks that follow. ``segment`` numbers the server
launch the span belongs to. The k-th ``wire.request`` on a connection and the
k-th ``wire.dispatch`` in its server are the same request, which is how the
two processes' spans are joined into one tree (both use the monotonic clock).
"""

from __future__ import annotations

import json
import os
import statistics
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

SETUP_OP = -1
AFTER_OP = -2

LAYERS = ("client", "crypto", "identity_sig", "wire", "relay", "chain", "mno")
WIRE_TYPES = ("fetch_cert", "submit", "fetch", "group_send", "enroll", "register")
SETUP_FUNCTIONS = ("client.start_session", "relay.register_user",
                   "chain.load_chain", "chain.verify_chain")

Extra = Callable[[tuple, Any], Any]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = SETUP_OP
        self.segment = 0
        self._local = threading.local()

    def wrap(self, owner: Any, attr: str, name: str, extra: Optional[Extra] = None) -> None:
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        spans, local = self.spans, self._local
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [len(spans), name, 0.0, 0.0, stack[-1][0] if stack else None,
                    tracer.op, tracer.segment, None]
            spans.append(span)
            stack.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if extra is not None:
                span[7] = extra(args, result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f)


def _request_extra(args: tuple, result: Any) -> Dict[str, Any]:
    conn = args[0]
    conn.bench_requests = getattr(conn, "bench_requests", 0) + 1
    return {"type": args[1], "seq": conn.bench_requests}


def instrument_client(tracer: Tracer) -> None:
    from chainchat import client, crypto, identity_sig, wire

    for method in ("send_text", "pull_messages", "start_session", "install",
                   "send_group_message"):
        tracer.wrap(client.Client, method, f"client.{method}")
    for fn in ("ratchet_forward", "seal", "unseal"):
        tracer.wrap(crypto, fn, f"crypto.{fn}")
    tracer.wrap(identity_sig, "sign", "identity_sig.sign")
    tracer.wrap(wire.RelayClient, "request", "wire.request", _request_extra)
    tracer.wrap(wire, "encode_message", "wire.encode", lambda a, r: {"bytes": len(r)})
    tracer.wrap(wire, "decode_message", "wire.decode", lambda a, r: {"bytes": len(a[0])})


def instrument_server(tracer: Tracer) -> None:
    from chainchat import chain, identity_sig, mno, relay, stack, wire

    dispatched = [0]

    def dispatch_extra(args: tuple, result: Any) -> Dict[str, Any]:
        dispatched[0] += 1
        return {"seq": dispatched[0]}

    def save_extra(args: tuple, result: Any) -> Dict[str, Any]:
        state, path = args
        return {"file": os.path.getsize(path),
                "block": 4 + len(state.blocks[-1].canonical_bytes())}

    tracer.wrap(wire.WireServer, "_dispatch", "wire.dispatch", dispatch_extra)
    for method in ("register_user", "fetch_certificate", "submit_envelope",
                   "broadcast_group"):
        tracer.wrap(relay.Relay, method, f"relay.{method}")
    tracer.wrap(relay.Relay, "fetch_envelopes", "relay.fetch_envelopes",
                lambda a, r: {"n": len(r)})
    tracer.wrap(relay, "fetch_latest", "chain.fetch_latest")
    tracer.wrap(chain, "fetch_latest", "chain.fetch_latest")
    tracer.wrap(chain.ChainNode, "append", "chain.append")
    tracer.wrap(chain.ChainNode, "revoke", "chain.revoke")
    tracer.wrap(chain, "save_chain", "chain.save_chain", save_extra)
    tracer.wrap(stack, "load_chain", "chain.load_chain")
    tracer.wrap(stack, "verify_chain", "chain.verify_chain")
    for method in ("issue_certificate", "revoke", "verify_certificate"):
        tracer.wrap(mno.MnoCertificateAuthority, method, f"mno.{method}")
    tracer.wrap(identity_sig, "verify", "identity_sig.verify")


# ---------------------------------------------------------------------------
# joining the two processes' spans and deriving per-layer metrics
# ---------------------------------------------------------------------------

def join(client_spans: List[list], server_spans: Dict[int, List[list]]) -> List[dict]:
    """One span tree: each server's dispatch hangs under the client request
    it answered, and server spans take the operation number of that request."""
    out = [{"id": f"c{s[0]}", "name": s[1], "start": s[2], "end": s[3],
            "parent": None if s[4] is None else f"c{s[4]}", "op": s[5],
            "segment": s[6], "extra": s[7]} for s in client_spans]
    requests = {(s["segment"], s["extra"]["seq"]): s for s in out
                if s["name"] == "wire.request" and s["extra"]}
    for segment, spans in server_spans.items():
        by_id: Dict[str, dict] = {}
        for s in spans:  # parents are recorded before their children
            span = {"id": f"s{segment}.{s[0]}", "name": s[1], "start": s[2], "end": s[3],
                    "parent": None if s[4] is None else f"s{segment}.{s[4]}",
                    "op": SETUP_OP, "segment": segment, "extra": s[7]}
            if span["parent"] is not None:
                span["op"] = by_id[span["parent"]]["op"]
            elif s[1] == "wire.dispatch":
                request = requests.get((segment, s[7]["seq"]))
                if request is not None:
                    span["parent"], span["op"] = request["id"], request["op"]
            by_id[span["id"]] = span
            out.append(span)
    return out


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: List[dict], ops: int, plaintext_bytes: int) -> Dict[str, tuple]:
    """Per-layer metrics as {name: (value, unit)}.

    Mean durations come from the timed phase. The functions in
    ``SETUP_FUNCTIONS`` are timed over set-up when the timed phase does not
    call them (``client.start_session`` in chat, for example). A function
    the workload does not call there reads 0. Per-operation figures count the
    timed phase only.
    """
    child_time: Dict[str, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    timed = [s for s in spans if s["op"] >= 0]
    setup = [s for s in spans if s["op"] == SETUP_OP]

    def durations(name: str, where: List[dict], key=None) -> List[float]:
        return [s["end"] - s["start"] for s in where
                if s["name"] == name and (key is None or key(s))]

    def mean_duration(name: str, scale: float, key=None) -> float:
        found = durations(name, timed, key)
        if not found and name in SETUP_FUNCTIONS:
            found = durations(name, setup, key)
        return _mean(found) * scale

    def per_op(name: str) -> float:
        return sum(1 for s in timed if s["name"] == name) / ops

    us, ms, s_ = 1e6, 1e3, 1.0
    out: Dict[str, tuple] = {}
    for name, scale, unit in (
        ("client.send_text", us, "us"), ("client.pull_messages", us, "us"),
        ("client.start_session", us, "us"), ("client.install", ms, "ms"),
        ("client.send_group_message", us, "us"),
        ("crypto.ratchet_forward", us, "us"), ("crypto.seal", us, "us"),
        ("crypto.unseal", us, "us"),
        ("identity_sig.sign", ms, "ms"), ("identity_sig.verify", ms, "ms"),
        ("relay.submit_envelope", us, "us"), ("relay.fetch_envelopes", us, "us"),
        ("relay.broadcast_group", us, "us"), ("relay.fetch_certificate", us, "us"),
        ("relay.register_user", us, "us"),
        ("chain.fetch_latest", us, "us"), ("chain.append", ms, "ms"),
        ("chain.save_chain", ms, "ms"), ("chain.load_chain", s_, "s"),
        ("chain.verify_chain", s_, "s"),
        ("mno.issue_certificate", ms, "ms"), ("mno.revoke", ms, "ms"),
        ("mno.verify_certificate", us, "us"),
    ):
        out[f"{name}.{unit}"] = (mean_duration(name, scale), unit)
    out["crypto.ratchet_forward.calls_per_op"] = (per_op("crypto.ratchet_forward"), "count")
    out["chain.fetch_latest.calls_per_op"] = (per_op("chain.fetch_latest"), "count")

    out["wire.round_trips_per_op"] = (per_op("wire.request"), "count")
    wire_bytes = sum(s["extra"]["bytes"] for s in timed
                     if s["name"] in ("wire.encode", "wire.decode"))
    out["wire.bytes_per_op"] = (wire_bytes / ops, "B")
    out["wire.payload_efficiency"] = (plaintext_bytes / wire_bytes if wire_bytes else 0.0,
                                      "ratio")
    for msg_type in WIRE_TYPES:
        out[f"wire.rtt.{msg_type}.us"] = (mean_duration(
            "wire.request", us, key=lambda s: s["extra"]["type"] == msg_type), "us")

    fetches = [s["extra"]["n"] for s in timed if s["name"] == "relay.fetch_envelopes"]
    out["relay.envelopes_per_fetch"] = (_mean(fetches), "count")
    saves = [s["extra"] for s in timed if s["name"] == "chain.save_chain"]
    block_bytes = sum(e["block"] for e in saves)
    out["chain.bytes_written_per_append"] = (
        sum(e["file"] for e in saves) / block_bytes if block_bytes else 0.0, "ratio")

    self_ms = dict.fromkeys(LAYERS, 0.0)
    for s in timed:
        own = s["end"] - s["start"] - child_time[s["id"]]
        self_ms[s["name"].split(".")[0]] += own * 1e3
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_op"] = (self_ms[layer] / ops, "ms")
    return out
