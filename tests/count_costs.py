"""Exact library-call counts of a fixed in-process scenario, per operation.

Each count is taken where chainchat calls its libraries:

  x25519_loads       X25519PrivateKey.from_private_bytes, a scalar multiplication
  x25519_agreements  exchange on a key that call returned
  ed25519_signs      sign on a writer credential's key (a counting stand-in)
  ed25519_verifies   verify on a key from Ed25519PublicKey.from_public_bytes
  ratchet_forward    crypto.ratchet_forward, the name the client calls
  hkdf               HKDF contexts built by crypto
  hmac               HMAC contexts built by crypto
  cipher_contexts    AES-CBC contexts built by crypto
  fsync              os.fsync

The scenario runs in one process, with no threads and no wire, so the counts
depend on neither timing nor the host, and two runs give identical files.

A second pass runs the one-to-one and group steps through a ``WireServer``
on port 0 and a ``RelayClient``, and counts per operation:

  round_trips        RelayClient.request calls
  request_bytes      bytes of the frames the client encodes
  reply_bytes        bytes of the frames the client decodes
  status_objects     CertStatus instances built
  fetch_latest       calls of fetch_latest, the name the relay looks up
  envelope_encodes   relay.header_bytes calls, the one envelope header
                     encoder (also under the name the client imports)

Both byte counts are taken on the client's (main) thread, so the server's
own encodes on a connection's thread are not counted twice; the last three
are counted on every thread, the server's connection threads included.

Each pass then runs once more, every operation now warmed up by the first
run (a process's first ``install`` also pays one-time set-up), and adds two
counts of Python-level work per operation, taken with a profile hook:

  py_calls           calls into functions defined in the chainchat package
  c_calls            calls into C (builtins, ``struct``, the library's Rust
                     objects) made from those functions; the profiler sees
                     builtin functions and methods, not a class called, so
                     building ``HMAC(...)`` counts as neither

Counting only calls into or out of chainchat's own frames keeps both counts
apart from the Python wrappers inside ``cryptography``. In the wire pass a
server's connection thread counts too (``threading.setprofile``), from the
moment a request's length prefix has been read until its reply goes to
``sendall``: that span falls inside the client's round trip, so the count
does not depend on which thread runs first. CPython can change what one
statement calls, so the file records the Python version, and the call
counts are compared only under that version. A call count is not a cost:
one HKDF outweighs many ``len`` calls, which the library counts weigh.

``tests/test_costs.py`` compares a run with ``BENCH_counts.json``. A change
that moves a count rewrites the file with this script, run from the
repository root:

    PYTHONPATH=src python3 tests/count_costs.py
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path
from types import CodeType
from typing import Callable, ContextManager, Dict, Iterator, TypeVar

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from chainchat import chain, crypto, relay, wire
from chainchat import client as client_mod
from chainchat.chain import KIND_CERTIFICATE, CertStatus, ChainNode, WriterCredential
from chainchat.client import Client
from chainchat.crypto import SealedPayload
from chainchat.mno import MnoCertificateAuthority
from chainchat.relay import Relay

COUNTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_counts.json"
COUNTERS = ("x25519_loads", "x25519_agreements", "ed25519_signs", "ed25519_verifies",
            "ratchet_forward", "hkdf", "hmac", "cipher_contexts", "fsync")
WIRE_COUNTERS = ("round_trips", "request_bytes", "reply_bytes", "status_objects",
                 "fetch_latest", "envelope_encodes")
CALL_COUNTERS = ("py_calls", "c_calls")
PYTHON = f"{platform.python_implementation()} {sys.version_info[0]}.{sys.version_info[1]}"
PACKAGE_DIR = os.path.dirname(os.path.abspath(crypto.__file__)) + os.sep
GROUP_SIZE = 8          # the admin and 7 members
FORGED = 200            # forged envelopes in front of one real one
FORGED_COUNTER = 999
OPEN_HEIGHTS = (100, 1_000)

T = TypeVar("T")
Counts = Dict[str, Dict[str, int]]
Measure = Callable[[str, Callable[[], T]], T]


def measurer(counters: tuple, counts: Dict[str, int], out: Counts,
             around: Callable[[], ContextManager] = nullcontext) -> Measure:
    """A ``measure(op, step)`` that runs ``step`` inside ``around()`` and
    records in ``out[op]`` what each of ``counters`` in ``counts`` gained."""
    def measure(op: str, step: Callable[[], T]) -> T:
        before = dict(counts)
        with around():
            result = step()
        out[op] = {counter: counts[counter] - before[counter] for counter in counters}
        return result
    return measure


class _CountedKey:
    """A library key object whose ``method`` calls bump ``counts[counter]``."""

    def __init__(self, key, method: str, counter: str, counts: Dict[str, int]):
        self._key, self._method, self._counter, self._counts = key, method, counter, counts

    def __getattr__(self, name: str):
        attr = getattr(self._key, name)
        if name != self._method:
            return attr

        def counted(*args):
            self._counts[self._counter] += 1
            return attr(*args)
        return counted


def counting_credential(credential: WriterCredential,
                        counts: Dict[str, int]) -> WriterCredential:
    """``credential``'s writer, with a stand-in key that counts each library
    sign in ``counts["ed25519_signs"]``."""
    return WriterCredential(credential.writer_id, _CountedKey(
        credential.signing_key, "sign", "ed25519_signs", counts))


@contextmanager
def counting(counts: Dict[str, int]) -> Iterator[None]:
    """Count the library calls of ``COUNTERS`` into ``counts``, all but the
    Ed25519 signs, which ``counting_credential`` counts; undone on exit."""
    def counted(counter: str, fn: Callable) -> Callable:
        def call(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return call

    load_x25519 = vars(X25519PrivateKey)["from_private_bytes"]
    load_ed25519 = vars(Ed25519PublicKey)["from_public_bytes"]
    saved = [(X25519PrivateKey, "from_private_bytes", load_x25519),
             (Ed25519PublicKey, "from_public_bytes", load_ed25519),
             (crypto, "ratchet_forward", crypto.ratchet_forward),
             (crypto, "HKDF", crypto.HKDF), (crypto, "HMAC", crypto.HMAC),
             (crypto, "Cipher", crypto.Cipher), (os, "fsync", os.fsync)]
    loaded = counted("x25519_loads", load_x25519.__func__)
    X25519PrivateKey.from_private_bytes = classmethod(lambda cls, data: _CountedKey(
        loaded(cls, data), "exchange", "x25519_agreements", counts))
    Ed25519PublicKey.from_public_bytes = classmethod(lambda cls, data: _CountedKey(
        load_ed25519.__func__(cls, data), "verify", "ed25519_verifies", counts))
    crypto.ratchet_forward = counted("ratchet_forward", crypto.ratchet_forward)
    crypto.HKDF = counted("hkdf", crypto.HKDF)
    crypto.HMAC = counted("hmac", crypto.HMAC)
    crypto.Cipher = counted("cipher_contexts", crypto.Cipher)
    os.fsync = counted("fsync", os.fsync)
    try:
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def _chain_file(path: str, height: int,
                credential: Callable[[WriterCredential], WriterCredential]) -> WriterCredential:
    """A chain file of ``height`` one-certificate blocks; returns its writer."""
    writer = credential(WriterCredential.generate("mno-1"))
    state = chain.genesis([(writer.writer_id, writer.verification_key)])
    now = int(time.time())
    for i in range(height):
        record = writer.make_record(f"user{i:04d}", bytes(range(1, 33)), now, now + 3600,
                                    KIND_CERTIFICATE)
        state = chain.append_block(state, writer, [record])
    chain.save_chain(state, path)
    return writer


def _scenario(measure: Measure,
              credential: Callable[[WriterCredential], WriterCredential]) -> None:
    """The in-process steps; ``credential`` gives each writer its signing key."""
    with tempfile.TemporaryDirectory() as tmp:
        writer = credential(WriterCredential.generate("mno-1"))
        node = ChainNode.create([(writer.writer_id, writer.verification_key)],
                                path=os.path.join(tmp, "chain.dat"))
        mno = MnoCertificateAuthority(writer, node)
        relay = Relay(node)

        # one-to-one: install, open a session, send, submit, pull
        alice = measure("install", lambda: Client.install("alice", mno, relay))
        bob = Client.install("bob", mno, relay)
        measure("start_session", lambda: alice.start_session("bob"))
        envelope = measure("send_text", lambda: alice.send_text("bob", "hello"))
        measure("submit_envelope", lambda: relay.submit_envelope(envelope))
        measure("pull_messages", bob.pull_messages)  # bob's first: opens his session

        # a group of GROUP_SIZE: create, key pulls, one send, one pull per member
        members = [bob] + [Client.install(f"member{i}", mno, relay)
                           for i in range(GROUP_SIZE - 2)]
        creation = measure("create_group",
                           lambda: alice.create_group("club", [m.user_id for m in members]))
        relay.create_group("club", alice.user_id, creation.member_ids)
        for key_envelope in creation.envelopes:
            relay.submit_envelope(key_envelope)
        measure("group_key_pulls", lambda: [m.pull_messages() for m in members])
        group_envelope = measure("send_group_message",
                                 lambda: alice.send_group_message("club", "hello all"))
        relay.broadcast_group("club", group_envelope)
        measure("group_pulls", lambda: [m.pull_messages() for m in members])

        measure("revoke", lambda: mno.revoke("bob"))

        # forged envelopes far ahead of the receive chain, then a real one
        target = members[1]
        real = alice.send_text(target.user_id, "after the forgeries")
        forged = replace(real, counter=FORGED_COUNTER,
                         payload=SealedPayload(bytes(16), bytes(32)))
        for _ in range(FORGED):
            relay.submit_envelope(forged)
        relay.submit_envelope(real)
        deliveries = measure("pull_forged", target.pull_messages)
        assert [d.error for d in deliveries] == ["auth-failed"] * FORGED + [None]

        # start-up: open a chain file holding the writer's seed, and holding none
        for height in OPEN_HEIGHTS:
            path = os.path.join(tmp, f"chain-{height}.dat")
            writer = _chain_file(path, height, credential)
            held = credential(WriterCredential.from_seed(writer.writer_id, writer.seed))
            measure(f"open_{height}_held", lambda: ChainNode.open(path, [held]))
            measure(f"open_{height}", lambda: ChainNode.open(path))


def run_scenario() -> Counts:
    """Operation name -> the count of each of ``COUNTERS`` and
    ``CALL_COUNTERS`` it made."""
    counts = dict.fromkeys(COUNTERS, 0)
    library: Counts = {}
    with counting(counts):
        _scenario(measurer(COUNTERS, counts, library),
                  lambda credential: counting_credential(credential, counts))
    return with_calls(library, lambda measure: _scenario(measure, lambda c: c))


@contextmanager
def counting_wire(counts: Dict[str, int]) -> Iterator[None]:
    """Count ``WIRE_COUNTERS`` into ``counts``; undone on exit."""
    main = threading.main_thread()
    request, encode, decode = (wire.RelayClient.request, wire.encode_message,
                               wire.decode_message)
    counted_calls = [(CertStatus, "__init__", "status_objects"),
                     (relay, "fetch_latest", "fetch_latest"),
                     (relay, "header_bytes", "envelope_encodes"),
                     (client_mod, "header_bytes", "envelope_encodes")]
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in counted_calls]

    def counted(counter: str, fn: Callable) -> Callable:
        def call(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return call

    def counted_request(self, *args):
        counts["round_trips"] += 1
        return request(self, *args)

    def counted_encode(*args):
        frame = encode(*args)
        if threading.current_thread() is main:
            counts["request_bytes"] += len(frame)
        return frame

    def counted_decode(frame):
        if threading.current_thread() is main:
            counts["reply_bytes"] += len(frame)
        return decode(frame)

    wire.RelayClient.request = counted_request
    wire.encode_message, wire.decode_message = counted_encode, counted_decode
    for owner, name, counter in counted_calls:
        setattr(owner, name, counted(counter, vars(owner)[name]))
    try:
        yield
    finally:
        wire.RelayClient.request = request
        wire.encode_message, wire.decode_message = encode, decode
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def _wire_scenario(measure: Measure) -> None:
    """The one-to-one and group steps, with every client talking to the
    stack over one connection."""
    with tempfile.TemporaryDirectory() as tmp:
        credential = WriterCredential.generate("mno-1")
        node = ChainNode.create([(credential.writer_id, credential.verification_key)],
                                path=os.path.join(tmp, "chain.dat"))
        server = wire.WireServer(Relay(node), MnoCertificateAuthority(credential, node))
        with server, wire.RelayClient(server.host, server.port) as rc:
            alice = measure("install", lambda: Client.install("alice", rc, rc))
            bob = Client.install("bob", rc, rc)
            measure("start_session", lambda: alice.start_session("bob"))
            envelope = alice.send_text("bob", "hello")
            measure("submit_envelope", lambda: rc.submit_envelope(envelope))
            measure("pull_messages", bob.pull_messages)

            members = [bob] + [Client.install(f"member{i}", rc, rc)
                               for i in range(GROUP_SIZE - 2)]
            creation = alice.create_group("club", [m.user_id for m in members])

            def create_group() -> None:
                rc.create_group("club", alice.user_id, creation.member_ids)
                for key_envelope in creation.envelopes:
                    rc.submit_envelope(key_envelope)

            measure("create_group", create_group)
            measure("group_key_pulls", lambda: [m.pull_messages() for m in members])
            group_envelope = alice.send_group_message("club", "hello all")
            measure("broadcast_group", lambda: rc.broadcast_group("club", group_envelope))
            measure("group_pulls", lambda: [m.pull_messages() for m in members])
            measure("revoke", lambda: rc.revoke_user("bob"))


def run_wire_scenario() -> Counts:
    """Operation name -> its ``WIRE_COUNTERS`` and ``CALL_COUNTERS``."""
    counts = dict.fromkeys(WIRE_COUNTERS, 0)
    wire_counts: Counts = {}
    with counting_wire(counts):
        _wire_scenario(measurer(WIRE_COUNTERS, counts, wire_counts))
    return with_calls(wire_counts, _wire_scenario)


_READ_FRAME = wire._read_frame.__code__
_SERVE = wire.WireServer._serve.__code__


class CallCounter:
    """Counts ``CALL_COUNTERS`` into ``counts``: on the main thread while
    ``counting()`` is entered, and on each server connection thread started
    while ``serving()`` is, during a request that arrives while ``on``."""

    def __init__(self, counts: Dict[str, int]):
        self.counts, self.on = counts, False
        self._ours: Dict[CodeType, bool] = {}
        self._thread = threading.local()  # .in_request: between a prefix read and sendall

    def _count(self, frame, event: str, arg) -> None:
        if event == "call" or event == "c_call":
            code = frame.f_code  # the callee's for "call", the caller's for "c_call"
            ours = self._ours.get(code)
            if ours is None:
                ours = self._ours[code] = code.co_filename.startswith(PACKAGE_DIR)
            if ours:
                self.counts["py_calls" if event == "call" else "c_calls"] += 1

    def _count_served(self, frame, event: str, arg) -> None:
        code = frame.f_code
        if not getattr(self._thread, "in_request", False):
            # the first read of _read_frame returning is the length prefix
            self._thread.in_request = event == "c_return" and code is _READ_FRAME
            return
        if self.on:
            self._count(frame, event, arg)
        if event == "c_call" and code is _SERVE and arg.__name__ == "sendall":
            self._thread.in_request = False

    @contextmanager
    def counting(self) -> Iterator[None]:
        self.on = True
        sys.setprofile(self._count)
        try:
            yield
        finally:
            sys.setprofile(None)
            self.on = False

    @contextmanager
    def serving(self) -> Iterator[None]:
        threading.setprofile(self._count_served)
        try:
            yield
        finally:
            threading.setprofile(None)


def with_calls(counted: Counts, scenario: Callable[[Measure], None]) -> Counts:
    """``counted``, each operation's counts joined by the ``CALL_COUNTERS``
    of a second run of ``scenario``, made after the first run warmed up
    every operation."""
    counts = dict.fromkeys(CALL_COUNTERS, 0)
    calls: Counts = {}
    counter = CallCounter(counts)
    with counter.serving():
        scenario(measurer(CALL_COUNTERS, counts, calls, counter.counting))
    return {op: {**counted[op], **calls[op]} for op in counted}


def render(operations: Counts, wire_ops: Counts) -> str:
    """The text of ``BENCH_counts.json``."""
    return json.dumps({
        "regenerate": "PYTHONPATH=src python3 tests/count_costs.py",
        "python": PYTHON,
        "operations": operations,
        "wire": wire_ops,
    }, indent=2) + "\n"


if __name__ == "__main__":
    COUNTS_PATH.write_text(render(run_scenario(), run_wire_scenario()), encoding="utf-8")
    print(f"wrote {COUNTS_PATH}")
