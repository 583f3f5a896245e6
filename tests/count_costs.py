"""Exact library-call counts of a fixed in-process scenario, per operation.

Each count is taken where chainchat calls its libraries:

  x25519_loads       X25519PrivateKey.from_private_bytes, a scalar multiplication
  x25519_agreements  exchange on a key that call returned
  ed25519_signs      sign on a writer credential's key (a counting stand-in)
  ed25519_verifies   verify on a key from Ed25519PublicKey.from_public_bytes
  ratchet_forward    crypto.ratchet_forward, the name the client calls
  hkdf               HKDF contexts built by crypto
  hmac               hmac.new
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
  envelope_encodes   Envelope.canonical_bytes calls

Both byte counts are taken on the client's (main) thread, so the server's
own encodes on a connection's thread are not counted twice; the last three
are counted on every thread, the server's connection threads included.
``tests/test_costs.py`` compares a run with ``BENCH_counts.json``. A change
that moves a count rewrites the file with this script, run from the
repository root:

    PYTHONPATH=src python3 tests/count_costs.py
"""

from __future__ import annotations

import hmac
import json
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Iterator, TypeVar

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from chainchat import chain, crypto, relay, wire
from chainchat.chain import KIND_CERTIFICATE, CertStatus, ChainNode, WriterCredential
from chainchat.client import Client
from chainchat.crypto import SealedPayload
from chainchat.mno import MnoCertificateAuthority
from chainchat.relay import Envelope, Relay

COUNTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_counts.json"
COUNTERS = ("x25519_loads", "x25519_agreements", "ed25519_signs", "ed25519_verifies",
            "ratchet_forward", "hkdf", "hmac", "cipher_contexts", "fsync")
WIRE_COUNTERS = ("round_trips", "request_bytes", "reply_bytes", "status_objects",
                 "fetch_latest", "envelope_encodes")
GROUP_SIZE = 8          # the admin and 7 members
FORGED = 200            # forged envelopes in front of one real one
FORGED_COUNTER = 999
OPEN_HEIGHTS = (100, 1_000)

T = TypeVar("T")


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
             (crypto, "HKDF", crypto.HKDF), (crypto, "Cipher", crypto.Cipher),
             (hmac, "new", hmac.new), (os, "fsync", os.fsync)]
    loaded = counted("x25519_loads", load_x25519.__func__)
    X25519PrivateKey.from_private_bytes = classmethod(lambda cls, data: _CountedKey(
        loaded(cls, data), "exchange", "x25519_agreements", counts))
    Ed25519PublicKey.from_public_bytes = classmethod(lambda cls, data: _CountedKey(
        load_ed25519.__func__(cls, data), "verify", "ed25519_verifies", counts))
    crypto.ratchet_forward = counted("ratchet_forward", crypto.ratchet_forward)
    crypto.HKDF = counted("hkdf", crypto.HKDF)
    crypto.Cipher = counted("cipher_contexts", crypto.Cipher)
    hmac.new = counted("hmac", hmac.new)
    os.fsync = counted("fsync", os.fsync)
    try:
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def _chain_file(path: str, height: int, counts: Dict[str, int]) -> WriterCredential:
    """A chain file of ``height`` one-certificate blocks; returns its writer."""
    writer = counting_credential(WriterCredential.generate("mno-1"), counts)
    state = chain.genesis([(writer.writer_id, writer.verification_key)])
    now = int(time.time())
    for i in range(height):
        record = writer.make_record(f"user{i:04d}", bytes(range(1, 33)), now, now + 3600,
                                    KIND_CERTIFICATE)
        state = chain.append_block(state, writer, [record])
    chain.save_chain(state, path)
    return writer


def run_scenario() -> Dict[str, Dict[str, int]]:
    """Operation name -> the count of each of ``COUNTERS`` it made."""
    counts = dict.fromkeys(COUNTERS, 0)
    out: Dict[str, Dict[str, int]] = {}

    def measure(op: str, step: Callable[[], T]) -> T:
        before = dict(counts)
        result = step()
        out[op] = {counter: counts[counter] - before[counter] for counter in COUNTERS}
        return result

    with tempfile.TemporaryDirectory() as tmp, counting(counts):
        credential = counting_credential(WriterCredential.generate("mno-1"), counts)
        node = ChainNode.create([(credential.writer_id, credential.verification_key)],
                                path=os.path.join(tmp, "chain.dat"))
        mno = MnoCertificateAuthority(credential, node)
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
            writer = _chain_file(path, height, counts)
            held = counting_credential(
                WriterCredential.from_seed(writer.writer_id, writer.seed), counts)
            measure(f"open_{height}_held", lambda: ChainNode.open(path, [held]))
            measure(f"open_{height}", lambda: ChainNode.open(path))
    return out


@contextmanager
def counting_wire(counts: Dict[str, int]) -> Iterator[None]:
    """Count ``WIRE_COUNTERS`` into ``counts``; undone on exit."""
    main = threading.main_thread()
    request, encode, decode = (wire.RelayClient.request, wire.encode_message,
                               wire.decode_message)
    counted_calls = [(CertStatus, "__init__", "status_objects"),
                     (relay, "fetch_latest", "fetch_latest"),
                     (Envelope, "canonical_bytes", "envelope_encodes")]
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


def run_wire_scenario() -> Dict[str, Dict[str, int]]:
    """Operation name -> its ``WIRE_COUNTERS``, with every client talking to
    the stack over one connection."""
    counts = dict.fromkeys(WIRE_COUNTERS, 0)
    out: Dict[str, Dict[str, int]] = {}

    def measure(op: str, step: Callable[[], T]) -> T:
        before = dict(counts)
        result = step()
        out[op] = {counter: counts[counter] - before[counter] for counter in WIRE_COUNTERS}
        return result

    with tempfile.TemporaryDirectory() as tmp:
        credential = WriterCredential.generate("mno-1")
        node = ChainNode.create([(credential.writer_id, credential.verification_key)],
                                path=os.path.join(tmp, "chain.dat"))
        server = wire.WireServer(Relay(node), MnoCertificateAuthority(credential, node))
        with server, wire.RelayClient(server.host, server.port) as rc, counting_wire(counts):
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
    return out


def render(operations: Dict[str, Dict[str, int]], wire_ops: Dict[str, Dict[str, int]]) -> str:
    """The text of ``BENCH_counts.json``."""
    return json.dumps({
        "regenerate": "PYTHONPATH=src python3 tests/count_costs.py",
        "operations": operations,
        "wire": wire_ops,
    }, indent=2) + "\n"


if __name__ == "__main__":
    COUNTS_PATH.write_text(render(run_scenario(), run_wire_scenario()), encoding="utf-8")
    print(f"wrote {COUNTS_PATH}")
