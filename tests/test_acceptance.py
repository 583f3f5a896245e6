"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Tolerances and counts are pinned here, not deferred.
"""

import base64
import os
import random
import socket
import struct
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import permutations
from pathlib import Path

import pytest

import chainchat
import oracles
import vectors as v
from chainchat import crypto
from chainchat.bench import bench_encrypt, fit_line, render_csv
from chainchat.chain import (
    EXPIRED,
    KIND_CERTIFICATE,
    KIND_REVOCATION,
    NOT_FOUND,
    REVOKED,
    VALID,
    ChainNode,
    WriterCredential,
    append_block,
    chain_from_bytes,
    fetch_latest,
    genesis,
    revoke,
    save_chain,
    verify_chain,
)
from chainchat.client import BACKUP_MAGIC, Client
from chainchat.crypto import (
    IdentityKeyPair,
    MasterSecret,
    SealedPayload,
    derive_backup_key,
    derive_master_secret,
    generate_identity_keypair,
    hkdf_sha256,
    init_chains,
    ratchet_forward,
    seal,
    unseal,
)
from chainchat.errors import AuthenticationError, ReplayError, UnsealError
from chainchat.mno import MnoCertificateAuthority
from chainchat.relay import Envelope, Relay


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {number:2d} {name}: FAIL")
        raise
    print(f"\n[acceptance] criterion {number:2d} {name}: PASS")


def build_pair(mno, relay, a="alice", b="bob"):
    alice = Client.install(a, mno, relay)
    bob = Client.install(b, mno, relay)
    alice.start_session(b)
    bob.start_session(a)
    return alice, bob


# -- 1 -------------------------------------------------------------------------

def test_01_ratchet_synchrony():
    with criterion(1, "ratchet synchrony 0-999, both directions, <5s"):
        started = time.perf_counter()
        master = MasterSecret(os.urandom(32))
        a_send, a_recv = init_chains(master, "alice", "bob")
        b_send, b_recv = init_chains(master, "bob", "alice")
        for direction in ((a_send, b_recv), (b_send, a_recv)):
            left, right = direction
            for _ in range(1_000):
                mk_l, left = ratchet_forward(left)
                mk_r, right = ratchet_forward(right)
                assert mk_l == mk_r  # byte-exact, all fields
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


# -- 2 -------------------------------------------------------------------------

def test_02_roundtrip_identity():
    with criterion(2, "seal/unseal roundtrip, 7 lengths x 100 random keys"):
        rng = random.Random(2)
        failures = 0
        for length in (0, 1, 15, 16, 17, 255, 10_000):
            for _ in range(100):
                mk = crypto.MessageKey(cipher_key=os.urandom(32),
                                       mac_key=os.urandom(32),
                                       iv=os.urandom(16), index=0)
                plaintext = rng.randbytes(length)
                ad = rng.randbytes(24)
                if unseal(mk, seal(mk, plaintext, ad), ad) != plaintext:
                    failures += 1
        assert failures == 0


# -- 3 -------------------------------------------------------------------------

def test_03_tamper_suite():
    with criterion(3, "10,000 sampled single-bit flips all rejected"):
        rng = random.Random(3)
        mk = crypto.MessageKey(cipher_key=os.urandom(32), mac_key=os.urandom(32),
                               iv=os.urandom(16), index=0)
        header = os.urandom(64)
        payload = seal(mk, b"the quick brown fox jumps over the lazy dog " * 4,
                       header)
        accepted = 0
        for _ in range(10_000):
            region = rng.choice(("ciphertext", "mac", "header"))
            ct, mac, ad = payload.ciphertext, payload.mac, header
            if region == "ciphertext":
                blob = bytearray(ct)
                blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
                ct = bytes(blob)
            elif region == "mac":
                blob = bytearray(mac)
                blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
                mac = bytes(blob)
            else:
                blob = bytearray(ad)
                blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
                ad = bytes(blob)
            try:
                unseal(mk, SealedPayload(ct, mac), ad)
                accepted += 1
            except UnsealError:
                pass
        assert accepted == 0, f"{accepted} forgeries accepted"


# -- 4 -------------------------------------------------------------------------

def test_04_known_answer_crypto():
    with criterion(4, "known-answer vectors vs independent oracles"):
        # X25519, RFC 7748 6.1: production path and pure-ladder oracle
        pair = generate_identity_keypair(lambda n: v.X25519_ALICE_PRIV[:n])
        assert pair.public_key == v.X25519_ALICE_PUB
        assert oracles.x25519_base(v.X25519_ALICE_PRIV) == v.X25519_ALICE_PUB
        shared = derive_master_secret(IdentityKeyPair(v.X25519_ALICE_PRIV, v.X25519_ALICE_PUB),
                                      v.X25519_BOB_PUB)
        assert shared.bytes_ == v.X25519_SHARED
        assert oracles.x25519(v.X25519_BOB_PRIV, v.X25519_ALICE_PUB) == v.X25519_SHARED

        # HKDF, RFC 5869 appendix A
        for ikm, salt, info, okm in (
            (v.HKDF_A1_IKM, v.HKDF_A1_SALT, v.HKDF_A1_INFO, v.HKDF_A1_OKM),
            (v.HKDF_A2_IKM, v.HKDF_A2_SALT, v.HKDF_A2_INFO, v.HKDF_A2_OKM),
            (v.HKDF_A3_IKM, b"\x00" * 32, b"", v.HKDF_A3_OKM),
        ):
            assert hkdf_sha256(ikm, salt, info, len(okm)) == okm
            assert oracles.hkdf_sha256(ikm, salt, info, len(okm)) == okm

        # PBKDF2, published SHA-256 vector set
        for password, salt, iters, out in v.PBKDF2_VECTORS:
            assert oracles.pbkdf2_sha256(password, salt, iters, 32) == out
        bk = derive_backup_key("password", v.PBKDF2_PADDED_SALT, 1)
        assert bk.key == oracles.pbkdf2_sha256(b"password", v.PBKDF2_PADDED_SALT, 1, 32)

        # AES-256-CBC, NIST SP 800-38A F.2.5
        mk = crypto.MessageKey(cipher_key=v.NIST_CBC_KEY, mac_key=b"\x00" * 32,
                               iv=v.NIST_CBC_IV, index=0)
        assert seal(mk, v.NIST_CBC_PT, b"").ciphertext[:64] == v.NIST_CBC_CT

        # HMAC-SHA256, RFC 4231
        import hashlib
        import hmac as hmac_mod
        assert hmac_mod.new(v.HMAC_TC1_KEY, v.HMAC_TC1_DATA,
                            hashlib.sha256).digest() == v.HMAC_TC1_OUT
        assert hmac_mod.new(v.HMAC_TC2_KEY, v.HMAC_TC2_DATA,
                            hashlib.sha256).digest() == v.HMAC_TC2_OUT


# -- 5 -------------------------------------------------------------------------

def test_05_latest_wins_oracle():
    with criterion(5, "latest-wins over 1,000 events / 50 users + zero window"):
        rng = random.Random(5)
        mno = WriterCredential.generate("mno-1")
        state = genesis([(mno.writer_id, mno.verification_key)], timestamp=0)
        users = [f"u{i:02d}" for i in range(50)]
        flat = []
        now = 1

        def oracle(user, when):
            decision = NOT_FOUND
            for rec in flat:
                if rec.user_id != user:
                    continue
                if rec.kind == KIND_REVOCATION:
                    decision = REVOKED
                elif rec.expires_at <= when:
                    decision = EXPIRED
                else:
                    decision = VALID
            return decision

        for event in range(1_000):
            now += rng.randint(1, 3)
            user = rng.choice(users)
            if rng.random() < 0.3 and oracle(user, now) != NOT_FOUND:
                state = revoke(state, mno, user, timestamp=now)
                flat.append(state.blocks[-1].records[0])
                # zero-window property: revocation visible immediately
                assert fetch_latest(state, user, now=now).state == REVOKED
            else:
                rec = mno.make_record(user, bytes([event % 250 + 1]) * 32, now,
                                      now + rng.choice([2, 100, 10_000]),
                                      KIND_CERTIFICATE)
                state = append_block(state, mno, [rec], timestamp=now)
                flat.append(rec)
            probes = [user] + rng.sample(users, 3)
            if event % 50 == 49:
                probes = users
            for probe in probes:
                assert fetch_latest(state, probe, now=now).state == oracle(probe, now)
        assert verify_chain(state)


# -- 6 -------------------------------------------------------------------------

def test_06_chain_tamper_evidence(tmp_path):
    with criterion(6, "exhaustive single-byte chain-file mutations, <60s"):
        started = time.perf_counter()
        mno = WriterCredential.generate("mno-1")
        state = genesis([(mno.writer_id, mno.verification_key)], timestamp=0)
        for i in range(10):
            rec = mno.make_record(f"user{i}", bytes([i + 1]) * 32, i, i + 500,
                                  KIND_CERTIFICATE)
            state = append_block(state, mno, [rec], timestamp=i)
        path = tmp_path / "chain.dat"
        save_chain(state, str(path))
        original = path.read_bytes()
        undetected = []
        for offset in range(len(original)):
            mutated = bytearray(original)
            mutated[offset] ^= 0x01
            try:
                candidate = chain_from_bytes(bytes(mutated))
            except Exception:
                continue  # unparseable counts as detected
            if verify_chain(candidate):
                undetected.append(offset)
        elapsed = time.perf_counter() - started
        assert not undetected, f"mutations at {undetected[:10]} went undetected"
        assert elapsed < 60.0, f"took {elapsed:.1f}s over {len(original)} bytes"


# -- 7 -------------------------------------------------------------------------

def test_07_zero_knowledge_relay_and_mno(tmp_path):
    with criterion(7, "no secret bytes in relay/MNO/chain state (50 messages)"):
        mno_cred = WriterCredential.generate("mno-1")
        chain_path = tmp_path / "chain.dat"
        node = ChainNode.create([(mno_cred.writer_id, mno_cred.verification_key)],
                                path=str(chain_path))
        mno = MnoCertificateAuthority(mno_cred, node)
        relay = Relay(node)
        alice, bob = build_pair(mno, relay)

        # parallel derivation of every key the conversation will consume
        secrets = [alice.identity.private_key, bob.identity.private_key,
                   derive_master_secret(alice.identity,
                                        bob.identity.public_key).bytes_]
        for owner, peer in (("alice", "bob"), ("bob", "alice")):
            chain_key = {"alice": alice, "bob": bob}[owner].sessions[peer].send_chain
            for _ in range(30):
                secrets.append(chain_key.key)
                mk, chain_key = ratchet_forward(chain_key)
                secrets.extend([mk.cipher_key, mk.mac_key, mk.iv])

        plaintexts = [f"confidential payload {i:02d}" for i in range(50)]
        for i, text in enumerate(plaintexts):
            if i % 2 == 0:
                relay.submit_envelope(alice.send_text("bob", text))
            else:
                relay.submit_envelope(bob.send_text("alice", text))

        corpus = relay.dump_state() + mno.dump_state() + chain_path.read_bytes()
        for secret in secrets:
            assert secret not in corpus
            assert secret.hex().encode() not in corpus
            assert base64.b64encode(secret) not in corpus
        for text in plaintexts:
            assert text.encode() not in corpus


# -- 8 -------------------------------------------------------------------------

def test_08_out_of_order_and_replay():
    with criterion(8, "all 3! delivery orders decrypt; duplicates replay-fail"):
        for perm in permutations(range(3)):
            mno_cred = WriterCredential.generate("mno-1")
            node = ChainNode.create([(mno_cred.writer_id, mno_cred.verification_key)])
            mno = MnoCertificateAuthority(mno_cred, node)
            relay = Relay(node)
            alice, bob = build_pair(mno, relay)
            envelopes = [alice.send_text("bob", f"m{i}") for i in range(3)]
            got = {}
            for idx in perm:
                got[idx] = bob.receive_envelope(envelopes[idx])
            assert got == {0: "m0", 1: "m1", 2: "m2"}, f"order {perm}"
            for idx in perm:
                with pytest.raises(ReplayError):
                    bob.receive_envelope(envelopes[idx])


# -- 9 -------------------------------------------------------------------------

def test_09_backup_fidelity():
    with criterion(9, "backup roundtrip, wrong-secret rejection, bit-exact layout"):
        mno_cred = WriterCredential.generate("mno-1")
        node = ChainNode.create([(mno_cred.writer_id, mno_cred.verification_key)])
        mno = MnoCertificateAuthority(mno_cred, node)
        relay = Relay(node)
        alice, bob = build_pair(mno, relay)
        bob.receive_envelope(alice.send_text("bob", "to be archived"))
        alice.receive_envelope(bob.send_text("alice", "likewise"))

        archive = alice.export_backup("correct horse")
        restored = Client.restore_backup(archive, "correct horse")
        assert restored.to_state_bytes() == alice.to_state_bytes()

        with pytest.raises(AuthenticationError):
            Client.restore_backup(archive, "wrong horse")

        blob = archive.to_bytes()
        assert blob[:5] == BACKUP_MAGIC
        assert blob[5:21] == archive.salt
        assert struct.unpack(">I", blob[21:25])[0] == archive.iterations
        (ct_len,) = struct.unpack(">I", blob[25:29])
        assert blob[29:29 + ct_len] == archive.payload.ciphertext
        mac = blob[29 + ct_len:]
        assert mac == archive.payload.mac and len(mac) == 32


# -- 10 ------------------------------------------------------------------------

def test_10_group_fan_out():
    with criterion(10, "5-member fan-out, 4 identical deliveries, forgery rejected"):
        mno_cred = WriterCredential.generate("mno-1")
        node = ChainNode.create([(mno_cred.writer_id, mno_cred.verification_key)])
        mno = MnoCertificateAuthority(mno_cred, node)
        relay = Relay(node)
        members = [Client.install(f"m{i}", mno, relay) for i in range(5)]
        ids = [m.user_id for m in members]
        admin = members[0]
        creation = admin.create_group("ops", ids)
        relay.create_group("ops", admin.user_id, creation.member_ids)
        for envelope in creation.envelopes:
            relay.submit_envelope(envelope)
        for member in members[1:]:
            member.pull_messages()

        envelope = admin.send_group_message("ops", "all hands")
        acks = relay.broadcast_group("ops", envelope)
        assert len(acks) == 4
        texts = []
        for member in members[1:]:
            deliveries = member.pull_messages()
            texts.extend(d.text for d in deliveries)
        assert texts == ["all hands"] * 4

        outsider = Client.install("intruder", mno, relay)
        forged = Envelope(
            sender_id=ids[1],  # spoofed member identity
            recipient_id="",
            counter=1,
            sender_cert_fingerprint=outsider.cert_fingerprint,
            group_id="ops",
            payload=SealedPayload(os.urandom(32), os.urandom(32)),
            sent_at=0,
        )
        for member in members:
            if member.user_id == ids[1]:
                continue
            with pytest.raises(UnsealError):
                member.receive_envelope(forged)


# -- 11 ------------------------------------------------------------------------

def test_11_benchmark_shape(tmp_path):
    with criterion(11, "bench 0-10,000 step 250: slope >= 0, r^2 in metadata"):
        lengths = list(range(0, 10_001, 250))
        records = bench_encrypt(lengths, repetitions=100)
        points = [(float(r.input_length), r.total_encrypt_us) for r in records]
        slope, r_squared = fit_line(points)
        assert slope >= 0.0, f"negative slope {slope}"
        csv_text = render_csv(records, "encrypt")
        assert f"# fit_slope_us_per_char={slope:.6f}" in csv_text
        assert f"# fit_r_squared={r_squared:.6f}" in csv_text
        (tmp_path / "encrypt.csv").write_text(csv_text)


# -- 12 ------------------------------------------------------------------------

def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _package_env():
    """Environment for ``python -m chainchat`` children started in another directory.

    The directory that holds the imported ``chainchat`` package goes first on
    PYTHONPATH as an absolute path, so a child finds the same package whether it
    is installed or found through a relative ``PYTHONPATH=src``.
    """
    env = dict(os.environ)
    root = str(Path(chainchat.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def _log_tail(path, lines=20):
    if not path.exists():
        return ""
    tail = path.read_text(errors="replace").splitlines()[-lines:]
    return f"\n--- last {len(tail)} lines of {path} ---\n" + "\n".join(tail)


def test_12_end_to_end_walkthrough(tmp_path):
    with criterion(12, "scripted CLI walkthrough exits 0 in <30s"):
        port = _free_port()
        state_dir = tmp_path / "stack-state"
        base = [sys.executable, "-m", "chainchat",
                "--state-dir", str(state_dir), "--port", str(port)]
        env = _package_env()

        # cwd=tmp_path keeps a chainchat.conf in the launch directory out of the run
        def invoke(*args):
            return subprocess.run(base + list(args), capture_output=True,
                                  text=True, timeout=60, cwd=tmp_path, env=env)

        def run(*args, expect=0):
            proc = invoke(*args)
            assert proc.returncode == expect, (
                f"{args} -> {proc.returncode}\n{proc.stdout}\n{proc.stderr}"
                f"{_log_tail(state_dir / 'stack.log')}")
            return proc.stdout

        started = time.perf_counter()
        try:
            run("stack", "up")
            run("enroll", "alice")
            run("enroll", "bob")
            run("enroll", "carol")
            for user in ("alice", "bob", "carol"):
                run("register", user)
            for i in range(3):
                run("send", "alice", "bob", f"to-bob-{i}")
            out = run("recv", "bob")
            assert all(f"from alice: to-bob-{i}" in out for i in range(3))
            for i in range(3):
                run("send", "bob", "alice", f"to-alice-{i}")
            out = run("recv", "alice")
            assert all(f"from bob: to-alice-{i}" in out for i in range(3))
            archive = tmp_path / "alice.bak"
            run("backup", "export", "alice", "--secret", "s", "--out", str(archive))
            run("revoke", "bob")
            run("send", "alice", "bob", "refused", expect=1)
            run("backup", "restore", "alice", "--secret", "s", "--in", str(archive))
            run("send", "alice", "carol", "resumed")
            assert "from alice: resumed" in run("recv", "carol")
            run("send", "carol", "alice", "ack")
            assert "from carol: ack" in run("recv", "alice")
            run("chain", "verify")
        except BaseException:
            # Stop the stack, but keep the failed step as the reported failure.
            try:
                down = invoke("stack", "down")
                print(f"teardown: stack down -> {down.returncode}\n{down.stderr}")
            except subprocess.SubprocessError as exc:
                print(f"teardown: stack down did not finish: {exc}")
            raise
        run("stack", "down")
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"walkthrough took {elapsed:.1f}s"
