"""Tests of the benchmark itself: smoke runs of every workload, and checks
that the outside-the-program checks catch a changed text and a flipped bit.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
from chainchat.chain import ChainNode, chain_from_bytes  # noqa: E402
from chainchat.crypto import SealedPayload  # noqa: E402
from chainchat.relay import Relay  # noqa: E402
from workloads import _client  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) >= {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("var", "__pycache__"))
    proc = run_bench(tmp_path, "chat", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def exchange():
    """alice sends two texts to bob through an in-process relay."""
    chain = inputs.build_chain(random.Random("test"), 8, 2)
    relay = Relay(ChainNode(chain_from_bytes(chain.chain_bytes)))
    alice, bob = (_client(u, relay) for u in chain.users)
    for c in (alice, bob):
        relay.register_user(c.user_id, c.cert_fingerprint)
    alice.start_session(bob.user_id)
    sent = [(alice.send_text(bob.user_id, t), t) for t in ("hello bob", "second text")]
    root = oracle.pair_root(alice.identity.private_key, bob.identity.public_key,
                            alice.user_id, bob.user_id)
    return root, sent


def test_checks_pass_on_real_output(exchange):
    root, sent = exchange
    assert oracle.check_stream("a->b", root, sent, set()) == []


def test_checks_report_a_changed_text(exchange):
    root, sent = exchange
    changed = [sent[0], (sent[1][0], "second texT")]
    assert oracle.check_stream("a->b", root, changed, set()) == [
        "a->b message 1: decrypts to another text"]
    assert oracle.check_texts({"bob": [("alice", "hello bob")]},
                              {"bob": [("alice", "hello bobs")]}) != []


def test_checks_report_a_flipped_ciphertext_bit(exchange):
    root, sent = exchange
    env, text = sent[0]
    ciphertext = bytearray(env.payload.ciphertext)
    ciphertext[5] ^= 0x01
    flipped = replace(env, payload=SealedPayload(bytes(ciphertext), env.payload.mac))
    assert oracle.check_stream("a->b", root, [(flipped, text)], set()) == [
        "a->b message 0: MAC does not verify"]


def test_checks_report_a_reused_key(exchange):
    root, sent = exchange
    used: set = set()
    assert oracle.check_stream("a->b", root, sent[:1], used) == []
    assert oracle.check_stream("a->b again", root, sent[:1], used) == [
        "a->b again message 0: cipher key and IV used before"]


def test_chain_check_reports_a_flipped_byte():
    chain = inputs.build_chain(random.Random("test"), 4, 1)
    blocks, problems = oracle.read_chain(chain.chain_bytes, chain.writer_keys)
    assert (len(blocks), problems) == (5, [])
    data = bytearray(chain.chain_bytes)
    data[-80] ^= 0x01
    _, problems = oracle.read_chain(bytes(data), chain.writer_keys)
    assert problems
