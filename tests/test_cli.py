import argparse
import base64
import dataclasses
import fcntl
import functools
import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from chainchat import chain as chain_mod
from chainchat import cli
from chainchat import crypto as crypto_mod
from chainchat import mno as mno_mod
from chainchat import relay as relay_mod
from chainchat import stack as stack_mod
from chainchat.client import _FRAME_TEXT, Client
from chainchat.config import StackConfig
from chainchat.errors import (ChainChatError, ChainFormatError, StackStartupError,
                             WireProtocolError)
from chainchat.mno import MnoCertificateAuthority
from chainchat.relay import Relay
from chainchat.stack import run_stack
from chainchat.wire import RelayClient


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    """Run each test in its own directory, so relative paths such as the
    default state directory never land in the checkout."""
    monkeypatch.chdir(tmp_path)


@pytest.fixture
def cfg(tmp_path):
    """The ``stack`` fixture's settings; the server listens on ``stack.port``."""
    return StackConfig(state_dir=str(tmp_path / "state"), relay_port=0)


@pytest.fixture
def stack(cfg):
    with run_stack(cfg) as server:
        yield server


@pytest.fixture
def run(cfg, stack):
    """Invoke the CLI in-process against the running stack."""
    prefix = ["--state-dir", cfg.state_dir, "--port", str(stack.port)]

    def _run(*args):
        return cli.main(prefix + list(args))

    return _run


class TestConfig:
    def test_settings_come_only_from_the_command_line(self, tmp_path, monkeypatch):
        """Neither the environment nor a chainchat.conf in the working
        directory sets anything: the three flags do, and the chain file
        always sits in the state directory."""
        monkeypatch.setenv("CHAINCHAT_CHAIN_FILE", "/elsewhere/c.dat")
        (tmp_path / "chainchat.conf").write_text("relay_port=7000\nchain_file=/x/c.dat\n")
        seen = []
        monkeypatch.setattr(cli, "_cmd_stack_down", lambda cfg, args: seen.append(cfg) or 0)
        assert cli.main(["stack", "down"]) == 0
        assert cli.main(["--state-dir", "st", "--port", "9", "--host", "h", "stack", "down"]) == 0
        assert seen == [StackConfig(), StackConfig(relay_host="h", relay_port=9, state_dir="st")]
        assert [cfg.resolved_chain_file() for cfg in seen] == \
            [str(Path("chainchat-state", "chain.dat")), str(Path("st", "chain.dat"))]

    def test_unknown_key_rejected(self, capsys):
        """Protocol parameters are constants of the module that uses them,
        and no settings file is read, so each of these is a usage error."""
        for flag in ("--config", "--max-skipped", "--backup-iterations",
                     "--cert-validity-days"):
            with pytest.raises(SystemExit) as exited:
                cli.main([flag, "1", "stack", "up"])
            assert exited.value.code == 2
            assert capsys.readouterr().err.startswith("usage: chainchat")

    def test_readme_lists_exactly_the_config_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        listed = re.search(r"the keys are the fields of\s+`chainchat\.config\.StackConfig`:"
                           r"([^)]*)\)", readme)
        assert listed is not None
        keys = re.findall(r"`(\w+)`", listed.group(1))
        assert keys == [f.name for f in dataclasses.fields(StackConfig)]

    def test_readme_lists_exactly_the_global_flags(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        listed = re.search(r"Global flags (.*?) select the stack", readme, re.S)
        assert listed is not None
        options = [o for action in cli.build_parser()._actions
                   for o in action.option_strings if o.startswith("--") and o != "--help"]
        assert re.findall(r"`(--[\w-]+)`", listed.group(1)) == options


class TestStackHandle:
    def test_health_probe_all_roles(self, stack):
        with RelayClient(stack.host, stack.port) as rc:
            assert rc.health()

    def test_port_conflict(self, stack, tmp_path):
        cfg = StackConfig(state_dir=str(tmp_path / "other"),
                          relay_port=stack.port)
        with pytest.raises(StackStartupError):
            run_stack(cfg)

    def test_rerun_reloads_chain(self, tmp_path):
        cfg = StackConfig(state_dir=str(tmp_path / "state"), relay_port=0)
        first = run_stack(cfg)
        with RelayStackClient(first) as rc:
            Client.install("alice", rc, rc)
        height = first.mno.chain_node.height
        first.close()
        second = run_stack(cfg)
        try:
            assert second.mno.chain_node.height == height
            from chainchat.chain import verify_chain
            assert verify_chain(chain_mod.load_chain(cfg.resolved_chain_file()))
        finally:
            second.close()

    def test_second_server_on_one_state_dir_is_refused(self, tmp_path, capsys):
        """Two servers on one state directory each append from their own
        snapshot and fork the chain for good. The second is refused before it
        reads the chain, and a refused start-up and ``close`` release the
        lock."""
        cfg = StackConfig(state_dir=str(tmp_path / "state"), relay_port=0)
        first = run_stack(cfg)
        try:
            with pytest.raises(StackStartupError, match="held by another running server"):
                run_stack(cfg)
            assert cli.main(["--state-dir", cfg.state_dir, "--port", "0",
                             "stack", "serve"]) == 1
            assert capsys.readouterr().err.startswith("error[stack-startup]: ")
            assert not cfg.pid_file.exists()
            with RelayStackClient(first) as rc:
                Client.install("alice", rc, rc)
        finally:
            first.close()
        credentials = cfg.stack_file.read_bytes()
        cfg.stack_file.write_bytes(b"{")
        with pytest.raises(StackStartupError, match="unreadable writer credentials"):
            run_stack(cfg)
        cfg.stack_file.write_bytes(credentials)
        with run_stack(cfg) as second, RelayStackClient(second) as rc:
            Client.install("bob", rc, rc)
        with run_stack(cfg) as third:  # the chain holds both, and verifies
            assert third.mno.chain_node.height == 2

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["term", "int"])
    def test_serve_stops_on_a_signal_without_polling(self, tmp_path, signum):
        """stack serve waits in sigwait, not in a sleep loop: in a child whose
        time.sleep raises, the stop signal still closes the server, with exit
        0, no pid file left and the state directory's lock free. The child
        says when it waits, so the signal never lands before the wait."""
        state = tmp_path / "state"
        script = ("import signal, sys, time\n"
                  "def no_sleep(seconds):\n"
                  "    raise AssertionError('stack serve slept')\n"
                  "def announced(signals, sigwait=signal.sigwait):\n"
                  "    print('waiting', flush=True)\n"
                  "    return sigwait(signals)\n"
                  "time.sleep, signal.sigwait = no_sleep, announced\n"
                  "from chainchat import cli\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.Popen(
            [sys.executable, "-c", script, "--state-dir", str(state), "--port", "0",
             "stack", "serve"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert child.stdout.readline().startswith(b"stack up on ")
            assert child.stdout.readline() == b"waiting\n"
            assert (state / "relay.pid").read_text() == str(child.pid)
            child.send_signal(signum)
            _, err = child.communicate(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate()
        assert child.returncode == 0, err.decode(errors="replace")
        assert not (state / "relay.pid").exists()
        os.close(stack_mod.lock_state_dir(str(state)))  # refused while a server holds it

    @pytest.mark.parametrize("lost, refusal", [
        ("chain.dat", "chain file .*chain.dat is missing"),
        ("stack.json", "writer credentials .*stack.json are missing"),
    ])
    def test_rerun_refuses_a_state_that_lost_one_file(self, tmp_path, lost, refusal):
        """A chain file is never silently replaced by a fresh one, and fresh
        seeds are never written beside a chain they did not declare."""
        cfg = StackConfig(state_dir=str(tmp_path / "state"), relay_port=0)
        run_stack(cfg).close()
        state_dir = Path(cfg.state_dir)
        (state_dir / lost).unlink()
        kept = {p.name: p.read_bytes() for p in state_dir.iterdir()}
        with pytest.raises(StackStartupError, match=refusal):
            run_stack(cfg)
        assert {p.name: p.read_bytes() for p in state_dir.iterdir()} == kept

    @pytest.mark.parametrize("name", ["chain.dat", "stack.json"])
    def test_rerun_refuses_a_state_file_it_cannot_read(self, tmp_path, capsys, name):
        """An OSError on either file is a start-up refusal naming the file,
        in process and on the command line, not a traceback."""
        cfg = StackConfig(state_dir=str(tmp_path / "state"), relay_port=0)
        run_stack(cfg).close()
        path = Path(cfg.state_dir) / name
        path.unlink()
        path.mkdir()
        with pytest.raises(StackStartupError, match=re.escape(str(path))):
            run_stack(cfg)
        assert cli.main(["--state-dir", cfg.state_dir, "--port", "0", "stack", "serve"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[stack-startup]: ") and str(path) in err

    @pytest.mark.parametrize("command", ["serve", "up"])
    def test_state_dir_that_is_a_file_is_refused(self, tmp_path, capsys, command):
        """A --state-dir naming a regular file is one error line naming the
        path, before anything is written or started, not a traceback."""
        path = tmp_path / "state"
        path.write_bytes(b"not a directory")
        assert cli.main(["--state-dir", str(path), "--port", "7", "stack", command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[stack-startup]: ") and str(path) in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"not a directory"

    @pytest.mark.parametrize("content", [b"", b"not a pid", b"\xff", b"0", b"-1",
                                         b"4194305"])  # above any Linux pid_max
    def test_unusable_pid_file_is_no_running_stack(self, tmp_path, capsys, monkeypatch,
                                                   content):
        """stack up and stack down take a missing, unreadable or dead pid as
        no running stack; down removes the file, and no pid in it is ever
        signalled (0 and -1 would reach a whole process group)."""
        state = tmp_path / "state"
        state.mkdir()
        pid_file = state / "relay.pid"
        kills, started, kill = [], [], os.kill

        def probe_only(pid, sig):
            kills.append((pid, sig))
            if pid <= 0 or sig != 0:
                raise ProcessLookupError(pid)  # this test sends no signal
            kill(pid, sig)

        class ExitedAtOnce:
            returncode = 1

            def poll(self):
                return self.returncode

        monkeypatch.setattr(os, "kill", probe_only)
        monkeypatch.setattr(cli.subprocess, "Popen",
                            lambda cmd, **kwargs: started.append(cmd) or ExitedAtOnce())
        flags = ["--state-dir", str(state), "--port", "7"]
        pid_file.write_bytes(content)
        assert cli.main(flags + ["stack", "up"]) == 1
        assert capsys.readouterr().err.startswith(
            "error[stack-startup]: stack process exited early")
        assert len(started) == 1
        assert cli.main(flags + ["stack", "down"]) == 0
        assert capsys.readouterr().out == "stack is not running\n"
        assert not pid_file.exists()
        assert all(pid > 0 and sig == 0 for pid, sig in kills)

    def test_down_keeps_the_pid_file_of_a_stack_that_outlives_the_wait(
            self, tmp_path, capsys, monkeypatch):
        """A server still holding the state directory after the wait is one
        error line and exit 1, and its pid file stays, so a later stack up
        does not start a second server on its port."""
        state = tmp_path / "state"
        state.mkdir()
        pid_file = state / "relay.pid"
        pid_file.write_bytes(b"4242")
        signals = []
        monkeypatch.setattr(os, "kill", lambda pid, sig: signals.append((pid, sig)))
        monkeypatch.setattr(cli, "time", SimulatedClock())
        held = stack_mod.lock_state_dir(str(state))  # as the server 4242 would
        try:
            assert cli.main(["--state-dir", str(state), "stack", "down"]) == 1
        finally:
            os.close(held)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[") and captured.err.count("\n") == 1
        assert "4242" in captured.err
        assert pid_file.read_bytes() == b"4242"
        assert signals == [(4242, signal.SIGTERM)]

    def test_stale_pid_file_signals_no_one(self, tmp_path, capsys, monkeypatch):
        """A server runs on a state directory exactly while it holds the
        directory's lock. With the lock free, a pid file naming a live,
        unrelated process is stale: down removes it and signals no one, and
        up does not take it for a running stack."""
        state = tmp_path / "state"
        state.mkdir()
        pid_file = state / "relay.pid"
        bystander = subprocess.Popen(["sleep", "30"])
        try:
            pid_file.write_text(str(bystander.pid))
            assert cli.main(["--state-dir", str(state), "stack", "down"]) == 0
            assert capsys.readouterr().out == "stack is not running\n"
            assert not pid_file.exists()
            pid_file.write_text(str(bystander.pid))
            started = []
            with monkeypatch.context() as m:
                m.setattr(cli.subprocess, "Popen",
                          lambda cmd, **kwargs: started.append(cmd) or bystander)
                m.setattr(bystander, "poll", lambda: 1)  # the started server exits at once
                assert cli.main(["--state-dir", str(state), "--port", "7",
                                 "stack", "up"]) == 1
            assert "stack process exited early" in capsys.readouterr().err
            assert len(started) == 1
            assert bystander.poll() is None  # never signalled
        finally:
            bystander.kill()
            bystander.wait()

    def test_up_sleeps_between_probes(self, tmp_path, capsys, monkeypatch):
        """Something that answers on the port but not as a healthy stack is
        probed every 0.1 s of the 15 s wait, not in a busy loop."""
        probes, terminated = [], []

        class Unhealthy:
            def __init__(self, host, port, timeout):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

            def health(self):
                probes.append(1)
                return False

        class StillStarting:
            pid = 4242

            def poll(self):
                return None

            def terminate(self):
                terminated.append(self.pid)

        monkeypatch.setattr(cli, "RelayClient", Unhealthy)
        monkeypatch.setattr(cli.subprocess, "Popen", lambda cmd, **kwargs: StillStarting())
        monkeypatch.setattr(cli, "time", SimulatedClock())
        assert cli.main(["--state-dir", str(tmp_path / "state"), "--port", "7",
                         "stack", "up"]) == 1
        assert "did not become healthy within 15s" in capsys.readouterr().err
        assert terminated == [4242]
        assert 100 <= len(probes) <= 151

    def test_rerun_cuts_torn_final_frame(self, tmp_path):
        cfg = StackConfig(state_dir=str(tmp_path / "state"), relay_port=0)
        path = Path(cfg.resolved_chain_file())
        first = run_stack(cfg)
        with RelayStackClient(first) as rc:
            Client.install("alice", rc, rc)
            intact, height = path.read_bytes(), first.mno.chain_node.height
            Client.install("bob", rc, rc)
        first.close()
        # an append interrupted halfway through its frame
        path.write_bytes(path.read_bytes()[:len(intact) + 40])
        second = run_stack(cfg)
        try:
            assert second.mno.chain_node.height == height
            assert path.read_bytes() == intact
        finally:
            second.close()

    def test_refuses_bad_record_signature_under_a_good_writer_signature(self, tmp_path):
        """The start-up check is the only check between a record in the file
        and ``fetch_cert``: a record whose MNO signature is broken, in a block
        re-signed by its declared writer, must stop the stack."""
        cfg = StackConfig(state_dir=str(tmp_path / "state"), relay_port=0)
        path = cfg.resolved_chain_file()
        first = run_stack(cfg)
        with RelayStackClient(first) as rc:
            Client.install("alice", rc, rc)
        first.close()
        state = chain_mod.load_chain(path)
        head = state.blocks[-1]
        signature = bytearray(head.records[0].issuer_signature)
        signature[0] ^= 0x01
        bad = dataclasses.replace(head.records[0], issuer_signature=bytes(signature))
        head = dataclasses.replace(head, records=(bad,))
        writer = stack_mod._read_credentials(cfg.stack_file)[head.writer_id]
        head = dataclasses.replace(head, writer_signature=writer.sign(head.signature_payload()))
        chain_mod.save_chain(chain_mod.ChainState(blocks=state.blocks[:-1] + (head,)), path)
        result = chain_mod.verify_chain(chain_mod.load_chain(path))
        assert (result.ok, result.height) == (False, head.height)
        assert result.reason.startswith("bad record signature")
        with pytest.raises(StackStartupError, match="bad record signature"):
            run_stack(cfg)

    def test_a_stored_inbox_cursor_takes_envelopes_sent_after_a_restart(self, cfg):
        """Bob pulls three texts, so his cursor is 3; after a restart and a
        fresh registration, a text alice sends reaches him."""
        with run_stack(cfg) as first, RelayStackClient(first) as rc:
            alice = Client.install("alice", rc, rc)
            bob = Client.install("bob", rc, rc)
            for i in range(3):
                rc.submit_envelope(alice.send_text("bob", f"before restart {i}"))
            assert len(bob.pull_messages()) == 3
        with run_stack(cfg) as second, RelayStackClient(second) as rc:
            for client in (alice, bob):
                client.directory = client.transport = rc
                rc.register_user(client.user_id, client.cert_fingerprint)
            rc.submit_envelope(alice.send_text("bob", "after restart"))
            assert [d.text for d in bob.pull_messages()] == ["after restart"]


class SimulatedClock:
    """Stands in for ``cli.time``: ``sleep`` only moves the clock on, and
    each reading of it takes 1 ms, so a loop that never sleeps ends too."""

    def __init__(self):
        self.now = 0.0

    def time(self):
        self.now += 0.001
        return self.now

    def sleep(self, seconds):
        self.now += seconds


@pytest.fixture
def small_chain(tmp_path):
    """A stack's chain file of genesis plus 4 blocks, written by two
    declared writers, whose seeds sit in stack.json; no listener."""
    cfg = StackConfig(state_dir=str(tmp_path / "state"), relay_port=0)
    credentials = {w: chain_mod.WriterCredential.generate(w)
                   for w in (stack_mod.MNO_WRITER_ID, stack_mod.RELAY_WRITER_ID)}
    Path(cfg.state_dir).mkdir(parents=True)
    cfg.stack_file.write_text(json.dumps({"writers": [
        {"id": w, "seed": base64.b64encode(c.seed).decode()} for w, c in credentials.items()
    ]}), encoding="utf-8")
    node = chain_mod.ChainNode.create(
        [(w, c.verification_key) for w, c in credentials.items()],
        path=cfg.resolved_chain_file())
    mno = credentials[stack_mod.MNO_WRITER_ID]
    writers = list(credentials.values())
    for i in range(4):
        record = mno.make_record(f"user{i}", bytes([i + 1]) * 32, 1_700_000_000,
                                 1_700_003_600, chain_mod.KIND_CERTIFICATE)
        node.append(writers[i % 2], [record], timestamp=1_700_000_000 + i)
    node.close()
    return cfg, credentials


def _single_byte_flips(data, masks=(0x01,)):
    for offset in range(len(data)):
        for mask in masks:
            mutated = bytearray(data)
            mutated[offset] ^= mask
            yield offset, bytes(mutated)


class TestStartupCheck:
    """Start-up links each block to the SHA-256 of the previous frame's
    bytes and verifies every record signature but only the head's writer
    signature; ``chain verify`` stays the full check."""

    def test_refuses_every_single_byte_mutation(self, small_chain):
        cfg, _ = small_chain
        path = Path(cfg.resolved_chain_file())
        original = path.read_bytes()
        _, opened = stack_mod._open_state(cfg)
        opened.close()
        loaded = chain_mod.load_chain(str(path))
        assert (opened.height, opened.head) == \
            (loaded.height, loaded.blocks[-1])
        assert chain_mod.verify_chain(loaded)
        for offset, mutated in _single_byte_flips(original):
            path.write_bytes(mutated)
            try:
                stack_mod._open_state(cfg)
            except ChainChatError:
                continue
            pytest.fail(f"start-up accepted a flip at byte {offset}")

    def test_refused_start_up_leaves_a_torn_file_as_it_was(self, small_chain):
        """The check runs before a torn final frame is cut, so a file that
        start-up refuses keeps every byte."""
        cfg, _ = small_chain
        path = Path(cfg.resolved_chain_file())
        data = path.read_bytes()
        blocks = chain_mod.chain_from_bytes(data).blocks
        head_frame = data[len(data) - 4 - len(blocks[-1].canonical_bytes()):]
        mutated = bytearray(data + head_frame[:40])  # an append cut short
        # a byte of block 2's writer signature, which block 3 links to
        mutated[data.index(blocks[2].writer_signature)] ^= 0x01
        path.write_bytes(bytes(mutated))
        with pytest.raises(StackStartupError, match="height 3: broken hash link"):
            run_stack(cfg)
        assert path.read_bytes() == mutated

    def test_a_frame_that_parses_is_its_block_encoding(self, small_chain):
        """What lets start-up hash frame bytes instead of re-encoding."""
        cfg, _ = small_chain
        original = Path(cfg.resolved_chain_file()).read_bytes()
        parsed = 0
        for offset, mutated in _single_byte_flips(original, masks=(0x01, 0x80, 0xFF)):
            try:
                state = chain_mod.chain_from_bytes(mutated)
            except ChainFormatError:
                continue
            parsed += 1
            assert chain_mod.chain_to_bytes(state) == mutated, f"byte {offset}"
        assert parsed > len(original)

    def test_chain_verify_and_show_leave_out_a_torn_tail(self, small_chain, capsys):
        """The CLI's readers follow start-up's rule for a torn final frame but
        leave the file as it is; a flipped byte before it is still refused."""
        cfg, _ = small_chain
        path = Path(cfg.resolved_chain_file())
        data = path.read_bytes()
        torn = data[:-10]
        path.write_bytes(torn)
        chain = ["--state-dir", cfg.state_dir, "chain"]
        assert cli.main(chain + ["verify"]) == 0
        assert "chain ok: 4 blocks, height 3" in capsys.readouterr().out
        assert cli.main(chain + ["show"]) == 0
        out = capsys.readouterr().out
        assert "block 3 " in out and "block 4 " not in out
        assert path.read_bytes() == torn
        mutated = bytearray(torn)
        mutated[data.index(chain_mod.chain_from_bytes(data).blocks[2].writer_signature)] ^= 1
        path.write_bytes(bytes(mutated))
        assert cli.main(chain + ["verify"]) == 1
        assert "height 2: bad writer signature" in capsys.readouterr().err

    def test_chain_verify_checks_writer_signatures_below_the_head(self, small_chain,
                                                                  capsys):
        cfg, _ = small_chain
        path = cfg.resolved_chain_file()
        seeds = stack_mod._read_credentials(cfg.stack_file)
        blocks = list(chain_mod.load_chain(path).blocks)
        target = 2
        signature = bytearray(blocks[target].writer_signature)
        signature[0] ^= 0x01
        blocks[target] = dataclasses.replace(blocks[target], writer_signature=bytes(signature))
        for i in range(target + 1, len(blocks)):
            relinked = dataclasses.replace(blocks[i], prev_hash=blocks[i - 1].block_hash())
            blocks[i] = dataclasses.replace(relinked, writer_signature=seeds[
                relinked.writer_id].sign(relinked.signature_payload()))
        chain_mod.save_chain(chain_mod.ChainState(blocks=tuple(blocks)), path)
        result = chain_mod.verify_chain(chain_mod.load_chain(path))
        assert (result.ok, result.height, result.reason) == \
            (False, target, "bad writer signature")
        assert cli.main(["--state-dir", cfg.state_dir, "chain", "verify"]) == 1
        assert f"height {target}: bad writer signature" in capsys.readouterr().err
        # start-up defends against corruption; whoever holds the seeds can
        # re-sign the head, so this file starts
        opened = chain_mod.ChainNode.open(path)
        opened.close()
        assert opened.height == len(blocks) - 1


class TestWriterCredentialsFile:
    """A ``stack.json`` the stack cannot use is refused with
    ``StackStartupError`` before any chain file is written."""

    SEED = base64.b64encode(b"\x01" * 32).decode()

    @staticmethod
    def write_stack_file(cfg, data):
        cfg.stack_file.parent.mkdir(parents=True, exist_ok=True)
        cfg.stack_file.write_text(json.dumps(data), encoding="utf-8")

    @pytest.mark.parametrize("data", [
        {"writers": "x"},
        {"writers": [{"id": "mno-1", "seed": 5}]},
        [],
        {"writers": [{"id": "mno-1", "seed": SEED}, {"id": 7, "seed": SEED}]},
        {"writers": [{"id": "mno-1", "seed": SEED}, {"id": "", "seed": SEED}]},
    ], ids=["writers-a-string", "seed-a-number", "top-level-list", "id-a-number",
            "id-empty"])
    def test_malformed_file_is_refused(self, tmp_path, data):
        cfg = StackConfig(state_dir=str(tmp_path / "state"), relay_port=0)
        self.write_stack_file(cfg, data)
        with pytest.raises(StackStartupError, match="unreadable writer credentials"):
            run_stack(cfg)
        assert not Path(cfg.resolved_chain_file()).exists()

    def test_file_without_the_mno_is_refused_before_the_chain_is_made(self, tmp_path):
        cfg = StackConfig(state_dir=str(tmp_path / "state"), relay_port=0)
        relay = chain_mod.WriterCredential.generate(stack_mod.RELAY_WRITER_ID)
        self.write_stack_file(cfg, {"writers": [
            {"id": relay.writer_id, "seed": base64.b64encode(relay.seed).decode()}]})
        with pytest.raises(StackStartupError, match="no 'mno-1' entry"):
            run_stack(cfg)
        assert not Path(cfg.resolved_chain_file()).exists()

    def test_replaced_mno_seed_is_refused(self, small_chain):
        cfg, _ = small_chain
        data = json.loads(cfg.stack_file.read_text(encoding="utf-8"))
        for entry in data["writers"]:
            if entry["id"] == stack_mod.MNO_WRITER_ID:
                entry["seed"] = base64.b64encode(os.urandom(32)).decode()
        self.write_stack_file(cfg, data)
        chain_bytes = Path(cfg.resolved_chain_file()).read_bytes()
        with pytest.raises(StackStartupError, match="writer 'mno-1' does not match "
                                                    "the chain's genesis declaration"):
            run_stack(cfg)
        assert Path(cfg.resolved_chain_file()).read_bytes() == chain_bytes


class TestCrashSafeWrites:
    """Client state and writer seeds are replaced by rename after an fsync;
    a write that fails before the rename leaves the previous file whole and
    no temporary file behind."""

    @staticmethod
    def fail_at(monkeypatch, step):
        def failing(*args):
            raise OSError(f"simulated {step} failure")

        monkeypatch.setattr(os, step, failing)

    @pytest.mark.parametrize("step", ["fsync", "replace"])
    def test_failed_client_save_keeps_previous_state(self, tmp_path, monkeypatch,
                                                     alice, bob, step):
        cfg = StackConfig(state_dir=str(tmp_path / "state"))
        path = cli._state_path(cfg, "alice")
        cli._save_client(cfg, alice)
        before = path.read_bytes()
        alice.start_session("bob")
        alice.send_text("bob", "advances the ratchet")
        with monkeypatch.context() as m:
            self.fail_at(m, step)
            with pytest.raises(OSError, match="simulated"):
                cli._save_client(cfg, alice)
        assert path.read_bytes() == before
        assert Client.from_state_bytes(before).sessions == {}
        assert list(path.parent.iterdir()) == [path]

    @pytest.mark.parametrize("step", ["fsync", "replace"])
    def test_failed_seed_write_leaves_no_file(self, tmp_path, monkeypatch, step):
        cfg = StackConfig(state_dir=str(tmp_path / "state"))
        with monkeypatch.context() as m:
            self.fail_at(m, step)
            with pytest.raises(OSError, match="simulated"):
                stack_mod._open_state(cfg)
        assert list(Path(cfg.state_dir).iterdir()) == []
        seeds, node = stack_mod._open_state(cfg)
        node.close()
        again, node = stack_mod._open_state(cfg)
        node.close()
        assert again.keys() == seeds.keys() == {"mno-1"}

    @staticmethod
    def trace_renames_and_fsyncs(monkeypatch):
        events = []
        fsync, replace = os.fsync, os.replace

        def traced_fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def traced_replace(src, dst):
            events.append(("replace", Path(dst)))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", traced_fsync)
        monkeypatch.setattr(os, "replace", traced_replace)
        return events

    def test_rename_is_made_durable(self, tmp_path, monkeypatch):
        """The directory is fsynced after the rename: until then a power
        loss can undo a rename that already returned (fsync(2))."""
        events = self.trace_renames_and_fsyncs(monkeypatch)
        path = tmp_path / "state.bin"
        chain_mod.write_atomic(path, b"state")
        assert events[-2:] == [("replace", path), ("fsync", tmp_path.stat().st_ino)]
        assert path.read_bytes() == b"state"

    def test_backup_export_replaces_its_archive_durably(self, tmp_path, monkeypatch,
                                                        alice):
        """An export that fails midway, or a power loss, leaves the previous
        archive at ``--out`` whole: the new one is renamed over it and the
        directory fsynced."""
        cfg = StackConfig(state_dir=str(tmp_path / "state"))
        cli._save_client(cfg, alice)
        out = tmp_path / "alice.backup"
        out.write_bytes(b"previous archive")
        events = self.trace_renames_and_fsyncs(monkeypatch)
        assert cli.main(["--state-dir", cfg.state_dir, "backup", "export", "alice",
                         "--secret", "pw", "--out", str(out)]) == 0
        assert events[-2:] == [("replace", out), ("fsync", tmp_path.stat().st_ino)]
        assert Client.restore_backup(out.read_bytes(), "pw").user_id == "alice"


class TestLocalFileErrors:
    @pytest.mark.parametrize("argv", [
        ["chain", "verify"],
        ["chain", "show"],
        ["backup", "restore", "alice", "--secret", "pw", "--in", "{archive}"],
        ["backup", "export", "alice", "--secret", "pw", "--out", "{directory}"],
    ], ids=["chain-verify", "chain-show", "backup-restore", "backup-export"])
    def test_unusable_path_is_one_error_line(self, tmp_path, capsys, alice, argv):
        """A --state-dir naming a regular file, or an --out naming a
        directory, is one error line naming it, not a traceback, and
        nothing is written."""
        directory, archive = tmp_path / "directory", tmp_path / "alice.backup"
        directory.mkdir()
        archive.write_bytes(alice.export_backup("pw").to_bytes())
        state = tmp_path / "state"
        if "--out" in argv:
            cli._save_client(StackConfig(state_dir=str(state)), alice)
            unusable = directory
        else:
            state.write_bytes(b"not a directory")
            unusable = state
        before = sorted(tmp_path.rglob("*"))
        argv = [a.format(archive=archive, directory=directory) for a in argv]
        assert cli.main(["--state-dir", str(state)] + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[") and err.count("\n") == 1 and str(unusable) in err
        assert sorted(tmp_path.rglob("*")) == before


class TestCommandTable:
    def test_every_leaf_command_names_its_handler(self):
        """Each leaf subcommand, parsed with minimal arguments, carries the
        handler ``main`` runs: ``_cmd_`` plus its words."""
        def leaves(parser, words):
            subs = [a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)]
            if not subs:
                yield words, parser
            for action in subs:
                for name, child in action.choices.items():
                    yield from leaves(child, words + [name])

        def minimal_args(leaf):
            argv = []
            for action in leaf._actions:
                if not action.option_strings:
                    argv.append(action.choices[0] if action.choices else "x")
                elif action.required:
                    argv += [action.option_strings[0], "x"]
            return argv

        commands = []
        for words, leaf in leaves(cli.build_parser(), []):
            args = cli.build_parser().parse_args(words + minimal_args(leaf))
            assert callable(args.run), words
            assert args.run.__name__ == "_cmd_" + "_".join(words)
            commands.append(" ".join(words))
        assert sorted(commands) == [
            "backup export", "backup restore", "bench", "chain show", "chain verify",
            "chat", "enroll", "group create", "group send", "recv", "register",
            "revoke", "send", "stack down", "stack serve", "stack up"]


class TestUserLock:
    def test_send_waits_for_the_users_lock(self, run, cfg, stack):
        """A second send for the same user waits until the first one has
        saved, and so sends on the next counter."""
        run("enroll", "alice")
        run("enroll", "bob")
        codes = []
        waiting = threading.Thread(
            target=lambda: codes.append(run("send", "alice", "bob", "second")))
        with open(Path(cfg.state_dir) / "alice.lock", "ab") as held:
            fcntl.flock(held, fcntl.LOCK_EX)
            waiting.start()
            waiting.join(timeout=0.5)
            assert waiting.is_alive(), "send did not wait for the lock"
            with RelayStackClient(stack) as rc:  # the send that holds the lock
                alice = cli._load_client(cfg, "alice")
                alice.directory = rc
                alice.start_session("bob")
                rc.submit_envelope(alice.send_text("bob", "first"))
                cli._save_client(cfg, alice)
        waiting.join(timeout=30)
        assert not waiting.is_alive()
        assert codes == [0]
        queued = stack.relay.fetch_envelopes("bob", 0)
        assert [env.counter for _, env in queued] == [0, 1]

    def test_chat_holds_no_lock_while_it_waits(self, run, monkeypatch, capsys):
        """chat takes each user's lock for one send or recv step, so recv for
        either user returns while chat waits for its next line."""
        run("enroll", "ann")
        run("enroll", "ben")
        lines, waiting, release = iter(["ann: hi ben"]), threading.Event(), threading.Event()

        def read(prompt=""):
            line = next(lines, None)
            if line is not None:
                return line
            waiting.set()
            release.wait(timeout=60)
            raise EOFError

        monkeypatch.setattr("builtins.input", read)
        codes = []
        threads = [threading.Thread(target=lambda: codes.append(run("chat", "ann", "ben")))]
        threads[0].start()
        try:
            assert waiting.wait(timeout=30)
            for user in ("ann", "ben"):
                threads.append(threading.Thread(
                    target=lambda user=user: codes.append(run("recv", user))))
                threads[-1].start()
                threads[-1].join(timeout=5)
                assert not threads[-1].is_alive(), f"recv {user} waited for chat"
        finally:
            release.set()
            for thread in threads:
                thread.join(timeout=30)
        assert codes == [0, 0, 0]
        out = capsys.readouterr().out
        assert "from ann: hi ben" in out and "no new messages" in out

    def test_each_command_saves_its_state_once(self, run, monkeypatch):
        """One write of the acting user's state per command that changes it
        (each write fsyncs the file and its directory), and none for a recv
        that delivers nothing."""
        for user in ("ann", "ben", "cal"):
            run("enroll", user)
        written, write = [], cli.write_atomic
        monkeypatch.setattr(cli, "write_atomic",
                            lambda path, data: written.append(Path(path).name) or
                            write(path, data))

        def writes(*argv):
            written.clear()
            assert run(*argv) == 0
            return written[:]

        assert writes("send", "ann", "ben", "hi") == ["ann.state"]
        assert writes("recv", "ben") == ["ben.state"]
        assert writes("recv", "ben") == []
        assert writes("group", "create", "team", "ann", "ben", "cal") == ["ann.state"]
        assert writes("recv", "cal") == ["cal.state"]
        assert writes("group", "send", "team", "ann", "standup") == ["ann.state"]
        assert writes("recv", "cal") == ["cal.state"]


class RelayStackClient:
    """tiny helper: wire client bound to a stack's server"""

    def __init__(self, server):
        self._rc = RelayClient(server.host, server.port)

    def __enter__(self):
        return self._rc

    def __exit__(self, *exc):
        self._rc.close()


class TestBasicCommands:
    @pytest.mark.parametrize("command", [
        ("enroll", "{}"), ("register", "{}"), ("send", "{}", "bob", "hi"), ("recv", "{}"),
        ("chat", "{}", "bob"), ("group", "create", "g", "{}", "bob"),
        ("group", "send", "g", "{}", "hi"),
        ("backup", "export", "{}", "--secret", "s", "--out", "archive"),
        ("backup", "restore", "{}", "--secret", "s", "--in", "archive"),
    ], ids=lambda c: "-".join(c[:2]) if c[0] in ("group", "backup") else c[0])
    def test_user_id_that_is_not_one_path_component_is_refused(
            self, run, cfg, stack, tmp_path, capsys, command):
        """A user id names the user's lock and state files, so ``enroll
        ../x`` once enrolled ``../x`` on the chain and wrote outside the
        state directory. It is refused before any connection or file."""
        before = sorted(tmp_path.rglob("*"))
        for user_id in ("../x", "a/b", "/tmp/x", "..", ".", "", "x\0"):
            assert run(*[arg.format(user_id) for arg in command]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error[bad-argument]: ") and err.count("\n") == 1
            assert sorted(tmp_path.rglob("*")) == before
            with RelayClient(stack.host, stack.port) as rc:
                assert rc.fetch_certificate(user_id).state == "not_found"

    def test_enroll_register_send_recv(self, run, capsys):
        assert run("enroll", "alice") == 0
        assert run("enroll", "bob") == 0
        assert run("register", "alice") == 0
        assert run("register", "bob") == 0
        assert run("send", "alice", "bob", "hello", "bob") == 0
        capsys.readouterr()
        assert run("recv", "bob") == 0
        out = capsys.readouterr().out
        assert "from alice: hello bob" in out

    def test_recv_shows_a_peers_control_characters_escaped(self, run, capsys):
        """A peer's text, its id and its group id reach the terminal with
        every C0 control, DEL and C1 escaped, so they cannot clear, retitle
        or rewrite the recipient's screen."""
        sender, group = "m\x1b[8m", "t\x1b]0;x\x07"
        for user in (sender, "bob"):
            assert run("enroll", user) == 0
        assert run("send", sender, "bob", "\x1b[2J\rover\nnext\x7f\x9b\x85 é") == 0
        assert run("group", "create", group, sender, "bob") == 0
        capsys.readouterr()
        assert run("recv", "bob") == 0
        assert capsys.readouterr().out == (
            "from m\\x1b[8m: \\x1b[2J\\x0dover\\x0anext\\x7f\\x9b\\x85 é\n"
            "control message from m\\x1b[8m accepted\n")
        assert run("group", "send", group, sender, "\x1bc") == 0
        capsys.readouterr()
        assert run("recv", "bob") == 0
        assert capsys.readouterr().out == \
            "[t\\x1b]0;x\\x07] from m\\x1b[8m: \\x1bc\n"

    def test_chain_show_and_group_acks_show_outside_ids_escaped(self, run, capsys):
        """Any wire client can enroll any id, so the ids that ``chain show``
        reads from the chain and the ids in the relay's ``group send`` acks
        reach the terminal escaped."""
        evil = "ev\x1b[2Jil"
        for user in (evil, "bob"):
            assert run("enroll", user) == 0
        capsys.readouterr()
        assert run("chain", "show") == 0
        out = capsys.readouterr().out
        assert "\x1b" not in out
        assert " user=ev\\x1b[2Jil issuer=mno-1 " in out
        assert run("group", "create", "g", "bob", evil) == 0
        capsys.readouterr()
        assert run("group", "send", "g", "bob", "hi") == 0
        out = capsys.readouterr().out
        assert "\x1b" not in out and "ev\\x1b[2Jil: " in out

    def test_second_enroll_keeps_history_inbox_and_groups(self, run, cfg, stack, capsys):
        """A new key for an enrolled user; what exists nowhere else stays,
        and the sessions derived from the old key go."""
        run("enroll", "alice")
        run("enroll", "bob")
        run("send", "alice", "bob", "kept text")
        run("group", "create", "team", "alice", "bob")
        first = stack.relay.fetch_envelopes("bob", 0)[0][0]
        assert run("recv", "bob") == 0
        before = cli._load_client(cfg, "bob")
        capsys.readouterr()
        assert run("enroll", "bob") == 0
        assert ("kept 1 history entries, the inbox cursor and 1 groups; "
                "dropped 1 sessions") in capsys.readouterr().out
        after = cli._load_client(cfg, "bob")
        assert after.identity.public_key != before.identity.public_key
        assert after.history == before.history
        assert [entry.text for entry in after.history] == ["kept text"]
        assert after.inbox_cursor == before.inbox_cursor == first + 1
        assert after.groups == before.groups
        assert after.sessions == {}
        assert run("recv", "bob") == 0
        assert "no new messages" in capsys.readouterr().out

    def test_enroll_refuses_an_unreadable_state(self, run, cfg, stack, capsys):
        run("enroll", "alice")
        fingerprint = cli._load_client(cfg, "alice").cert_fingerprint
        path = cli._state_path(cfg, "alice")
        path.write_bytes(b"not a state")
        capsys.readouterr()
        assert run("enroll", "alice") == 1
        assert "error[backup-format]" in capsys.readouterr().err
        assert path.read_bytes() == b"not a state"
        with RelayClient(stack.host, stack.port) as rc:
            assert rc.fetch_certificate("alice").record.fingerprint == fingerprint

    def test_enroll_takes_the_mnos_lifetime(self, run, cfg):
        with pytest.raises(SystemExit):
            run("enroll", "alice", "--validity-days", "1")
        assert run("enroll", "alice") == 0
        record = cli._load_client(cfg, "alice").certificate
        assert record.expires_at - record.issued_at == mno_mod.VALIDITY_SECONDS

    def test_recv_empty(self, run, capsys):
        run("enroll", "solo")
        capsys.readouterr()
        assert run("recv", "solo") == 0
        assert "no new messages" in capsys.readouterr().out

    def test_send_without_enrollment_fails(self, run, capsys):
        assert run("send", "nobody", "noone", "x") == 1
        assert "error[" in capsys.readouterr().err

    def test_revoke_then_send_category(self, run, capsys):
        run("enroll", "alice")
        run("enroll", "bob")
        run("send", "alice", "bob", "pre-revocation")
        assert run("revoke", "bob") == 0
        capsys.readouterr()
        assert run("send", "alice", "bob", "post-revocation") == 1
        assert "error[peer-revoked]" in capsys.readouterr().err

    def test_refused_send_saves_nothing(self, run, cfg, capsys):
        """The refused submit spent a counter, and the saved state keeps it
        spent: the relay has seen that envelope."""
        run("enroll", "alice")
        run("enroll", "bob")
        run("send", "alice", "bob", "pre-revocation")
        state_file = cli._state_path(cfg, "alice")
        before = state_file.read_bytes()
        run("revoke", "bob")
        capsys.readouterr()
        assert run("send", "alice", "bob", "post-revocation") == 1
        assert "error[peer-revoked]" in capsys.readouterr().err
        after = Client.from_state_bytes(state_file.read_bytes())
        assert after.sessions["bob"].send_chain.index == 2
        assert Client.from_state_bytes(before).sessions["bob"].send_chain.index == 1

    def test_chain_verify_and_show(self, run, capsys):
        run("enroll", "alice")
        capsys.readouterr()
        assert run("chain", "verify") == 0
        assert "chain ok" in capsys.readouterr().out
        assert run("chain", "show") == 0
        out = capsys.readouterr().out
        assert "genesis" in out
        assert "user=alice" in out

    def test_backup_roundtrip(self, run, cfg, tmp_path, capsys):
        run("enroll", "alice")
        run("enroll", "bob")
        run("send", "alice", "bob", "memory")
        archive = tmp_path / "alice.backup"
        assert run("backup", "export", "alice", "--secret", "pw",
                   "--out", str(archive)) == 0
        state_file = Path(cfg.state_dir) / "clients" / "alice.state"
        before = state_file.read_bytes()
        state_file.unlink()
        assert run("backup", "restore", "alice", "--secret", "pw",
                   "--in", str(archive)) == 0
        assert state_file.read_bytes() == before

    def test_backup_needs_no_stack(self, run, cfg, tmp_path, capsys):
        """backup export and restore read and write the state files only, so
        they run against a port where nothing listens."""
        run("enroll", "alice")
        run("enroll", "bob")
        run("send", "alice", "bob", "memory")
        with socket.create_server(("127.0.0.1", 0)) as probe:
            dead_port = probe.getsockname()[1]
        offline = ["--state-dir", cfg.state_dir, "--port", str(dead_port)]
        capsys.readouterr()
        assert cli.main(offline + ["recv", "bob"]) == 1
        assert "error[stack-startup]" in capsys.readouterr().err
        archive = tmp_path / "alice.backup"
        state_file = cli._state_path(cfg, "alice")
        before = state_file.read_bytes()
        assert cli.main(offline + ["backup", "export", "alice", "--secret", "pw",
                                   "--out", str(archive)]) == 0
        state_file.unlink()
        assert cli.main(offline + ["backup", "restore", "alice", "--secret", "pw",
                                   "--in", str(archive)]) == 0
        assert state_file.read_bytes() == before
        assert capsys.readouterr().err == ""

    def test_recv_gets_past_a_non_utf8_text(self, run, cfg, stack, capsys):
        """A text that authenticates but is not UTF-8 is one error line; recv
        still succeeds, delivers the next text and moves past both."""
        run("enroll", "alice")
        run("enroll", "bob")
        run("send", "alice", "bob", "before")
        with cli._user_state(dataclasses.replace(cfg, relay_port=stack.port),
                             "alice") as (alice, rc):
            envelope = alice._seal_to(alice.sessions["bob"], _FRAME_TEXT + b"\xff")
            cli._save_client(cfg, alice)
            rc.submit_envelope(envelope)
        run("send", "alice", "bob", "after")
        capsys.readouterr()
        assert run("recv", "bob") == 0
        captured = capsys.readouterr()
        assert captured.err == "error[protocol-error] on message from alice\n"
        assert captured.out.splitlines() == ["from alice: before", "from alice: after"]
        assert run("recv", "bob") == 0
        assert capsys.readouterr().out == "no new messages\n"

    def test_recv_gets_past_a_self_addressed_envelope(self, run, cfg, stack, capsys):
        """An envelope from bob to bob in bob's mailbox is one error line;
        recv succeeds, shows the texts around it and moves past all three."""
        run("enroll", "alice")
        run("enroll", "bob")
        run("send", "alice", "bob", "before")
        bob = cli._load_client(cfg, "bob")
        (_, sent), = stack.relay.fetch_envelopes("bob", 0)
        forged = dataclasses.replace(
            sent, sender_id="bob", sender_cert_fingerprint=bob.cert_fingerprint)
        with stack.relay._lock:
            stack.relay._put(stack.relay._mailboxes["bob"], forged,
                             len(forged.canonical_bytes()))
        run("send", "alice", "bob", "after")
        capsys.readouterr()
        assert run("recv", "bob") == 0
        captured = capsys.readouterr()
        assert captured.err == "error[protocol-error] on message from bob\n"
        assert captured.out.splitlines() == ["from alice: before", "from alice: after"]
        assert run("recv", "bob") == 0
        assert capsys.readouterr().out == "no new messages\n"

    def test_backup_restore_wrong_secret(self, run, tmp_path, capsys):
        run("enroll", "alice")
        archive = tmp_path / "alice.backup"
        run("backup", "export", "alice", "--secret", "right", "--out", str(archive))
        capsys.readouterr()
        assert run("backup", "restore", "alice", "--secret", "wrong",
                   "--in", str(archive)) == 1
        assert "error[auth-failed]" in capsys.readouterr().err

    def test_group_commands(self, run, capsys):
        for user in ("ann", "ben", "cal"):
            run("enroll", user)
        assert run("group", "create", "team", "ann", "ben", "cal") == 0
        run("recv", "ben")
        run("recv", "cal")
        capsys.readouterr()
        assert run("group", "send", "team", "ann", "good", "morning") == 0
        for user in ("ben", "cal"):
            capsys.readouterr()
            assert run("recv", user) == 0
            assert "[team] from ann: good morning" in capsys.readouterr().out

    def test_chat_interactive(self, run, capsys, monkeypatch):
        import io
        run("enroll", "ann")
        run("enroll", "ben")
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "ann: hi ben\nben: hey ann\nwho: dis\n"))
        capsys.readouterr()
        assert run("chat", "ann", "ben") == 0
        captured = capsys.readouterr()
        assert "from ann: hi ben" in captured.out
        assert "from ben: hey ann" in captured.out
        assert "expected" in captured.err  # the malformed line warns

    def test_chat_without_enrollment_fails_as_send_does(self, run, capsys, monkeypatch):
        run("enroll", "ben")
        monkeypatch.setattr("builtins.input", _scripted_input(["nobody: hi"], EOFError))
        capsys.readouterr()
        assert run("send", "nobody", "ben", "hi") == 1
        sent = capsys.readouterr()
        assert sent.err.startswith("error[")
        assert run("chat", "nobody", "ben") == 1
        assert capsys.readouterr() == sent

    def test_bench_csv(self, run, tmp_path, capsys):
        csv_path = tmp_path / "enc.csv"
        assert run("bench", "enc", "--max-len", "500", "--step", "250",
                   "--reps", "3", "--csv", str(csv_path)) == 0
        text = csv_path.read_text()
        assert "length,encrypt_us,mac_us,total_us" in text
        assert "# fit_slope_us_per_char=" in text
        assert run("bench", "dec", "--max-len", "250", "--step", "250",
                   "--reps", "2") == 0
        assert "length,decrypt_us,mac_verify_us,total_us" in capsys.readouterr().out


class TestCounterSpentWhenSealed:
    """Every command saves the sealed state before it submits, so no counter
    (and so no message key and IV) is sealed twice, whatever the submit does."""

    @staticmethod
    def record_submits(monkeypatch):
        counters = []
        submit = RelayClient.submit_envelope

        def recording(self, envelope):
            counters.append((envelope.sender_id, envelope.counter))
            return submit(self, envelope)

        monkeypatch.setattr(RelayClient, "submit_envelope", recording)
        return counters

    def test_lost_submit_reply_spends_the_counter(self, run, monkeypatch, capsys):
        run("enroll", "alice")
        run("enroll", "bob")
        submit = RelayClient.submit_envelope

        def queued_then_lost(self, envelope):
            submit(self, envelope)
            raise WireProtocolError("connection closed by server")

        with monkeypatch.context() as m:
            m.setattr(RelayClient, "submit_envelope", queued_then_lost)
            assert run("send", "alice", "bob", "first") == 1
        capsys.readouterr()
        assert run("send", "alice", "bob", "second") == 0
        assert "(counter 1)" in capsys.readouterr().out
        assert run("recv", "bob") == 0
        captured = capsys.readouterr()
        assert "from alice: first" in captured.out
        assert "from alice: second" in captured.out
        assert "error[" not in captured.err

    def test_refused_counter_is_never_sealed_again(self, run, monkeypatch, capsys):
        monkeypatch.setattr(relay_mod, "MAILBOX_CAP", 1)
        run("enroll", "alice")
        run("enroll", "bob")
        counters = self.record_submits(monkeypatch)
        assert run("send", "alice", "bob", "one") == 0
        assert run("send", "alice", "bob", "two") == 1
        assert "error[mailbox-full]" in capsys.readouterr().err
        assert run("recv", "bob") == 0
        assert run("recv", "bob") == 0  # acknowledges the first fetch
        assert run("send", "alice", "bob", "three") == 0
        assert [counter for _, counter in counters] == [0, 1, 2]
        capsys.readouterr()
        assert run("recv", "bob") == 0
        assert "from alice: three" in capsys.readouterr().out

    def test_lost_broadcast_reply_spends_the_group_counter(self, run, monkeypatch,
                                                           capsys):
        run("enroll", "ann")
        run("enroll", "ben")
        assert run("group", "create", "team", "ann", "ben") == 0
        assert run("recv", "ben") == 0
        broadcast = RelayClient.broadcast_group

        def fanned_out_then_lost(self, group_id, envelope):
            broadcast(self, group_id, envelope)
            raise WireProtocolError("connection closed by server")

        with monkeypatch.context() as m:
            m.setattr(RelayClient, "broadcast_group", fanned_out_then_lost)
            assert run("group", "send", "team", "ann", "first") == 1
        assert run("group", "send", "team", "ann", "second") == 0
        capsys.readouterr()
        assert run("recv", "ben") == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["[team] from ann: first",
                                             "[team] from ann: second"]
        assert captured.err == ""

    def test_lost_group_key_submit_spends_the_session_counter(self, run, monkeypatch,
                                                              capsys):
        run("enroll", "ann")
        run("enroll", "ben")
        submit = RelayClient.submit_envelope

        def queued_then_lost(self, envelope):
            submit(self, envelope)
            raise WireProtocolError("connection closed by server")

        with monkeypatch.context() as m:
            m.setattr(RelayClient, "submit_envelope", queued_then_lost)
            assert run("group", "create", "team", "ann", "ben") == 1
        capsys.readouterr()
        assert run("send", "ann", "ben", "after") == 0
        assert "(counter 1)" in capsys.readouterr().out
        assert run("recv", "ben") == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["control message from ann accepted",
                                             "from ann: after"]
        assert captured.err == ""

    def test_interrupted_chat_keeps_its_counters(self, run, monkeypatch):
        run("enroll", "ann")
        run("enroll", "ben")
        counters = self.record_submits(monkeypatch)
        monkeypatch.setattr("builtins.input",
                            _scripted_input(["ann: one", "ben: two"], KeyboardInterrupt))
        assert run("chat", "ann", "ben") == 130
        monkeypatch.setattr("builtins.input",
                            _scripted_input(["ann: three", "ben: four"], EOFError))
        assert run("chat", "ann", "ben") == 0
        assert len(counters) == 4
        assert len(set(counters)) == 4, counters

    def test_interrupted_chat_keeps_received_texts(self, run, cfg, monkeypatch, capsys):
        """Each pull that delivers is saved at once: the relay drops what a
        later pull acknowledges, so an unsaved receiver would lose it."""
        run("enroll", "ann")
        run("enroll", "ben")
        monkeypatch.setattr("builtins.input",
                            _scripted_input(["ann: one", "ann: two"], KeyboardInterrupt))
        assert run("chat", "ann", "ben") == 130
        ben = Client.from_state_bytes(cli._state_path(cfg, "ben").read_bytes())
        assert [entry.text for entry in ben.history] == ["one", "two"]
        assert ben.sessions["ann"].skipped_keys == {}
        capsys.readouterr()
        assert run("recv", "ben") == 0
        captured = capsys.readouterr()
        assert "no new messages" in captured.out
        assert "error[" not in captured.err


def _scripted_input(lines, end):
    """An ``input`` replacement: the given lines, then raises ``end``."""
    remaining = iter(lines)

    def read(prompt=""):
        line = next(remaining, None)
        if line is None:
            raise end
        return line

    return read


class TestDroppedConnection:
    def test_reset_connection_is_an_error_line(self, tmp_path, capsys):
        """A connection the server resets after reading the request ends the
        command with an ``error[...]`` line and exit code 1, not a traceback."""
        listener = socket.create_server(("127.0.0.1", 0))

        def read_then_reset():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as stream:
                stream.read(struct.unpack(">I", stream.read(4))[0])  # one request frame
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))

        thread = threading.Thread(target=read_then_reset)
        thread.start()
        try:
            code = cli.main(["--state-dir", str(tmp_path / "state"),
                             "--host", "127.0.0.1",
                             "--port", str(listener.getsockname()[1]),
                             "revoke", "bob"])
        finally:
            thread.join(timeout=5)
            listener.close()
        assert not thread.is_alive()
        assert code == 1
        assert "error[protocol-error]" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scripted walkthrough: full lifecycle, plus op-coverage instrumentation
# ---------------------------------------------------------------------------

WALKTHROUGH_OPS = {
    crypto_mod: ["generate_identity_keypair", "derive_master_secret", "init_chains",
                 "ratchet_forward", "seal", "unseal", "derive_backup_key"],
    chain_mod: ["genesis", "fetch_latest", "verify_chain"],
}

WALKTHROUGH_METHODS = {
    chain_mod.ChainNode: ["append", "revoke"],
    MnoCertificateAuthority: ["issue_certificate"],
    Relay: ["register_user", "fetch_certificate", "submit_envelope",
            "fetch_envelopes", "broadcast_group"],
    Client: ["start_session", "send_text", "receive_envelope",
             "export_backup", "create_group", "send_group_message"],
}

WALKTHROUGH_CLASSMETHODS = {
    Client: ["install", "restore_backup"],
}


def _run_walkthrough(run, tmp_path):
    """The scripted end-to-end sequence; returns collected recv transcripts."""
    transcript = []
    assert run("enroll", "alice") == 0
    assert run("enroll", "bob") == 0
    assert run("enroll", "carol") == 0
    for user in ("alice", "bob", "carol"):
        assert run("register", user) == 0
    for i in range(3):
        assert run("send", "alice", "bob", f"to-bob-{i}") == 0
    transcript.append(("recv", "bob"))
    assert run("recv", "bob") == 0
    for i in range(3):
        assert run("send", "bob", "alice", f"to-alice-{i}") == 0
    transcript.append(("recv", "alice"))
    assert run("recv", "alice") == 0
    assert run("group", "create", "team", "alice", "bob", "carol") == 0
    assert run("recv", "bob") == 0
    assert run("recv", "carol") == 0
    assert run("group", "send", "team", "alice", "team-hello") == 0
    assert run("recv", "carol") == 0
    archive = tmp_path / "alice.bak"
    assert run("backup", "export", "alice", "--secret", "s3cret",
               "--out", str(archive)) == 0
    assert run("revoke", "bob") == 0
    assert run("send", "alice", "bob", "should-fail") == 1
    assert run("backup", "restore", "alice", "--secret", "s3cret",
               "--in", str(archive)) == 0
    assert run("send", "alice", "carol", "resumed") == 0
    assert run("recv", "carol") == 0
    assert run("send", "carol", "alice", "ack") == 0
    assert run("recv", "alice") == 0
    assert run("chain", "verify") == 0
    return transcript


class TestWalkthrough:
    def test_scripted_transcript(self, run, tmp_path, capsys):
        _run_walkthrough(run, tmp_path)
        out = capsys.readouterr().out
        for i in range(3):
            assert f"from alice: to-bob-{i}" in out
            assert f"from bob: to-alice-{i}" in out
        assert "[team] from alice: team-hello" in out
        assert "from alice: resumed" in out
        assert "from carol: ack" in out
        assert "chain ok" in out

    def test_walkthrough_covers_every_module_op(self, tmp_path, monkeypatch):
        counts = {}

        def counted(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for module, names in WALKTHROUGH_OPS.items():
            for name in names:
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        # fetch_latest is imported by name into the relay's namespace
        monkeypatch.setattr(relay_mod, "fetch_latest",
                            counted("fetch_latest", relay_mod.fetch_latest))
        monkeypatch.setattr(cli, "verify_chain",
                            counted("verify_chain", cli.verify_chain))
        for klass, names in WALKTHROUGH_METHODS.items():
            for name in names:
                monkeypatch.setattr(klass, name, counted(name, getattr(klass, name)))
        for klass, names in WALKTHROUGH_CLASSMETHODS.items():
            for name in names:
                original = getattr(klass, name).__func__
                monkeypatch.setattr(klass, name, classmethod(counted(name, original)))

        # the stack comes up after instrumentation so genesis is observed too
        cfg = StackConfig(state_dir=str(tmp_path / "covstate"), relay_port=0)
        with run_stack(cfg) as server:
            prefix = ["--state-dir", cfg.state_dir, "--port", str(server.port)]
            _run_walkthrough(lambda *args: cli.main(prefix + list(args)), tmp_path)

        expected = set()
        for names in WALKTHROUGH_OPS.values():
            expected.update(names)
        for names in WALKTHROUGH_METHODS.values():
            expected.update(names)
        for names in WALKTHROUGH_CLASSMETHODS.values():
            expected.update(names)
        missing = {name for name in expected if counts.get(name, 0) == 0}
        assert not missing, f"walkthrough never exercised: {sorted(missing)}"
