"""Command-line entry point for the desk-scale stack.

Subcommands map one-to-one onto module operations: stack lifecycle, user
enrollment and registration, scripted send/recv, interactive chat, group
messaging, revocation, chain inspection, encrypted backup, and the timing
benchmarks. The parser is the one command table: each leaf subcommand names
its handler, and every handler takes ``(cfg, args)``. Exit code 0 on
success; failures print a machine-readable ``error[<category>]: ...`` line
on stderr and exit nonzero.

Client state (keys, sessions, history) lives in per-user files under the
state directory: that is the "device storage" of this stack. The relay and
MNO never see it, and ``backup export`` and ``backup restore`` read and
write it without a running stack. Each user command is one step: under an
exclusive lock on ``<state_dir>/<user>.lock`` it loads the user's state,
acts, saves once if it changed the state, and then submits what it sealed,
still under the lock. So two commands for one user run one after the other
and never send on the same counter, and a counter is spent when it is
sealed, even if the submit is refused or its reply lost. ``chat`` runs the
``send`` and ``recv`` steps for each line, so it holds a lock for one step,
never while it waits for input. A user id names these files, so an id that
is not one plain file name is refused with ``bad-argument``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from .bench import bench_decrypt, bench_encrypt, render_csv, write_csv
from .chain import load_chain, verify_chain
from .client import Client, Delivery
from .config import StackConfig
from .errors import ChainChatError, StackStartupError
from .stack import run_stack
from .store import lock_file, lock_state_dir, make_state_dir, write_atomic
from .wire import RelayClient


# ---------------------------------------------------------------------------
# client-state files
# ---------------------------------------------------------------------------

def _user_file(directory: str | Path, user_id: str, suffix: str) -> Path:
    """``<directory>/<user_id><suffix>``, the one place a user id becomes a
    path; each command gets here before it connects or opens a file."""
    if user_id in ("", ".", "..") or Path(user_id).name != user_id or "\0" in user_id:
        raise ValueError(f"user id {user_id!r} is not one plain path component")
    return Path(directory) / f"{user_id}{suffix}"


def _state_path(cfg: StackConfig, user_id: str) -> Path:
    return _user_file(cfg.clients_dir, user_id, ".state")


def _save_client(cfg: StackConfig, client: Client) -> None:
    make_state_dir(cfg.clients_dir)
    write_atomic(_state_path(cfg, client.user_id), client.to_state_bytes())


def _load_client(cfg: StackConfig, user_id: str) -> Client:
    path = _state_path(cfg, user_id)
    if not path.exists():
        raise ChainChatError(f"no client state for {user_id!r}; run enroll first")
    return Client.from_state_bytes(path.read_bytes())


@contextlib.contextmanager
def _user_state(cfg: StackConfig, user_id: str) -> Iterator[Tuple[Client, RelayClient]]:
    """The user's client, loaded under the user's lock, and a connection
    opened after it, which is the client's directory and transport and has
    registered it. It saves nothing: a command that changes the client
    saves it once, before it submits what it sealed."""
    with lock_file(_user_file(cfg.state_dir, user_id, ".lock")), _connect(cfg) as rc:
        client = _load_client(cfg, user_id)
        client.directory = client.transport = rc
        rc.register_user(client.user_id, client.cert_fingerprint)
        yield client, rc


def _connect(cfg: StackConfig) -> RelayClient:
    try:
        return RelayClient(cfg.relay_host, cfg.relay_port)
    except OSError as e:
        raise StackStartupError(
            f"cannot reach the stack on {cfg.relay_host}:{cfg.relay_port} "
            f"({e}); is it up?"
        ) from e


# C0 controls (newline included), DEL and C1, each shown as its \x escape, so
# that what a peer sends, the server answers or the chain file holds cannot
# move the cursor, clear or retitle the terminal
_CONTROL_ESCAPES = {c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7f, 0xa0))}


def _shown(text: str) -> str:
    return text.translate(_CONTROL_ESCAPES)


def _print_delivery(delivery: Delivery) -> None:
    env = delivery.envelope
    sender = _shown(env.sender_id)
    if delivery.error is not None:
        print(f"error[{_shown(delivery.error)}] on message from {sender}", file=sys.stderr)
    elif delivery.text is None:
        print(f"control message from {sender} accepted")
    elif env.group_id:
        print(f"[{_shown(env.group_id)}] from {sender}: {_shown(delivery.text)}")
    else:
        print(f"from {sender}: {_shown(delivery.text)}")


# ---------------------------------------------------------------------------
# stack lifecycle
# ---------------------------------------------------------------------------

def _cmd_stack_serve(cfg: StackConfig, args: argparse.Namespace) -> int:
    # blocked before run_stack starts its threads, which inherit the mask, so
    # only sigwait takes a stop signal, the moment it arrives
    stop_signals = {signal.SIGTERM, signal.SIGINT}
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, stop_signals)
    try:
        server = run_stack(cfg)
        try:
            write_atomic(cfg.pid_file, str(os.getpid()).encode("ascii"))
            print(f"stack up on {server.host}:{server.port} "
                  f"(chain: {cfg.resolved_chain_file()})", flush=True)
            signal.sigwait(stop_signals)
        finally:
            server.close()
            cfg.pid_file.unlink(missing_ok=True)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    return 0


def _cmd_stack_up(cfg: StackConfig, args: argparse.Namespace) -> int:
    if cfg.relay_port == 0:
        raise StackStartupError("background mode needs a fixed relay port")
    if _running_pid(cfg) is not None:
        raise StackStartupError("stack already running (pid file present)")
    make_state_dir(cfg.state_dir)
    log_path = Path(cfg.state_dir) / "stack.log"
    cmd = [sys.executable, "-m", "chainchat"] + _global_flags(args) + ["stack", "serve"]
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=log,
                                start_new_session=True)
    deadline = time.time() + 15
    while time.time() < deadline:
        if proc.poll() is not None:
            raise StackStartupError(
                f"stack process exited early with code {proc.returncode}; "
                f"see {log_path}"
            )
        try:
            with RelayClient(cfg.relay_host, cfg.relay_port, timeout=2.0) as probe:
                if probe.health():
                    print(f"stack up on {cfg.relay_host}:{cfg.relay_port} (pid {proc.pid})")
                    return 0
        except OSError:
            pass
        time.sleep(0.1)
    proc.terminate()
    raise StackStartupError("stack did not become healthy within 15s")


def _running_pid(cfg: StackConfig) -> Optional[int]:
    """The pid in the pid file while a server holds the state directory's
    lock: a free lock, whatever the file names, a missing or unreadable
    file, and a pid that is not a positive integer (0 and -1 would signal a
    whole process group) all mean no running stack."""
    try:
        os.close(lock_state_dir(cfg.state_dir))
        return None  # the lock is free: no server runs on the directory
    except OSError:  # no state directory
        return None
    except StackStartupError:  # a server holds the lock
        pass
    try:
        pid = int(cfg.pid_file.read_text(encoding="ascii"))
    except (OSError, ValueError):  # UnicodeDecodeError is a ValueError
        return None
    return pid if pid > 0 else None


def _cmd_stack_down(cfg: StackConfig, args: argparse.Namespace) -> int:
    pid = _running_pid(cfg)
    if pid is None:
        cfg.pid_file.unlink(missing_ok=True)
        print("stack is not running")
        return 0
    os.kill(pid, signal.SIGTERM)
    deadline = time.time() + 10
    while _running_pid(cfg) == pid:  # until the server lets go of the lock
        if time.time() >= deadline:
            print("error[stack-still-running]: " + _shown(
                f"pid {pid} still holds {cfg.state_dir} 10s after SIGTERM; "
                f"{cfg.pid_file} kept"), file=sys.stderr)
            return 1
        time.sleep(0.05)
    cfg.pid_file.unlink(missing_ok=True)
    print("stack down")
    return 0


# ---------------------------------------------------------------------------
# user commands
# ---------------------------------------------------------------------------

def _cmd_enroll(cfg: StackConfig, args: argparse.Namespace) -> int:
    """Enroll a new key. An enrolled user keeps its history, inbox cursor
    and groups; its sessions, derived from the old key, go."""
    with lock_file(_user_file(cfg.state_dir, args.user, ".lock")), _connect(cfg) as rc:
        old = _load_client(cfg, args.user) if _state_path(cfg, args.user).exists() else None
        client = Client.install(args.user, mno=rc, relay=rc)
        if old is not None:
            client.history, client.inbox_cursor, client.groups = \
                old.history, old.inbox_cursor, old.groups
        _save_client(cfg, client)
    record = client.certificate
    print(f"enrolled {args.user} (issuer {_shown(record.issuer_id)}, "
          f"expires_at {record.expires_at})")
    if old is not None:
        print(f"kept {len(old.history)} history entries, the inbox cursor and "
              f"{len(old.groups)} groups; dropped {len(old.sessions)} sessions")
    return 0


def _cmd_register(cfg: StackConfig, args: argparse.Namespace) -> int:
    client = _load_client(cfg, args.user)
    with _connect(cfg) as rc:
        result = rc.register_user(client.user_id, client.cert_fingerprint)
    print(f"{args.user}: {_shown(result)}")
    return 0


def _cmd_send(cfg: StackConfig, args: argparse.Namespace) -> int:
    with _user_state(cfg, args.sender) as (client, rc):
        envelope = client.send_text(args.recipient, " ".join(args.text))
        _save_client(cfg, client)
        ack = rc.submit_envelope(envelope)
    print(f"{args.sender} -> {args.recipient}: {_shown(ack)} (counter {envelope.counter})")
    return 0


def _cmd_recv(cfg: StackConfig, args: argparse.Namespace) -> int:
    with _user_state(cfg, args.user) as (client, rc):
        deliveries = client.pull_messages()
        if deliveries:  # the next fetch acknowledges them to the relay
            _save_client(cfg, client)
    for delivery in deliveries:
        _print_delivery(delivery)
    if not deliveries:
        print("no new messages")
    return 0


def _cmd_chat(cfg: StackConfig, args: argparse.Namespace) -> int:
    """Interactive two-party exchange: lines are '<user>: text', and each
    line runs the ``send`` step and then the peer's ``recv`` step."""
    for user in (args.user_a, args.user_b):
        _load_client(cfg, user)  # a user with no state fails here, as in send
    print(f"chat between {args.user_a} and {args.user_b}; "
          f"type '<user>: message', EOF ends")
    while True:
        try:
            line = input()
        except EOFError:
            return 0
        user, sep, text = line.partition(":")
        user = user.strip()
        if not sep or user not in (args.user_a, args.user_b):
            print(f"? expected '<{args.user_a}|{args.user_b}>: message'", file=sys.stderr)
            continue
        peer = args.user_b if user == args.user_a else args.user_a
        _cmd_send(cfg, argparse.Namespace(sender=user, recipient=peer, text=[text.strip()]))
        _cmd_recv(cfg, argparse.Namespace(user=peer))


def _cmd_group_create(cfg: StackConfig, args: argparse.Namespace) -> int:
    with _user_state(cfg, args.admin) as (admin, rc):
        creation = admin.create_group(args.group, [args.admin] + args.members)
        _save_client(cfg, admin)
        rc.create_group(args.group, args.admin, creation.member_ids)
        for envelope in creation.envelopes:
            rc.submit_envelope(envelope)
    print(f"group {args.group} created with members: "
          f"{_shown(', '.join(creation.member_ids))}")
    for member, category in creation.excluded.items():
        print(f"excluded {_shown(member)}: {_shown(category)}", file=sys.stderr)
    return 0


def _cmd_group_send(cfg: StackConfig, args: argparse.Namespace) -> int:
    with _user_state(cfg, args.sender) as (client, rc):
        envelope = client.send_group_message(args.group, " ".join(args.text))
        _save_client(cfg, client)
        acks = rc.broadcast_group(args.group, envelope)
    for member, result in acks:
        print(f"{_shown(member)}: {_shown(result)}")
    return 0


def _cmd_revoke(cfg: StackConfig, args: argparse.Namespace) -> int:
    with _connect(cfg) as rc:
        rc.revoke_user(args.user)
    print(f"revoked {args.user}")
    return 0


# ---------------------------------------------------------------------------
# chain inspection
# ---------------------------------------------------------------------------

def _cmd_chain_verify(cfg: StackConfig, args: argparse.Namespace) -> int:
    state = load_chain(cfg.resolved_chain_file())
    result = verify_chain(state)
    if result:
        print(f"chain ok: {len(state.blocks)} blocks, height {state.height}")
        return 0
    print(f"error[chain-invalid]: height {result.height}: {_shown(result.reason)}",
          file=sys.stderr)
    return 1


def _cmd_chain_show(cfg: StackConfig, args: argparse.Namespace) -> int:
    state = load_chain(cfg.resolved_chain_file())
    for block in state.blocks:
        if block.height == 0:
            writers = _shown(", ".join(w for w, _ in block.writer_declarations))
            print(f"block 0 genesis writers=[{writers}] ts={block.timestamp}")
            continue
        print(f"block {block.height} writer={_shown(block.writer_id)} ts={block.timestamp}")
        for rec in block.records:
            print(f"  {_shown(rec.kind):<11} user={_shown(rec.user_id)} "
                  f"issuer={_shown(rec.issuer_id)} "
                  f"issued={rec.issued_at} expires={rec.expires_at}")
    return 0


# ---------------------------------------------------------------------------
# backup
# ---------------------------------------------------------------------------

def _cmd_backup_export(cfg: StackConfig, args: argparse.Namespace) -> int:
    archive = _load_client(cfg, args.user).export_backup(args.secret)
    write_atomic(args.out, archive.to_bytes())
    print(f"backup of {args.user} written to {args.out} "
          f"({archive.iterations} KDF iterations)")
    return 0


def _cmd_backup_restore(cfg: StackConfig, args: argparse.Namespace) -> int:
    with lock_file(_user_file(cfg.state_dir, args.user, ".lock")):
        data = Path(getattr(args, "in")).read_bytes()
        client = Client.restore_backup(data, args.secret)
        if client.user_id != args.user:
            raise ChainChatError(
                f"archive belongs to {client.user_id!r}, not {args.user!r}"
            )
        _save_client(cfg, client)
    print(f"restored {args.user}: {len(client.history)} history entries, "
          f"{len(client.sessions)} sessions")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _cmd_bench(cfg: StackConfig, args: argparse.Namespace) -> int:
    lengths = list(range(0, args.max_len + 1, args.step)) if args.step else [args.max_len]
    if args.direction == "enc":
        records = bench_encrypt(lengths, repetitions=args.reps)
        direction = "encrypt"
    else:
        records = bench_decrypt(lengths, repetitions=args.reps)
        direction = "decrypt"
    if args.csv:
        write_csv(records, direction, args.csv)
        print(f"wrote {len(records)} rows to {args.csv}")
    else:
        sys.stdout.write(render_csv(records, direction))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _global_flags(args: argparse.Namespace) -> List[str]:
    return ["--state-dir", args.state_dir, "--port", str(args.port), "--host", args.host]


def _command(subparsers, name: str, run, **kwargs) -> argparse.ArgumentParser:
    """A leaf subcommand; ``main`` calls its handler as ``run(cfg, args)``."""
    p = subparsers.add_parser(name, **kwargs)
    p.set_defaults(run=run)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainchat",
        description="end-to-end encrypted messaging over a permissioned certificate chain",
    )
    defaults = StackConfig()
    parser.add_argument("--state-dir", default=defaults.state_dir, help="stack state directory")
    parser.add_argument("--port", type=int, default=defaults.relay_port, help="relay port")
    parser.add_argument("--host", default=defaults.relay_host, help="relay host")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stack = sub.add_parser("stack", help="start or stop the local stack")
    stack_sub = p_stack.add_subparsers(dest="stack_command", required=True)
    _command(stack_sub, "up", _cmd_stack_up, help="start chain node, MNO and relay")
    _command(stack_sub, "down", _cmd_stack_down, help="stop the running stack")
    _command(stack_sub, "serve", _cmd_stack_serve, help="run the stack in the foreground")

    p = _command(sub, "enroll", _cmd_enroll, help="generate keys and obtain a certificate")
    p.add_argument("user")

    p = _command(sub, "register", _cmd_register,
                 help="register an enrolled user with the relay")
    p.add_argument("user")

    p = _command(sub, "send", _cmd_send, help="send one message")
    p.add_argument("sender")
    p.add_argument("recipient")
    p.add_argument("text", nargs="+")

    p = _command(sub, "recv", _cmd_recv, help="fetch and decrypt queued messages")
    p.add_argument("user")

    p = _command(sub, "chat", _cmd_chat,
                 help="interactive exchange between two local users")
    p.add_argument("user_a")
    p.add_argument("user_b")

    p_group = sub.add_parser("group", help="group messaging")
    group_sub = p_group.add_subparsers(dest="group_command", required=True)
    p = _command(group_sub, "create", _cmd_group_create)
    p.add_argument("group")
    p.add_argument("admin")
    p.add_argument("members", nargs="+")
    p = _command(group_sub, "send", _cmd_group_send)
    p.add_argument("group")
    p.add_argument("sender")
    p.add_argument("text", nargs="+")

    p = _command(sub, "revoke", _cmd_revoke, help="revoke a user's certificate")
    p.add_argument("user")

    p_chain = sub.add_parser("chain", help="inspect the persisted chain")
    chain_sub = p_chain.add_subparsers(dest="chain_command", required=True)
    _command(chain_sub, "verify", _cmd_chain_verify)
    _command(chain_sub, "show", _cmd_chain_show)

    p_backup = sub.add_parser("backup", help="encrypted state archive")
    backup_sub = p_backup.add_subparsers(dest="backup_command", required=True)
    p = _command(backup_sub, "export", _cmd_backup_export)
    p.add_argument("user")
    p.add_argument("--secret", required=True)
    p.add_argument("--out", required=True)
    p = _command(backup_sub, "restore", _cmd_backup_restore)
    p.add_argument("user")
    p.add_argument("--secret", required=True)
    p.add_argument("--in", required=True)

    p = _command(sub, "bench", _cmd_bench, help="seal/unseal timing tables")
    p.add_argument("direction", choices=["enc", "dec"])
    p.add_argument("--max-len", type=int, default=10_000)
    p.add_argument("--step", type=int, default=250)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--csv", default=None)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = StackConfig(relay_host=args.host, relay_port=args.port, state_dir=args.state_dir)
    try:
        return args.run(cfg, args)
    except ChainChatError as e:
        print(f"error[{_shown(e.category)}]: {_shown(str(e))}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error[bad-argument]: {_shown(str(e))}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"error[missing-file]: {_shown(str(e))}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error[os-error]: {_shown(str(e))}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
