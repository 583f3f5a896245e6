"""Local desk-scale stack: chain node, MNO, and relay behind one listener.

``run_stack`` builds the three roles in-process and exposes them through a
wire server. Writer credentials and the chain live under the state
directory, so tearing down and re-running with the same paths reloads the
same chain (and fails loudly if it no longer verifies, or if either file
is gone). A server holds an exclusive ``flock`` on the state directory from
before it reads it until it closes, so a second one is refused; it lets go
only after its last connection has ended (``WireServer.close``).
"""

from __future__ import annotations

import base64
import json
import os
from pathlib import Path

from .chain import ChainNode, WriterCredential
from .chain import load_chain, verify_chain  # noqa: F401  (perfbench/tracing.py wraps them here)
from .config import StackConfig
from .errors import ChainError, StackStartupError
from .mno import MnoCertificateAuthority
from .relay import Relay
from .store import lock_state_dir, make_state_dir, write_atomic
from .wire import WireServer

MNO_WRITER_ID = "mno-1"
RELAY_WRITER_ID = "relay-1"  # no new stack declares it; the benchmark's stack.json lists it


def _read_credentials(path: Path) -> dict[str, WriterCredential]:
    """The writer signing keys that stack.json lists."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        credentials = {}
        for entry in data["writers"]:
            writer_id = entry["id"]
            if not isinstance(writer_id, str) or not writer_id:
                raise ValueError(f"writer id {writer_id!r} is not a non-empty string")
            credentials[writer_id] = WriterCredential.from_seed(
                writer_id, base64.b64decode(entry["seed"]))
    except (OSError, KeyError, TypeError, ValueError) as e:  # JSONDecodeError is a ValueError
        raise StackStartupError(f"unreadable writer credentials {path}: {e}") from e
    if MNO_WRITER_ID not in credentials:
        raise StackStartupError(f"unreadable writer credentials: no {MNO_WRITER_ID!r} entry")
    return credentials


def _open_state(cfg: StackConfig) -> tuple[dict[str, WriterCredential], ChainNode]:
    """The writer credentials in stack.json and the chain they write, read
    and checked; on a first start-up, with neither file there, both are
    created, stack.json first. Writer signing keys persist there so restarts
    keep identity. A state holding only one of the two files is refused
    before anything is written: a chain is never silently replaced, and
    fresh seeds never sit beside a chain they did not declare."""
    chain_path = Path(cfg.resolved_chain_file())
    if cfg.stack_file.exists():
        credentials = _read_credentials(cfg.stack_file)
        if not chain_path.exists():
            raise StackStartupError(f"chain file {chain_path} is missing; "
                                    f"{cfg.stack_file} names its writers")
        try:
            return credentials, ChainNode.open(str(chain_path), credentials.values())
        except (ChainError, OSError) as e:
            raise StackStartupError(f"chain file {chain_path}: {e}") from e
    if chain_path.exists():
        raise StackStartupError(f"writer credentials {cfg.stack_file} are missing; "
                                f"chain file {chain_path} exists")
    mno = WriterCredential.generate(MNO_WRITER_ID)
    make_state_dir(cfg.state_dir)
    write_atomic(cfg.stack_file, json.dumps({
        "writers": [{"id": MNO_WRITER_ID, "seed": base64.b64encode(mno.seed).decode()}]
    }, indent=2).encode("utf-8"))
    return ({MNO_WRITER_ID: mno},
            ChainNode.create([(MNO_WRITER_ID, mno.verification_key)], path=str(chain_path)))


def run_stack(config: StackConfig) -> WireServer:
    """The stack on ``config``: its server reaches the relay, the MNO and,
    through the MNO, the chain node, and holds the state directory's lock
    until it closes."""
    make_state_dir(config.state_dir)
    lock = lock_state_dir(config.state_dir)
    chain_node = None
    try:
        credentials, chain_node = _open_state(config)
        mno = MnoCertificateAuthority(credentials[MNO_WRITER_ID], chain_node)
        return WireServer(Relay(chain_node), mno, host=config.relay_host,
                          port=config.relay_port, state_lock=lock)
    except BaseException:
        if chain_node is not None:
            chain_node.close()
        os.close(lock)
        raise
