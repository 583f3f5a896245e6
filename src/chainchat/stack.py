"""Local desk-scale stack: chain node, MNO, and relay behind one listener.

``run_stack`` builds the three roles in-process and exposes them through a
wire server. Writer credentials and the chain live under the state
directory, so tearing down and re-running with the same paths reloads the
same chain (and fails loudly if it no longer verifies).
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

from .chain import ChainNode, WriterCredential, write_atomic
from .chain import load_chain, verify_chain  # noqa: F401  (perfbench/tracing.py wraps them here)
from .config import StackConfig
from .errors import ChainError, StackStartupError
from .mno import MnoCertificateAuthority
from .relay import Relay
from .wire import WireServer

MNO_WRITER_ID = "mno-1"
RELAY_WRITER_ID = "relay-1"


def _load_or_create_credentials(cfg: StackConfig) -> dict[str, WriterCredential]:
    """Writer signing keys persist in stack.json so restarts keep identity."""
    path = cfg.stack_file
    if path.exists():
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            credentials = {}
            for entry in data["writers"]:
                writer_id = entry["id"]
                if not isinstance(writer_id, str) or not writer_id:
                    raise ValueError(f"writer id {writer_id!r} is not a non-empty string")
                credentials[writer_id] = WriterCredential.from_seed(
                    writer_id, base64.b64decode(entry["seed"]))
        except (KeyError, TypeError, ValueError) as e:  # JSONDecodeError is a ValueError
            raise StackStartupError(f"unreadable writer credentials: {e}") from e
        if MNO_WRITER_ID not in credentials:
            raise StackStartupError(f"unreadable writer credentials: no {MNO_WRITER_ID!r} entry")
        return credentials
    credentials = {
        MNO_WRITER_ID: WriterCredential.generate(MNO_WRITER_ID),
        RELAY_WRITER_ID: WriterCredential.generate(RELAY_WRITER_ID),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, json.dumps({
        "writers": [
            {"id": writer_id, "seed": base64.b64encode(cred.seed).decode()}
            for writer_id, cred in credentials.items()
        ]
    }, indent=2).encode("utf-8"))
    return credentials


def _open_chain(cfg: StackConfig,
                credentials: dict[str, WriterCredential]) -> ChainNode:
    chain_path = cfg.resolved_chain_file()
    if Path(chain_path).exists():
        try:
            return ChainNode.open(chain_path, credentials.values())
        except ChainError as e:
            raise StackStartupError(f"chain file {chain_path}: {e}") from e
    Path(chain_path).parent.mkdir(parents=True, exist_ok=True)
    writer_set = [(writer_id, cred.verification_key)
                  for writer_id, cred in credentials.items()]
    return ChainNode.create(writer_set, path=chain_path)


class StackHandle:
    def __init__(self, config: StackConfig, chain_node: ChainNode,
                 mno: MnoCertificateAuthority, relay: Relay, server: WireServer):
        self.config = config
        self.chain_node = chain_node
        self.mno = mno
        self.relay = relay
        self.server = server
        self.host = server.host
        self.port = server.port

    def close(self) -> None:
        self.server.close()

    def __enter__(self) -> "StackHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_stack(config: StackConfig) -> StackHandle:
    Path(config.state_dir).mkdir(parents=True, exist_ok=True)
    credentials = _load_or_create_credentials(config)
    chain_node = _open_chain(config, credentials)
    mno = MnoCertificateAuthority(credentials[MNO_WRITER_ID], chain_node)
    relay = Relay(chain_node)
    server = WireServer(relay, mno, host=config.relay_host, port=config.relay_port)
    return StackHandle(config, chain_node, mno, relay, server)
