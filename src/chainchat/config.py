"""Stack configuration: three values, each set by its command-line flag."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass
class StackConfig:
    relay_host: str = "127.0.0.1"
    relay_port: int = 7801
    state_dir: str = "chainchat-state"

    def resolved_chain_file(self) -> str:
        """The chain file, which always sits beside stack.json."""
        return str(Path(self.state_dir) / "chain.dat")

    @property
    def clients_dir(self) -> Path:
        return Path(self.state_dir) / "clients"

    @property
    def stack_file(self) -> Path:
        return Path(self.state_dir) / "stack.json"

    @property
    def pid_file(self) -> Path:
        return Path(self.state_dir) / "relay.pid"
