"""Stack configuration: defaults, a key=value file named by ``--config``, CLI flags."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional


@dataclass
class StackConfig:
    relay_host: str = "127.0.0.1"
    relay_port: int = 7801
    state_dir: str = "chainchat-state"
    chain_file: str = ""  # empty -> <state_dir>/chain.dat

    def resolved_chain_file(self) -> str:
        return self.chain_file or str(Path(self.state_dir) / "chain.dat")

    @property
    def clients_dir(self) -> Path:
        return Path(self.state_dir) / "clients"

    @property
    def stack_file(self) -> Path:
        return Path(self.state_dir) / "stack.json"

    @property
    def pid_file(self) -> Path:
        return Path(self.state_dir) / "relay.pid"


def parse_config_text(text: str) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not key=value: {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def load_config(path: Optional[str] = None, **overrides) -> StackConfig:
    """Precedence: defaults < the config file at ``path`` < explicit overrides."""
    cfg = StackConfig()
    known = {f.name: type(f.default) for f in fields(StackConfig)}  # str or int
    if path is not None:
        values = parse_config_text(Path(path).read_text(encoding="utf-8"))
        for key, value in values.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            setattr(cfg, key, known[key](value))

    for key, value in overrides.items():
        if value is None:
            continue
        if key not in known:
            raise ValueError(f"unknown config override {key!r}")
        setattr(cfg, key, value)
    return cfg
