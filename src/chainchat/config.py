"""Stack configuration: key=value file, environment overrides, CLI overrides."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Optional

ENV_CHAIN_FILE = "CHAINCHAT_CHAIN_FILE"
DEFAULT_CONFIG_NAME = "chainchat.conf"


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


def load_config(path: Optional[str] = None,
                env: Mapping[str, str] = os.environ,
                **overrides) -> StackConfig:
    """Precedence: defaults < config file < environment < explicit overrides."""
    cfg = StackConfig()
    known = {f.name: type(f.default) for f in fields(StackConfig)}  # str or int

    file_path = path
    if file_path is None and Path(DEFAULT_CONFIG_NAME).exists():
        file_path = DEFAULT_CONFIG_NAME
    if file_path is not None:
        values = parse_config_text(Path(file_path).read_text(encoding="utf-8"))
        for key, value in values.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            setattr(cfg, key, known[key](value))

    if env.get(ENV_CHAIN_FILE):
        cfg.chain_file = env[ENV_CHAIN_FILE]

    for key, value in overrides.items():
        if value is None:
            continue
        if key not in known:
            raise ValueError(f"unknown config override {key!r}")
        setattr(cfg, key, value)
    return cfg
