"""Start, watch and stop the benchmark's server process.

The server's CPU time and peak resident set are read from outside the
process, in ``/proc/<pid>/stat`` and ``/proc/<pid>/status``.
"""

from __future__ import annotations

import os
import select
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Optional

from chainchat.config import StackConfig
from chainchat.wire import RelayClient

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def prepare_state(state_dir: Path, chain_bytes: bytes, stack_json: str) -> None:
    """A fresh state directory holding the pre-built chain and its writer keys."""
    if state_dir.exists():
        shutil.rmtree(state_dir)
    cfg = StackConfig(state_dir=str(state_dir))
    state_dir.mkdir(parents=True)
    Path(cfg.resolved_chain_file()).write_bytes(chain_bytes)
    cfg.stack_file.write_text(stack_json, encoding="utf-8")


def chain_file(state_dir: Path) -> Path:
    return Path(StackConfig(state_dir=str(state_dir)).resolved_chain_file())


class ServerProcess:
    """One ``perfbench/server.py`` process and the one connection to it.

    The process inherits the generator's CPU affinity."""

    def __init__(self, state_dir: Path, spans_file: Optional[Path] = None):
        self.state_dir = state_dir
        self.spans_file = spans_file
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
        args = [sys.executable, str(HERE / "server.py"), str(state_dir)]
        if spans_file is not None:
            args.append(str(spans_file))
        self._log = open(state_dir / "server.log", "wb")
        self.proc = subprocess.Popen(args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self._log, env=env, text=True)
        self.client: Optional[RelayClient] = None
        try:
            port = self._read_port()
            self.client = RelayClient("127.0.0.1", port)
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("port "):
            raise RuntimeError(f"server did not start: {self.log_tail()}")
        return int(line.split()[1])

    def log_tail(self) -> str:
        self._log.flush()
        text = (self.state_dir / "server.log").read_text(encoding="utf-8", errors="replace")
        return "\n".join(text.splitlines()[-20:])

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the server process, all threads."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mib(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Close the connection, ask the server to stop, and wait for it."""
        if self.client is not None:
            self.client.close()
            self.client = None
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
