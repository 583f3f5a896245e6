import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import chainchat
from chainchat import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_block_runs(capsys):
    """The README's *Library use* block, run as written, prints what its
    comment says."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README}:Library use", "exec"), {})
    assert capsys.readouterr().out == "hello\n"


def _modules_loaded_by(module):
    """The names in ``sys.modules`` after a new interpreter imports ``module``."""
    package_root = Path(chainchat.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(package_root))
    script = ("import sys\n"
              f"import {module}\n"
              "print(' '.join(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_the_server_loads_no_client_code():
    """Importing the stack, as the server process does, loads none of the
    client, the CLI or the bench: the package root imports nothing."""
    loaded = _modules_loaded_by("chainchat.stack")
    assert {"chainchat.stack", "chainchat.relay", "chainchat.wire"} <= loaded
    assert not loaded & {"chainchat.client", "chainchat.cli", "chainchat.bench"}


@pytest.mark.parametrize("module", ["chainchat.stack", "chainchat.cli"])
def test_one_crypto_provider(module):
    """Every hash, MAC and KDF comes from ``cryptography``: neither the
    server nor the CLI loads the stdlib ``hashlib`` or ``hmac``, whose
    ``_hashlib`` maps a second OpenSSL into the process."""
    assert not _modules_loaded_by(module) & {
        "_hashlib", "hashlib", "hmac", "cryptography.hazmat.primitives.constant_time"}


def test_no_module_reaches_into_the_librarys_bindings():
    """Every module calls ``cryptography``'s public API: none imports or
    names ``cryptography.hazmat.bindings``, the library's private layer."""
    private = re.compile(r"hazmat(\.|\s+import\s+)bindings")
    package = Path(chainchat.__file__).resolve().parent
    assert [path.name for path in sorted(package.glob("*.py"))
            if private.search(path.read_text(encoding="utf-8"))] == []


def test_only_store_writes_durably_or_locks():
    """``store`` is the one module that fsyncs, renames over, truncates or
    takes a lock: every other module writes a file durably through it."""
    durable = re.compile(r"\bfcntl\b|\bos\.(fsync|replace|ftruncate)\b|\.truncate\(")
    package = Path(chainchat.__file__).resolve().parent
    assert [path.name for path in sorted(package.glob("*.py"))
            if durable.search(path.read_text(encoding="utf-8"))] == ["store.py"]


def test_readme_cli_tour_parses():
    """Every ``chainchat`` line of the README's *CLI quick tour*, its comment
    stripped, parses and names the handler ``main`` would run."""
    section = README.read_text(encoding="utf-8").split("## CLI quick tour", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = [line.split("#", 1)[0] for line in block.splitlines()
             if line.startswith("chainchat ")]
    assert len(lines) > 20
    for line in lines:
        words = shlex.split(line)
        args = cli.build_parser().parse_args(words[1:])
        assert callable(args.run) and args.run.__name__.startswith("_cmd_"), line
