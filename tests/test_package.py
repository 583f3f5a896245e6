import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

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


def test_the_server_loads_no_client_code():
    """Importing the stack, as the server process does, loads none of the
    client, the CLI or the bench: the package root imports nothing."""
    package_root = Path(chainchat.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(package_root))
    script = ("import sys\n"
              "import chainchat.stack\n"
              "print(' '.join(sorted(m for m in sys.modules if m.startswith('chainchat'))))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"chainchat.stack", "chainchat.relay", "chainchat.wire"} <= loaded
    assert not loaded & {"chainchat.client", "chainchat.cli", "chainchat.bench"}


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
