"""Server process of the benchmark: ``chainchat.stack.run_stack`` on a state directory.

    python3 perfbench/server.py STATE_DIR [SPANS_FILE]

Prints ``port <n>`` once the listener is up, then serves until its standard
input reads ``stop`` or closes. With SPANS_FILE, the server-side functions
are wrapped before the stack starts (so chain load and verification are
traced too), and the spans are written to SPANS_FILE on the way out.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tracing  # noqa: E402
from chainchat.config import StackConfig  # noqa: E402
from chainchat.stack import run_stack  # noqa: E402


def main(argv: list) -> int:
    state_dir = argv[0]
    spans_file = argv[1] if len(argv) > 1 else None
    tracer = tracing.Tracer()
    if spans_file:
        tracing.instrument_server(tracer)
    handle = run_stack(StackConfig(state_dir=state_dir, relay_port=0))
    print(f"port {handle.port}", flush=True)
    try:
        for line in sys.stdin:
            if line.strip() == "stop":
                break
    finally:
        handle.close()
    if spans_file:
        tracer.dump(spans_file)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
