"""Closed-loop benchmark of chainchat over the wire protocol.

    python3 perfbench/run.py --workload chat|group|churn [--seed 1] [--seconds 10] [--trace 0|1] [--smoke]

Run from the root of a checkout. One process and one thread generate the
load over one connection to a server process that runs
``chainchat.stack.run_stack`` on a fresh state directory holding a pre-built
chain. Set-up is made and timed ``SETUP_REPS`` times, each on a new server;
the last server then takes a fixed number of operations, one after the
other. The outputs are checked by ``oracle`` afterwards.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` the functions of every layer are
wrapped on both sides, the metrics are the per-layer ones, the traced
end-to-end figures are printed on the line before, and the joined spans are
written under ``perfbench/var/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
VAR = HERE / "var"
SETUP_REPS = 3
REF_RUNS = 10  # reference kernel runs after each slice of operations, about 6 % of a slice


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("chat", "group", "churn"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small chain, few users and few operations")
    return p.parse_args(argv)


def end_to_end(setup_s, latencies, wall_s, server_cpu_s, client_cpu_s, ref_s, rss_mib):
    ops = len(latencies)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (ops / wall_s, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3
                      if ops > 1 else latencies[0] * 1e3, "ms"),
        "server_cpu_ms_per_op": (server_cpu_s * 1e3 / ops, "ms"),
        "client_cpu_ms_per_op": (client_cpu_s * 1e3 / ops, "ms"),
        "server_cpu_refs_per_op": (server_cpu_s / ops / ref_s, "ref"),
        "client_cpu_refs_per_op": (client_cpu_s / ops / ref_s, "ref"),
        "ref_kernel_ms": (ref_s * 1e3, "ms"),
        "server_rss_mib": (rss_mib, "MiB"),
    }


def run(args) -> dict:
    from chainchat.errors import ChainChatError
    import reference
    import stackproc
    import tracing
    import workloads

    workload = workloads.make(args.workload, args.seed, args.seconds, args.smoke)
    chain = workload.chain
    run_dir = VAR / f"{args.workload}-{args.seed}-{time.time_ns()}"
    tracer = tracing.Tracer()
    if args.trace:
        tracing.instrument_client(tracer)
    setup_s, span_files = [], {}
    server = None
    try:
        for rep in range(SETUP_REPS):
            state_dir = run_dir / f"state{rep}"
            stackproc.prepare_state(state_dir, chain.chain_bytes, chain.stack_json)
            span_files[rep] = run_dir / f"server-spans{rep}.json" if args.trace else None
            tracer.segment, tracer.op = rep, tracing.SETUP_OP
            start = perf_counter()
            server = stackproc.ServerProcess(state_dir, span_files[rep])
            if not server.client.health():
                raise RuntimeError("stack health check failed")
            workload.setup(server.client)
            setup_s.append(perf_counter() - start)
            if rep < SETUP_REPS - 1:
                server.stop()

        latencies, failed = [], 0
        wall_s = ref_cpu_s = 0.0
        ref_runs = 0
        server_cpu0, client_cpu0 = server.cpu_seconds(), time.process_time()
        for first in range(0, workload.ops, workload.slice_ops):
            start = perf_counter()
            for k in range(first, first + workload.slice_ops):
                tracer.op = k
                t0 = perf_counter()
                try:
                    ok = workload.op(k)
                except ChainChatError as e:
                    print(f"op {k} failed: {e.category}: {e}", file=sys.stderr)
                    ok = False
                latencies.append(perf_counter() - t0)
                failed += not ok
            wall_s += perf_counter() - start
            ref0 = time.process_time()
            for _ in range(REF_RUNS):
                reference.kernel()
            ref_cpu_s += time.process_time() - ref0
            ref_runs += REF_RUNS
        client_cpu_s = time.process_time() - client_cpu0 - ref_cpu_s
        server_cpu_s = server.cpu_seconds() - server_cpu0
        ref_s = ref_cpu_s / ref_runs

        tracer.op = tracing.AFTER_OP
        rss_mib = server.peak_rss_mib()
        workload.after()
        problems = workload.check(stackproc.chain_file(server.state_dir))
        server.stop()
        server = None

        metrics = end_to_end(setup_s, latencies, wall_s, server_cpu_s, client_cpu_s,
                             ref_s, rss_mib)
        if args.trace:
            spans = tracing.join(tracer.spans, {
                rep: json.loads(path.read_text()) for rep, path in span_files.items()})
            trace_file = VAR / f"trace-{args.workload}-{args.seed}.json"
            trace_file.write_text(json.dumps(spans))
            print("traced end-to-end: " + json.dumps(
                {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}))
            print(f"spans: {trace_file}")
            metrics = tracing.layer_metrics(spans, workload.ops, workload.plaintext_bytes)
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": workload.ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv) -> int:
    args = parse_args(argv)
    if not (SRC / "chainchat" / "__init__.py").is_file():
        print(f"no chainchat package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The generator and the server it starts share one CPU. Each request
    # hands the loop from one process to the other; on two CPUs every hand-off
    # wakes an idle virtual CPU, which a busy host answers late and books as
    # steal (10-20 % of a run, against about 2 % on one CPU).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    VAR.mkdir(exist_ok=True)
    result = run(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
