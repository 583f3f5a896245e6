"""Timing harness for the seal/unseal pipeline.

For each requested input length the harness generates a deterministic ASCII
string of exactly that length, times the cipher and MAC steps that
``crypto.seal`` and ``crypto.unseal`` are made of, then the whole call, under
fresh per-repetition message keys, and records median times in
microseconds. Medians resist scheduler noise; inputs are reproducible across
runs so only the timing varies.

CSV output carries a metadata preamble (# comments) with the repetition
count and a least-squares fit of total time against input length, then the
fixed column schema:

  encrypt: length,encrypt_us,mac_us,total_us
  decrypt: length,decrypt_us,mac_verify_us,total_us
"""

from __future__ import annotations

import hashlib
import random
import string
import time
from dataclasses import dataclass
from statistics import correlation, linear_regression, median
from typing import Iterable, List, Optional, Sequence, Tuple

from . import crypto
from .crypto import ChainKey, MessageKey

_INPUT_SEED = 0x5EED
_BENCH_AD = b"bench-associated-data-0123456789"
_BENCH_ROOT = ChainKey(key=hashlib.sha256(b"chainchat-bench-root").digest(), index=0)


@dataclass
class BenchRecord:
    input_length: int
    repetitions: int
    encrypt_us: Optional[float] = None
    mac_us: Optional[float] = None
    total_encrypt_us: Optional[float] = None
    decrypt_us: Optional[float] = None
    mac_verify_us: Optional[float] = None
    total_decrypt_us: Optional[float] = None


def bench_string(length: int) -> str:
    """Deterministic printable-ASCII input of exactly the requested length."""
    if length < 0:
        raise ValueError("input length must be non-negative")
    rng = random.Random(_INPUT_SEED + length)
    return "".join(rng.choices(string.ascii_letters + string.digits, k=length))


def _key_stream() -> Iterable[MessageKey]:
    chain = _BENCH_ROOT
    while True:
        mk, chain = crypto.ratchet_forward(chain)
        yield mk


def _time_seal(mk: MessageKey, data: bytes) -> Tuple[int, int, int]:
    t0 = time.perf_counter_ns()
    ciphertext = crypto.cbc_encrypt(mk, data)
    t1 = time.perf_counter_ns()
    crypto.mac_tag(mk, _BENCH_AD, ciphertext)
    t2 = time.perf_counter_ns()
    crypto.seal(mk, data, _BENCH_AD)
    t3 = time.perf_counter_ns()
    return t1 - t0, t2 - t1, t3 - t2


def _time_unseal(mk: MessageKey, data: bytes) -> Tuple[int, int, int]:
    payload = crypto.seal(mk, data, _BENCH_AD)
    t0 = time.perf_counter_ns()
    crypto.mac_verify(mk, payload, _BENCH_AD)
    t1 = time.perf_counter_ns()
    crypto.cbc_decrypt(mk, payload.ciphertext)
    t2 = time.perf_counter_ns()
    crypto.unseal(mk, payload, _BENCH_AD)
    t3 = time.perf_counter_ns()
    return t2 - t1, t1 - t0, t3 - t2  # in column order: the MAC is checked first


# direction -> one timed repetition, its BenchRecord fields and its CSV header;
# a repetition returns nanoseconds for the cipher step, the MAC step and the call
_DIRECTIONS = {
    "encrypt": (_time_seal, ("encrypt_us", "mac_us", "total_encrypt_us"),
                "length,encrypt_us,mac_us,total_us"),
    "decrypt": (_time_unseal, ("decrypt_us", "mac_verify_us", "total_decrypt_us"),
                "length,decrypt_us,mac_verify_us,total_us"),
}


def _bench(direction: str, lengths: Sequence[int], repetitions: int) -> List[BenchRecord]:
    if not lengths:
        raise ValueError("lengths must be non-empty")
    time_once, fields, _ = _DIRECTIONS[direction]
    records = []
    for length in lengths:
        data = bench_string(length).encode("ascii")
        keys = _key_stream()
        columns: Tuple[List[float], ...] = ([], [], [])
        for _ in range(repetitions):
            for column, ns in zip(columns, time_once(next(keys), data)):
                column.append(ns / 1_000.0)
        records.append(BenchRecord(input_length=length, repetitions=repetitions,
                                   **{f: median(c) for f, c in zip(fields, columns)}))
    return records


def bench_encrypt(lengths: Sequence[int], repetitions: int = 100) -> List[BenchRecord]:
    return _bench("encrypt", lengths, repetitions)


def bench_decrypt(lengths: Sequence[int], repetitions: int = 100) -> List[BenchRecord]:
    return _bench("decrypt", lengths, repetitions)


def fit_line(points: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Least-squares slope and R^2 of y against x; 0.0 where undefined."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if len(points) < 2 or len(set(xs)) == 1:
        return 0.0, 0.0
    slope = linear_regression(xs, ys).slope
    return slope, 0.0 if len(set(ys)) == 1 else correlation(xs, ys) ** 2


def render_csv(records: Sequence[BenchRecord], direction: str) -> str:
    if direction not in _DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    _, fields, header = _DIRECTIONS[direction]
    rows = [(r.input_length, *(getattr(r, f) for f in fields)) for r in records]
    slope, r_squared = fit_line([(float(n), total) for n, _, _, total in rows])
    repetitions = records[0].repetitions if records else 0
    lines = [
        "# chainchat bench v1",
        f"# direction={direction}",
        f"# repetitions={repetitions}",
        f"# fit_slope_us_per_char={slope:.6f}",
        f"# fit_r_squared={r_squared:.6f}",
        header,
    ]
    lines += [f"{n},{step:.3f},{mac:.3f},{total:.3f}" for n, step, mac, total in rows]
    return "\n".join(lines) + "\n"


def write_csv(records: Sequence[BenchRecord], direction: str, path: str) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(render_csv(records, direction))
