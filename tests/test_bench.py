import collections
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainchat
from chainchat import crypto
from chainchat.bench import (
    BenchRecord,
    bench_decrypt,
    bench_encrypt,
    bench_string,
    fit_line,
    render_csv,
    write_csv,
)


class TestInputs:
    def test_exact_length_ascii(self):
        for n in (0, 1, 10, 10_000):
            s = bench_string(n)
            assert len(s) == n
            assert s.isascii()

    def test_deterministic_across_calls(self):
        assert bench_string(500) == bench_string(500)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bench_string(-1)


class TestEncrypt:
    def test_records_shape(self):
        records = bench_encrypt([0, 100, 1_000], repetitions=5)
        assert [r.input_length for r in records] == [0, 100, 1_000]
        for r in records:
            assert r.repetitions == 5
            assert r.encrypt_us > 0
            assert r.mac_us > 0
            assert r.total_encrypt_us > 0

    def test_zero_length_valid(self):
        (record,) = bench_encrypt([0], repetitions=3)
        assert record.total_encrypt_us > 0

    def test_empty_lengths_rejected(self):
        with pytest.raises(ValueError):
            bench_encrypt([])

    def test_repeat_runs_within_3x(self):
        # stability sanity: medians of identical runs stay comparable
        first = bench_encrypt([2_000], repetitions=30)[0].total_encrypt_us
        second = bench_encrypt([2_000], repetitions=30)[0].total_encrypt_us
        ratio = max(first, second) / min(first, second)
        assert ratio < 3.0

    def test_total_dominates_components_within_noise(self):
        (record,) = bench_encrypt([4_000], repetitions=50)
        floor = 0.5 * max(record.encrypt_us, record.mac_us)
        assert record.total_encrypt_us >= floor


class TestDecrypt:
    def test_records_shape(self):
        records = bench_decrypt([0, 100], repetitions=5)
        for r in records:
            assert r.decrypt_us > 0
            assert r.mac_verify_us > 0
            assert r.total_decrypt_us > 0

    def test_single_length_single_rep(self):
        records = bench_decrypt([64], repetitions=1)
        assert len(records) == 1
        assert records[0].repetitions == 1



class TestTimesSealSteps:
    """The bench times the very step functions that seal and unseal call:
    each step runs once timed on its own and once inside the whole call."""

    STEPS = ("cbc_encrypt", "mac_tag", "mac_verify", "cbc_decrypt")

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = collections.Counter()
        for name in self.STEPS:
            step = getattr(crypto, name)

            def counted(*args, _name=name, _step=step):
                counts[_name] += 1
                return _step(*args)

            monkeypatch.setattr(crypto, name, counted)
        return counts

    def test_encrypt_steps(self, calls):
        bench_encrypt([100], repetitions=5)
        assert calls == {"cbc_encrypt": 10, "mac_tag": 10}

    def test_decrypt_steps(self, calls):
        bench_decrypt([100], repetitions=5)
        assert calls["mac_verify"] == 10
        assert calls["cbc_decrypt"] == 10


class TestFit:
    def test_perfect_line(self):
        slope, r2 = fit_line([(0, 1.0), (1, 2.0), (2, 3.0)])
        assert slope == pytest.approx(1.0)
        assert r2 == pytest.approx(1.0)

    def test_flat_line(self):
        slope, r2 = fit_line([(0, 5.0), (1, 5.0), (2, 5.0)])
        assert slope == pytest.approx(0.0)
        assert r2 == pytest.approx(0.0)

    def test_degenerate(self):
        assert fit_line([(0, 1.0)]) == (0.0, 0.0)


class TestCsv:
    def test_metadata_and_schema(self, tmp_path):
        records = bench_encrypt([0, 250, 500], repetitions=3)
        path = tmp_path / "enc.csv"
        write_csv(records, "encrypt", str(path))
        lines = path.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# fit_slope_us_per_char=") for l in meta)
        assert any(l.startswith("# fit_r_squared=") for l in meta)
        assert any(l.startswith("# repetitions=3") for l in meta)
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "length,encrypt_us,mac_us,total_us"
        assert len(lines) == header_idx + 1 + 3

    def test_decrypt_schema(self):
        records = bench_decrypt([0, 100], repetitions=2)
        text = render_csv(records, "decrypt")
        assert "length,decrypt_us,mac_verify_us,total_us" in text

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            render_csv([BenchRecord(0, 1)], "sideways")


def test_perfbench_tracer_finds_every_name_it_wraps():
    """perfbench/tracing.py wraps chainchat functions and methods by name, so
    removing or renaming one breaks ``perfbench/run.py --trace 1``. The wraps
    replace module attributes, so they run in a child process."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    package_root = Path(chainchat.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(perfbench), str(package_root)]))
    script = ("import tracing\n"
              "tracer = tracing.Tracer()\n"
              "tracing.instrument_client(tracer)\n"
              "tracing.instrument_server(tracer)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
