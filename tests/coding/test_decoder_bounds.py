"""Hostile entropy streams: the fast decoders bound their work by the input.

A header count the payload cannot possibly hold must raise a typed error
before anything count-sized is allocated.  Each hostile case runs in a
child process under an ``RLIMIT_AS`` address-space cap, so a regression
to an unbounded allocation fails the test instead of exhausting the
machine, and the decode itself must finish inside a one-second budget.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.coding import huffman as huffman_module
from repro.coding.huffman import HuffmanCode, huffman_decode, huffman_encode

pytest.importorskip("resource")  # RLIMIT_AS needs a POSIX host

#: Address-space cap of the child process (bytes).
ADDRESS_SPACE_CAP = 2 << 30
#: Budget for the hostile decode call itself (seconds).
DECODE_BUDGET_S = 1.0
#: Wall-clock limit of the whole child (interpreter + numpy import + decode).
CHILD_TIMEOUT_S = 60

SRC = Path(__file__).resolve().parents[2] / "src"


def run_capped(setup: str, call: str) -> list:
    """Run ``call`` after ``setup`` in a capped child; return its report.

    The report is ``[outcome, seconds]``: the raised exception's type name
    (or ``"returned"``) and the time ``call`` alone took.
    """
    script = "\n".join(
        [
            "import resource, time",
            f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE_CAP},) * 2)",
            textwrap.dedent(setup),
            "began = time.perf_counter()",
            "try:",
            f"    {call}",
            "except Exception as exc:",
            "    outcome = type(exc).__name__",
            "else:",
            "    outcome = 'returned'",
            "print(outcome, time.perf_counter() - began)",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


class TestRiceBound:
    def test_hostile_count_raises_fast_under_cap(self):
        # k = 3, count = 2**32 - 1, then 16 payload bytes: the measured
        # repro that used to burn ~45 s and then ask numpy for 32 GiB.
        outcome, seconds = run_capped(
            "from repro.coding.rice import rice_decode_array",
            'rice_decode_array(bytes([3]) + b"\\xff" * 4 + b"\\0" * 16)',
        )
        assert outcome == "EOFError"
        assert float(seconds) < DECODE_BUDGET_S

    @pytest.mark.parametrize("k", [0, 4, 6, 13, 30])
    def test_count_bound_is_exact_for_valid_streams(self, k):
        from repro.coding.rice import rice_decode_array, rice_encode

        # All-zero symbols: every code is exactly k + 1 bits, so 64 of
        # them fill whole bytes and the stream sits right at the
        # count * (k + 1) bound, on both remainder paths (bit planes below
        # k = 6, 64-bit windows from there).
        stream = rice_encode(np.zeros(64, dtype=np.int64), k=k)
        assert rice_decode_array(stream).tolist() == [0] * 64
        header = bytes([k]) + (65).to_bytes(4, "big")
        with pytest.raises(EOFError):
            rice_decode_array(header + stream[5:])


class TestHuffmanBound:
    def test_hostile_count_on_valid_table_raises_fast_under_cap(self):
        setup = """
            from repro.coding.bitstream import BitWriter
            from repro.coding.huffman import HuffmanCode, huffman_decode

            writer = BitWriter()
            HuffmanCode.from_symbols([0, 1, 1, 2, 2, 2, 3]).write_table(writer)
            writer.write_uint(0xFFFFFFFF, 32)
            writer.write_uint(0x5A5A5A5A, 32)
            data = writer.getvalue()
        """
        outcome, seconds = run_capped(setup, "huffman_decode(data)")
        assert outcome == "EOFError"
        assert float(seconds) < DECODE_BUDGET_S

    def test_wide_codes_decode_through_scalar_fallback(self, monkeypatch):
        # A 40-symbol alphabet with Fibonacci-skewed counts capped at 5000
        # builds 21-bit codes, past the 16-bit prefix-table cap.
        counts = [1, 1]
        while len(counts) < 40:
            counts.append(counts[-1] + counts[-2])
        counts = [min(count, 5000) for count in counts]
        symbols = np.random.default_rng(3).permutation(
            np.repeat(np.arange(40), counts)
        )
        assert max(HuffmanCode.from_symbols(symbols).lengths.values()) == 21
        encoded = huffman_encode(symbols)
        calls = []
        scalar = huffman_module.huffman_decode_scalar

        def counting_scalar(data):
            calls.append(len(data))
            return scalar(data)

        monkeypatch.setattr(huffman_module, "huffman_decode_scalar", counting_scalar)
        assert huffman_decode(encoded) == symbols.tolist()
        assert calls == [len(encoded)]
