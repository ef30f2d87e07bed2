"""Self-test of the archive serving benchmark's harness.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from client import Connection, Tally, get, pixels_equal  # noqa: E402
from repro.archive.server import frame_to_wire  # noqa: E402

FRAME = np.arange(64, dtype=np.int64).reshape(8, 8)


async def _fake_server(reader, writer):
    """Answers /ok correctly, /flip with one byte flipped, /short with a
    truncated body and /busy with a 503."""
    dtype, shape, body = frame_to_wire(FRAME)
    while True:
        line = await reader.readline()
        if not line:
            break
        while (await reader.readline()) not in (b"\r\n", b"\n"):
            pass
        path = line.split()[1].decode()
        status, payload, declared = 200, body, len(body)
        if path == "/flip":
            flipped = bytearray(body)
            flipped[17] ^= 0x01
            payload = bytes(flipped)
        elif path == "/short":
            payload = body[:-5]
        elif path == "/busy":
            status, payload = 503, b'{"error": "busy"}'
            declared = len(payload)
        head = (
            f"HTTP/1.1 {status} X\r\nContent-Length: {declared}\r\n"
            f"X-Frame-Shape: {shape[0]}x{shape[1]}\r\nX-Frame-Dtype: {dtype}\r\n\r\n"
        )
        writer.write(head.encode() + payload)
        await writer.drain()
        if path == "/short":
            break
    writer.close()


def test_flipped_byte_short_body_and_503_each_count_as_failed():
    async def scenario():
        server = await asyncio.start_server(_fake_server, "127.0.0.1", 0)
        address = server.sockets[0].getsockname()[:2]
        tally = Tally()
        connection = Connection(address)
        try:
            outcomes = []
            for path in ("/ok", "/flip", "/short", "/busy", "/ok"):
                response = await connection.request(get(path), 200, pixels_equal(FRAME), tally)
                outcomes.append(response is not None)
        finally:
            await connection.close()
            server.close()
            await server.wait_closed()
        return outcomes, tally

    outcomes, tally = asyncio.run(scenario())
    assert outcomes == [True, False, False, False, True]
    assert (tally.attempted, tally.failed) == (5, 3)
    assert len(tally.gets) == 2


def _digests(hash_seed: str, seed: int) -> str:
    code = (
        "import corpus\n"
        f"print(' '.join(corpus.workload_digest(spec, {seed}) for spec in corpus.WORKLOADS.values()))"
    )
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    env["PYTHONPATH"] = os.pathsep.join([str(BENCH), str(BENCH.parent / "src")])
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        cwd=str(BENCH), timeout=300, check=True,
    )
    return result.stdout.strip()


def test_same_seed_gives_identical_corpora_and_request_sequences():
    first = _digests("1", seed=7)
    assert first == _digests("2", seed=7)
    assert first != _digests("1", seed=8)
