"""HTTP serving benchmark: many concurrent clients over localhost.

Not a paper table: this is the perf claim behind
:mod:`repro.archive.server` — fronting a replicated sharded set with
per-shard worker pools and a hot-frame cache must sustain many concurrent
clients. 16 synthetic asyncio clients hammer ``GET /frames/<name>``
(mixed with ``Range:`` slice reads and ``/stats`` polls) against a
4-shard replicated set; the benchmark records sustained requests/s and
p50/p99 latency, proves every response byte-identical to a direct reader
decode (correctness half, always enforced), and appends the numbers to
``benchmarks/reports/bench_archive_server.json`` so the trajectory is
diffable across PRs, like ``bench_archive_sharded``.

Throughput gates are only enforced when the host exposes >= 4 usable
CPUs (the event loop, the shard workers and 16 clients all share the
host); narrower hosts still run the correctness half and the report
records why the gate was waived.
"""

import asyncio
import json
import statistics
import time

import numpy as np
import pytest

from _gates import cpu_throughput_gate
from repro.archive import ShardedArchiveReader
from repro.archive.replication import ReplicatedShardSet
from repro.archive.server import ArchiveHTTPServer, ArchiveService
from repro.coding.spec import CodecSpec
from repro.imaging import ct_slice_series

pytestmark = pytest.mark.archive

FRAME_COUNT = 32
FRAME_SIZE = 64
SHARDS = 4
CLIENTS = 16
REQUESTS_PER_CLIENT = 24
CACHE_BYTES = 32 << 20
#: Modest floor: even a 1-CPU container sustains far more over loopback;
#: the gate exists to catch order-of-magnitude serving regressions.
MIN_REQUESTS_PER_S = 200.0


def _names(count):
    return [f"slice_{i:03d}" for i in range(count)]


async def _client(address, names, rounds, latencies):
    """One synthetic client: full GETs, a slice read and a stats poll."""
    reader, writer = await asyncio.open_connection(*address)

    async def request(raw):
        began = time.perf_counter()
        writer.write(raw)
        await writer.drain()
        status_line = await reader.readline()
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        body = await reader.readexactly(int(headers.get("content-length", 0)))
        latencies.append(time.perf_counter() - began)
        return int(status_line.split()[1]), headers, body

    served = {}
    try:
        for round_no in range(rounds):
            name = names[round_no % len(names)]
            status, headers, body = await request(
                f"GET /frames/{name} HTTP/1.1\r\n\r\n".encode()
            )
            assert status == 200, status
            shape = tuple(int(s) for s in headers["x-frame-shape"].split("x"))
            served[name] = np.frombuffer(body, dtype=headers["x-frame-dtype"]).reshape(shape)
            if round_no % 8 == 3:
                status, _, _ = await request(
                    f"GET /frames/{name} HTTP/1.1\r\nRange: bytes=0-63\r\n\r\n".encode()
                )
                assert status == 206, status
            if round_no % 8 == 7:
                status, _, _ = await request(b"GET /stats HTTP/1.1\r\n\r\n")
                assert status == 200, status
    finally:
        writer.close()
    return served


def test_server_sustained_concurrent_load(tmp_path, save_json_record):
    frames = ct_slice_series(count=FRAME_COUNT, size=FRAME_SIZE, seed=20260808)
    names = _names(FRAME_COUNT)
    path = tmp_path / "served.dwts"
    with ReplicatedShardSet.create(
        path,
        spec=CodecSpec(scales=2),
        shards=SHARDS,
        replicas=1,
    ) as writer:
        writer.append_batch(frames, names=names)
    with ShardedArchiveReader(path) as direct:
        expected = {name: direct.decode(name) for name in names}
        payload_layout = direct.manifest.layout
    gate = cpu_throughput_gate(
        "the event loop, shard workers and 16 clients all contend for them"
    )
    latencies = []

    async def scenario():
        service = ArchiveService(path, cache_bytes=CACHE_BYTES)
        server = ArchiveHTTPServer(service, port=0)
        await server.start()
        try:
            # Offset each client into the name list so the first wave
            # fans out across shards instead of stampeding one frame.
            began = time.perf_counter()
            results = await asyncio.gather(
                *(
                    _client(
                        server.address,
                        names[i % FRAME_COUNT:] + names[: i % FRAME_COUNT],
                        REQUESTS_PER_CLIENT,
                        latencies,
                    )
                    for i in range(CLIENTS)
                )
            )
            elapsed = time.perf_counter() - began
            stats = service.stats()
            return results, elapsed, stats
        finally:
            await server.close()

    results, elapsed, stats = asyncio.run(asyncio.wait_for(scenario(), timeout=300))

    # Correctness half (always enforced): every byte every client decoded
    # is identical to the direct reader's decode of the same frame.
    for served in results:
        for name, frame in served.items():
            assert np.array_equal(frame, expected[name]), name

    total_requests = len(latencies)
    requests_per_s = total_requests / elapsed
    ordered = sorted(latencies)
    p50 = statistics.median(ordered)
    p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
    record = {
        "frame_count": FRAME_COUNT,
        "frame_size": FRAME_SIZE,
        "payload_layout": payload_layout,
        "shards": SHARDS,
        "replicas": 1,
        "clients": CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "total_requests": total_requests,
        "usable_cpus": gate.usable_cpus,
        "byte_identical": True,
        "elapsed_s": elapsed,
        "requests_per_s": requests_per_s,
        "latency_p50_ms": p50 * 1e3,
        "latency_p99_ms": p99 * 1e3,
        "cache": stats["cache"],
        "reader": stats["reader"],
        "queue_peaks": stats["queues"]["peak_depths"],
        "min_requests_per_s": MIN_REQUESTS_PER_S,
        "throughput_gate": gate.record,
    }
    save_json_record("bench_archive_server", record)

    # The cache must have done real work under this access pattern.
    assert stats["cache"]["hits"] > 0
    assert stats["reader"]["failovers" if "failovers" in stats["reader"] else "retries"] == 0

    if gate.active:
        assert requests_per_s >= MIN_REQUESTS_PER_S, (
            f"served only {requests_per_s:.0f} req/s "
            f"(p99 {p99 * 1e3:.1f} ms) under {CLIENTS} clients"
        )
