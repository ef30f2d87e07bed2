"""Distributed socket-pool execution: byte-identity and the shard seam.

The contract under test mirrors ``test_executor.py`` over TCP: sharding a
batch across socket workers changes *nothing* about the streams — both
codecs, both entropy engine tiers (fast/scalar), software and
accelerator transforms, at 1/2/4 workers — and the ``workers="host:port"``
seam reaches the socket pool from every existing call site signature.
"""

import json
import os
import socket
import time

import numpy as np
import pytest

from repro.coding import compress_frames, decompress_frames
from repro.coding.executor import default_workers, run_shards
from repro.coding.netexec import (
    MSG_HEARTBEAT,
    MSG_HELLO,
    PROTOCOL_VERSION,
    SocketWorker,
    WorkerClient,
    WorkerPool,
    local_worker_pool,
    main,
    parse_worker_addresses,
    recv_message,
    send_message,
)
from repro.coding.spec import CodecSpec
from repro.imaging.mr import mr_slice
from repro.imaging.phantoms import (
    checkerboard,
    gradient_image,
    random_image,
    shepp_logan,
)


def mixed_batch_32():
    """32 mixed-size, mixed-content square frames (accelerator-compatible)."""
    makers = [
        lambda i: shepp_logan(32),
        lambda i: random_image(16, seed=i),
        lambda i: gradient_image(64),
        lambda i: checkerboard(48, tile=8),
        lambda i: mr_slice(32),
        lambda i: random_image(64, seed=100 + i),
        lambda i: shepp_logan(48),
        lambda i: random_image(32, seed=200 + i),
    ]
    return [makers[i % len(makers)](i) for i in range(32)]


#: The acceptance matrix: both codecs x {fast, scalar} entropy tiers
#: x software + accelerator transforms.
CONFIGS = [
    CodecSpec(codec="s-transform", scales=3, engine="fast"),
    CodecSpec(codec="s-transform", scales=3, engine="scalar"),
    CodecSpec(codec="coefficient", scales=3, engine="fast"),
    CodecSpec(codec="coefficient", scales=3, engine="scalar"),
    CodecSpec(codec="coefficient", scales=3, engine="fast", transform="accelerator"),
    CodecSpec(
        codec="coefficient",
        scales=2,
        engine="fast",
        transform="accelerator",
        transform_engine="scalar",
    ),
]


def _chunks(stream):
    return stream.chunks


@pytest.fixture(scope="module")
def cluster():
    """Four named in-process socket workers, shared by the module."""
    workers = [SocketWorker(node=f"node{i}") for i in range(4)]
    for worker in workers:
        worker.start()
    yield workers
    for worker in workers:
        worker.close()


@pytest.fixture(scope="module")
def addresses(cluster):
    return [worker.address for worker in cluster]


class TestByteIdentity:
    @pytest.mark.parametrize(
        "spec",
        CONFIGS,
        ids=lambda s: f"{s.codec}-{s.engine}-{s.transform[:5]}-{s.transform_engine}",
    )
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_socket_pool_equals_serial(self, addresses, spec, workers):
        # The scalar tiers are the deliberately slow bit-by-bit references;
        # a smaller batch keeps the matrix fast without losing coverage.
        frames = mixed_batch_32()
        if spec.engine == "scalar" or spec.transform_engine == "scalar":
            frames = frames[:8]
        pool = ",".join(addresses[:workers])
        serial = compress_frames(frames, spec=spec)
        distributed = compress_frames(frames, spec=spec, workers=pool)
        assert len(distributed.streams) == len(frames)
        for a, b in zip(serial.streams, distributed.streams):
            assert _chunks(a) == _chunks(b)
        assert distributed.stats.frames == serial.stats.frames
        assert distributed.stats.pixels == serial.stats.pixels
        assert distributed.stats.compressed_bytes == serial.stats.compressed_bytes
        assert set(distributed.stats.stage_seconds) == set(serial.stats.stage_seconds)
        assert distributed.stats.workers == min(workers, len(frames))
        assert distributed.stats.wall_seconds > 0.0
        if spec.transform == "accelerator":
            # Per-frame run reports come back in frame order, like serial.
            assert [r.macrocycles for r in distributed.stats.accelerator_reports] == [
                r.macrocycles for r in serial.stats.accelerator_reports
            ]
        # And the decode direction reconstructs bit for bit through the pool.
        decoded, stats = decompress_frames(distributed, workers=pool)
        for original, reconstructed in zip(frames, decoded):
            assert np.array_equal(original, reconstructed)
        assert stats.frames == len(frames)

    def test_distributed_equals_fork_pool(self, addresses):
        """Transport does not matter: socket shards == fork shards == serial."""
        frames = mixed_batch_32()
        spec = CodecSpec(codec="s-transform", scales=3)
        fork = compress_frames(frames, spec=spec, workers=2)
        sockets = compress_frames(frames, spec=spec, workers=",".join(addresses[:2]))
        for a, b in zip(fork.streams, sockets.streams):
            assert _chunks(a) == _chunks(b)


class TestExecutorSeam:
    def test_run_shards_classifies_workers(self, monkeypatch):
        """Integers (Python or numpy) mean the local pool — 1 serial, more
        a fork pool, ``None`` the default width — and results come back in
        job order."""
        jobs = ["a", "b", "c"]
        assert run_shards("echo", jobs, 1).transport == "serial"
        for workers in (2, 4, np.int64(2)):
            run = run_shards("echo", jobs, workers)
            assert (run.transport, run.results) == ("fork", jobs)
            assert run.workers == min(3, int(workers))
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert run_shards("echo", jobs, None).transport == "fork"
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert run_shards("echo", jobs, None).transport == "serial"

    def test_run_shards_resolves_socket_transport(self, addresses):
        """Address strings and lists mean socket workers; a WorkerPool is
        borrowed — used as is and left connected."""
        jobs = ["a", "b", "c"]
        for workers in (",".join(addresses[:2]), addresses[:2]):
            run = run_shards("echo", jobs, workers)
            assert (run.transport, run.results, run.workers) == ("socket", jobs, 2)
        with WorkerPool(addresses[:2]) as pool:
            run = run_shards("echo", jobs, pool)
            assert (run.transport, run.results, run.workers) == ("socket", jobs, 2)
            assert pool.submits == 3
            assert all(client.connected for client in pool._clients.values())

    def test_borrowed_pool_persists_connections(self, addresses):
        frames = [shepp_logan(32), random_image(32, seed=3)]
        with WorkerPool(addresses[:2]) as pool:
            compress_frames(frames, spec=CodecSpec(scales=2), workers=pool)
            assert pool.live_count == 2
            assert all(client.connected for client in pool._clients.values())
            compress_frames(frames, spec=CodecSpec(scales=2), workers=pool)
            assert pool.submits == 4  # two batches x two shards, same pool

    def test_owned_pool_disconnects_after_batch(self, addresses, monkeypatch):
        left_open = []
        disconnect = WorkerPool.disconnect

        def spy(pool):
            disconnect(pool)
            left_open.append(dict(pool._clients))

        monkeypatch.setattr(WorkerPool, "disconnect", spy)
        compress_frames(
            [shepp_logan(32)] * 4,
            spec=CodecSpec(scales=2),
            workers=",".join(addresses[:2]),
        )
        assert left_open == [{}]  # the owned pool closed, no leaked sockets

    def test_empty_batch_degenerates_to_serial(self, addresses):
        batch = compress_frames([], spec=CodecSpec(scales=2), workers=addresses[0])
        assert batch.streams == []

    def test_legacy_keywords_rejected(self, addresses):
        with pytest.raises(TypeError):
            compress_frames([shepp_logan(32)], codec="s-transform", workers=addresses[0])

    def test_worker_nodes_registered(self, addresses, cluster):
        with WorkerPool(addresses) as pool:
            pool.ensure_connected()
            nodes = pool.nodes()
        assert sorted(nodes) == ["node0", "node1", "node2", "node3"]
        assert nodes["node2"] == cluster[2].address


class TestWorkerRpc:
    def test_hello_reports_capabilities(self, addresses):
        with WorkerClient(addresses[0]) as client:
            assert client.node == "node0"
            assert client.worker_pid == os.getpid()
            for kind in ("compress", "decompress", "verify_copy", "verify_frames"):
                assert kind in client.capabilities

    def test_echo_roundtrip(self, addresses):
        payload = {"arr": np.arange(7), "text": "x" * 1000}
        with WorkerClient(addresses[0]) as client:
            result = client.call("echo", payload)
        assert np.array_equal(result["arr"], payload["arr"])
        assert result["text"] == payload["text"]

    def test_heartbeat_counters(self, cluster):
        with SocketWorker(node="beat") as worker:
            with WorkerClient(worker.address) as client:
                before = client.heartbeat()
                client.call("echo", 1)
                client.call("echo", 2)
                after = client.heartbeat()
        assert before["node"] == after["node"] == "beat"
        assert after["jobs_done"] == before["jobs_done"] + 2
        assert after["jobs_by_kind"]["echo"] == 2
        assert after["uptime_s"] >= 0.0

    def test_shutdown_drains_worker(self):
        worker = SocketWorker(node="drain")
        worker.start()
        with WorkerClient(worker.address) as client:
            status = client.shutdown()
        assert status["node"] == "drain"
        worker._closing.wait(timeout=5)
        assert worker._closing.is_set()
        # The listening socket closes in the worker's connection thread just
        # after SHUTDOWN_OK is sent; poll until the port actually refuses.
        deadline = time.monotonic() + 5
        refused = False
        while time.monotonic() < deadline and not refused:
            try:
                probe = socket.create_connection((worker.host, worker.port), timeout=0.5)
                probe.close()
                time.sleep(0.02)
            except OSError:
                refused = True
        assert refused

    def test_framing_roundtrip(self):
        left, right = socket.socketpair()
        try:
            send_message(left, MSG_HEARTBEAT, b"\x00\x01payload")
            assert recv_message(right) == (MSG_HEARTBEAT, b"\x00\x01payload")
            send_message(left, MSG_HELLO, b"")
            assert recv_message(right) == (MSG_HELLO, b"")
            left.close()
            assert recv_message(right) is None  # clean EOF at a boundary
        finally:
            right.close()


class TestAddressParsing:
    def test_forms(self):
        assert parse_worker_addresses("a:1,b:2") == [("a", 1), ("b", 2)]
        assert parse_worker_addresses(" a:1 , b:2 ") == [("a", 1), ("b", 2)]
        assert parse_worker_addresses(["a:1", ("b", 2)]) == [("a", 1), ("b", 2)]
        assert parse_worker_addresses("::1:9000") == [("::1", 9000)]

    @pytest.mark.parametrize("bad", ["", ",", "nohost", ":1", "a:banana"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_worker_addresses(bad)


class TestDefaultWorkersEnv:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_env_invalid_string(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            default_workers()

    def test_env_below_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError, match=">= 1"):
            default_workers()

    def test_env_unset_uses_cpus(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() >= 1


class TestWorkerProcesses:
    def test_subprocess_workers_end_to_end(self, capsys):
        """Real ``python -m repro.netexec`` workers: byte identity, node
        registration, and the ping CLI against a live process."""
        frames = mixed_batch_32()[:6]
        spec = CodecSpec(codec="s-transform", scales=2)
        serial = compress_frames(frames, spec=spec)
        with local_worker_pool(2, nodes=["proc0", "proc1"]) as addresses:
            pool = WorkerPool(addresses)
            with pool:
                distributed = compress_frames(frames, spec=spec, workers=pool)
                assert sorted(pool.nodes()) == ["proc0", "proc1"]
                pids = {
                    pool._clients[i].worker_pid for i in pool.live_indices()
                }
                assert os.getpid() not in pids  # genuinely out of process
            for a, b in zip(serial.streams, distributed.streams):
                assert _chunks(a) == _chunks(b)
            assert main(["ping", addresses[0]]) == 0
            status = json.loads(capsys.readouterr().out)
            assert status["node"] == "proc0"
            assert status["jobs_done"] >= 1

    def test_cli_shutdown(self, capsys):
        worker = SocketWorker(node="clidrain")
        worker.start()
        assert main(["shutdown", worker.address]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["node"] == "clidrain"
        worker._closing.wait(timeout=5)
        assert worker._closing.is_set()

    def test_cli_errors_on_dead_address(self, capsys):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["ping", f"127.0.0.1:{port}"]) == 1
        assert "error:" in capsys.readouterr().err
