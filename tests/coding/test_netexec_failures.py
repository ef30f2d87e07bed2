"""Worker death and the retry → reassign ladder of the socket pool.

The contract under test: a worker that dies mid-SUBMIT (or is unreachable
to begin with) costs the batch *nothing* — its shard is reassigned to a
live worker and the merged output stays byte-identical to serial — and
every switch is accounted exactly once in ``worker_failures`` /
``reassignments``.  Deterministic job failures are never reassigned, and
only a fully dead pool raises :class:`WorkerUnavailableError`.
"""

import socket

import numpy as np
import pytest

from repro.archive.backend import RetryPolicy
from repro.coding import compress_frames
from repro.coding.netexec import (
    RemoteWorkerError,
    SocketWorker,
    WorkerPool,
    WorkerUnavailableError,
    local_worker_pool,
)
from repro.coding.spec import CodecSpec
from repro.imaging.phantoms import random_image, shepp_logan

SPEC = CodecSpec(codec="s-transform", scales=2)

#: No backoff sleeps: failures in these tests are permanent, waiting on
#: them only slows the suite down.
FAST_RETRY = RetryPolicy.none()


def batch_frames(count=8):
    return [
        shepp_logan(32) if i % 2 else random_image(32, seed=i) for i in range(count)
    ]


def free_address():
    """An address nothing listens on (bound once, then released)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"127.0.0.1:{port}"


def killing_worker(node="victim"):
    """A worker whose *first* compress SUBMIT kills it mid-call: the
    connection drops before any RESULT, exactly like a crashed process."""
    worker = SocketWorker(node=node)

    def die_then_serve(payload, _inner=worker.handlers["compress"]):
        if not worker.jobs_done and not getattr(worker, "_died", False):
            worker._died = True
            worker.close()  # drops every connection before a reply exists
            raise OSError("simulated worker crash mid-SUBMIT")
        return _inner(payload)

    worker.handlers["compress"] = die_then_serve
    return worker


class TestMidSubmitDeath:
    def test_shard_reassigned_and_byte_identical(self):
        frames = batch_frames(8)
        serial = compress_frames(frames, spec=SPEC)
        victim = killing_worker()
        survivor = SocketWorker(node="survivor")
        with victim, survivor:
            pool = WorkerPool([victim.address, survivor.address], retry=FAST_RETRY)
            batch = compress_frames(frames, spec=SPEC, workers=pool)
            # Byte identity survives the crash: the dead worker's shard was
            # re-run on the survivor, and the merge restored frame order.
            for a, b in zip(serial.streams, batch.streams):
                assert a.chunks == b.chunks
            # Exactly-once accounting: one worker died, one shard moved.
            assert pool.worker_failures == 1
            assert pool.reassignments == 1
            assert pool.live_indices() == [1]
            assert pool.submits == 2  # both shards completed
            assert victim.jobs_done == 0
            assert survivor.jobs_done == 2

    def test_subprocess_sigkill_mid_batch(self):
        """The real thing: SIGKILL a worker *process* between batches and
        let the ladder move its shard."""
        frames = batch_frames(6)
        serial = compress_frames(frames, spec=SPEC)
        with local_worker_pool(2, nodes=["k0", "k1"]) as addresses:
            from repro.coding.netexec import start_local_worker  # noqa: F401

            pool = WorkerPool(addresses, retry=FAST_RETRY)
            with pool:
                pool.ensure_connected()
                assert pool.live_count == 2
                # Kill worker 0 under the pool's feet; its connection is
                # already open, so the death is discovered mid-call.
                victim_pid = pool._clients[0].worker_pid
                import os
                import signal

                os.kill(victim_pid, signal.SIGKILL)
                batch = compress_frames(frames, spec=SPEC, workers=pool)
            for a, b in zip(serial.streams, batch.streams):
                assert a.chunks == b.chunks
            assert pool.worker_failures == 1
            assert pool.reassignments == 1

    def test_death_with_no_survivor_raises(self):
        victim = killing_worker()
        with victim:
            pool = WorkerPool([victim.address], retry=FAST_RETRY)
            with pytest.raises(WorkerUnavailableError, match="no live workers"):
                compress_frames(batch_frames(4), spec=SPEC, workers=pool)
            assert pool.worker_failures == 1
            assert pool.reassignments == 0  # nowhere to move the shard


class TestConnectLadder:
    def test_unreachable_worker_is_skipped_at_connect(self):
        frames = batch_frames(4)
        serial = compress_frames(frames, spec=SPEC)
        with SocketWorker(node="only") as worker:
            pool = WorkerPool([free_address(), worker.address], retry=FAST_RETRY)
            batch = compress_frames(frames, spec=SPEC, workers=pool)
            for a, b in zip(serial.streams, batch.streams):
                assert a.chunks == b.chunks
            # Failing at connect time is a worker failure but not a
            # reassignment: no shard had been placed on it yet.
            assert pool.worker_failures == 1
            assert pool.reassignments == 0
            assert batch.stats.workers == 1

    def test_all_workers_unreachable(self):
        pool = WorkerPool([free_address(), free_address()], retry=FAST_RETRY)
        with pytest.raises(WorkerUnavailableError, match="no live workers"):
            pool.ensure_connected()
        assert pool.worker_failures == 2
        with pytest.raises(WorkerUnavailableError):
            pool.call("echo", 1)

    def test_retry_absorbs_transient_connect_failure(self):
        """The PR 6 ladder in action: the first connect attempts fail, a
        later one succeeds, and nothing is marked dead."""
        with SocketWorker(node="late") as worker:
            flaky = {"failures_left": 2}
            real_connection = socket.create_connection

            def flaky_connection(address, *args, **kwargs):
                if flaky["failures_left"] > 0:
                    flaky["failures_left"] -= 1
                    raise ConnectionRefusedError("not up yet")
                return real_connection(address, *args, **kwargs)

            pool = WorkerPool(
                [worker.address],
                retry=RetryPolicy(attempts=3, base_delay=0.0, max_delay=0.0),
            )
            socket.create_connection = flaky_connection
            try:
                assert pool.ensure_connected() == [0]
            finally:
                socket.create_connection = real_connection
            assert pool.worker_failures == 0
            assert pool.call("echo", 5) == (5, "late")


class TestDeterministicFailures:
    def test_job_error_is_not_reassigned(self):
        """A job that fails because of its *input* fails everywhere;
        moving it to another worker would just fail again."""
        with SocketWorker(node="a") as a, SocketWorker(node="b") as b:
            pool = WorkerPool([a.address, b.address], retry=FAST_RETRY)
            with pytest.raises(RemoteWorkerError):
                pool.call("compress", {"spec": SPEC, "items": [object()]})
            assert pool.reassignments == 0
            assert pool.worker_failures == 0
            assert pool.live_count == 2
            # Exactly one worker ever saw the poisoned job.
            assert a.jobs_done == b.jobs_done == 0

    def test_executor_propagates_job_errors(self):
        bad = [np.full((32, 32), 1 << 14, dtype=np.int64)]  # outside 12-bit range
        with SocketWorker(node="x") as worker:
            with pytest.raises(RemoteWorkerError, match="range"):
                compress_frames(bad * 4, spec=SPEC, workers=worker.address)
