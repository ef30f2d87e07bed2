"""Many threads, one ShardedArchiveReader: counters must never cross-talk."""

import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.archive import (
    Fault,
    FaultInjectionBackend,
    FileBackend,
    ReplicatedShardSet,
    RetryPolicy,
    ShardedArchiveReader,
    ShardedArchiveWriter,
)
from repro.archive.format import HEADER_SIZE
from repro.coding.spec import CodecSpec
from repro.imaging import ct_slice_series

pytestmark = pytest.mark.archive

THREADS = 8
READS_PER_THREAD = 24


def names_for(count):
    return [f"slice_{i:03d}" for i in range(count)]


@pytest.fixture()
def busy_set(tmp_path):
    frames = ct_slice_series(count=16, size=32, seed=13)
    path = tmp_path / "busy.dwts"
    with ReplicatedShardSet.create(
        path, spec=CodecSpec(scales=2), shards=4, replicas=1
    ) as writer:
        writer.append_batch(frames, names=names_for(16))
    return path, frames


def hammer(reader, frames, seed):
    """One thread's workload: seeded random routed reads, each validated."""
    rng = random.Random(seed)
    names = names_for(16)
    done = []
    for _ in range(READS_PER_THREAD):
        position = rng.randrange(len(names))
        image = reader.decode(names[position])
        assert np.array_equal(image, frames[position]), names[position]
        done.append(position)
    return done


class TestConcurrentReaders:
    def test_clean_set_counters_add_up(self, busy_set):
        path, frames = busy_set
        with ShardedArchiveReader(path) as reader:
            expected_lengths = {e.name: e.length for e in reader.frames}
        with ShardedArchiveReader(path) as reader:
            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                results = list(
                    pool.map(
                        lambda seed: hammer(reader, frames, seed), range(THREADS)
                    )
                )
            # bytes_read is the exact sum of every performed read's payload
            # length — interleaved threads never lose or double-count.
            names = names_for(16)
            expected = sum(
                expected_lengths[names[position]]
                for thread in results
                for position in thread
            )
            assert reader.bytes_read == expected
            assert reader.failovers == 0
            assert reader.retries == 0
            touched = {reader.router.route(n) for n in names}
            assert set(reader.opened_shards) == touched

    def test_failover_under_concurrency_is_exactly_once_per_shard(self, busy_set):
        """All threads hitting a damaged primary at once must produce ONE
        failover for that shard (compare-and-advance), not one per thread —
        and every read still returns correct pixels."""
        path, frames = busy_set
        with ShardedArchiveReader(path) as probe:
            victim_shard = probe.router.route("slice_000")
            victim = probe.copy_paths[victim_shard][0]
        data = bytearray(victim.read_bytes())
        data[HEADER_SIZE + 3] ^= 0x20  # payload rot on the primary
        victim.write_bytes(bytes(data))

        with ShardedArchiveReader(path) as reader:
            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                list(pool.map(lambda seed: hammer(reader, frames, seed), range(THREADS)))
            assert reader.failovers == 1
            assert reader.retries == 0

    def test_transient_faults_under_concurrency(self, busy_set):
        """Injected fail-then-succeed faults on every copy: retries absorb
        them (counted), no failover fires, reads stay correct."""
        path, frames = busy_set

        def flaky(path_):
            return FaultInjectionBackend(
                FileBackend(path_), faults=(Fault(kind="io-error", at_read=3, times=1),)
            )

        policy = RetryPolicy(attempts=3, base_delay=0.0, sleep=lambda s: None)
        with ShardedArchiveReader(path, retry=policy, backend_factory=flaky) as reader:
            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                list(pool.map(lambda seed: hammer(reader, frames, seed), range(THREADS)))
            touched = {reader.router.route(n) for n in names_for(16)}
            # One injected fault per opened copy backend, each absorbed.
            assert reader.retries == len(touched)
            assert reader.failovers == 0

    def test_unreplicated_set_is_thread_safe_too(self, tmp_path):
        frames = ct_slice_series(count=16, size=32, seed=13)
        path = tmp_path / "bare.dwts"
        with ShardedArchiveWriter.create(
            path, spec=CodecSpec(scales=2), shards=4
        ) as writer:
            writer.append_batch(frames, names=names_for(16))
        with ShardedArchiveReader(path) as reader:
            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                list(pool.map(lambda seed: hammer(reader, frames, seed), range(THREADS)))
            assert reader.failovers == 0
