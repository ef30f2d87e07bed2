"""Every transport of the shard-execution seam writes, verifies and decodes
a shard set identically.

``run_shards`` picks serial, fork or socket execution from the ``workers=``
value; whichever it picks, the archive layer must not be able to tell.
The matrix here — {serial, fork 2, socket 2} x {sharded, replicated} x
{frame-major, subband-major} — checks that an append writes the serial
bytes to every shard copy, that a deep verify reports what the serial
verify reports, that ``decode_all`` returns the source pixels, and that an
append with a frame that cannot be compressed leaves every copy untouched.
Around it: ``workers`` is validated the same way at every entry point, and
``PipelineStats.workers`` is ``min(jobs, width)`` on every transport.
"""

import numpy as np
import pytest

from repro.archive import (
    LAYOUT_FRAME_MAJOR,
    LAYOUT_SUBBAND_MAJOR,
    ArchiveReader,
    ArchiveWriter,
    HashRouter,
    ReplicatedShardSet,
    ShardedArchiveReader,
    ShardedArchiveWriter,
)
from repro.coding import compress_frames
from repro.coding.netexec import RemoteWorkerError, SocketWorker
from repro.coding.spec import CodecSpec
from repro.imaging import ct_slice_series

pytestmark = pytest.mark.archive

SPEC = CodecSpec(scales=2)
SHARDS = 3
FRAMES = ct_slice_series(count=8, size=32, seed=13)
NAMES = [f"slice_{i:03d}" for i in range(len(FRAMES))]
#: Outside the spec's 12-bit range: compressing it raises.
POISON = np.full((32, 32), 1 << 15, dtype=np.int64)
TRANSPORTS = ("serial", "fork", "socket")
LAYOUTS = (LAYOUT_FRAME_MAJOR, LAYOUT_SUBBAND_MAJOR)


def names_routed_to(shard, count, shards=SHARDS, prefix="extra"):
    """``count`` frame names the hash router sends to ``shard``."""
    router = HashRouter(shards)
    candidates = (f"{prefix}_{i:03d}" for i in range(10_000))
    names = [name for name in candidates if router.route(name) == shard]
    return names[:count]


@pytest.fixture(scope="module")
def cluster():
    """Three named in-process socket workers, shared by the module."""
    workers = [SocketWorker(node=f"node{i}") for i in range(3)]
    for worker in workers:
        worker.start()
    yield workers
    for worker in workers:
        worker.close()


@pytest.fixture(scope="module")
def addresses(cluster):
    return [worker.address for worker in cluster]


def workers_for(transport, addresses):
    return {"serial": 1, "fork": 2, "socket": ",".join(addresses[:2])}[transport]


def create_set(path, replicated, layout, workers=1, shards=SHARDS):
    if replicated:
        return ReplicatedShardSet.create(
            path, spec=SPEC, shards=shards, replicas=1, layout=layout, workers=workers
        )
    return ShardedArchiveWriter.create(
        path, spec=SPEC, shards=shards, layout=layout, workers=workers
    )


def copy_bytes(path):
    """Every shard copy of a set (primaries and replicas), keyed by the
    file name with the set's stem removed so two sets compare."""
    return {
        copy.name[len(path.stem):]: copy.read_bytes()
        for copy in sorted(path.parent.glob(f"{path.stem}.shard*"))
    }


def set_report(path, report):
    """A verify report with the set's stem removed from copy names."""
    report = dict(report)
    for key in ("failures", "shard_status"):
        report[key] = {
            name[len(path.stem):]: value for name, value in report[key].items()
        }
    return report


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Serially packed sets, one per (replicated, layout), built on demand."""
    root = tmp_path_factory.mktemp("reference")
    built = {}

    def get(replicated, layout):
        key = (replicated, layout)
        if key not in built:
            path = root / f"ref_{int(replicated)}_{layout}.dwts"
            with create_set(path, replicated, layout) as writer:
                writer.append_batch(FRAMES, names=NAMES)
            with ShardedArchiveReader(path) as reader:
                built[key] = (copy_bytes(path), set_report(path, reader.verify(deep=True)))
        return built[key]

    return get


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("replicated", [False, True], ids=["sharded", "replicated"])
@pytest.mark.parametrize("transport", TRANSPORTS)
class TestTransportMatrix:
    def test_append_verify_decode_match_serial(
        self, tmp_path, addresses, reference, transport, replicated, layout
    ):
        workers = workers_for(transport, addresses)
        serial_bytes, serial_report = reference(replicated, layout)
        path = tmp_path / "set.dwts"
        with create_set(path, replicated, layout) as writer:
            writer.append_batch(FRAMES, names=NAMES, workers=workers)
        assert copy_bytes(path) == serial_bytes
        with ShardedArchiveReader(path) as reader:
            report = reader.verify(deep=True, workers=workers)
            decoded, stats = reader.decode_all(workers=workers)
        assert set_report(path, report) == serial_report
        assert not report["failures"]
        assert stats.frames == len(FRAMES)
        # Set order is name-sorted and NAMES is sorted, so positions align.
        for image, frame in zip(decoded, FRAMES):
            assert np.array_equal(image, frame)

    def test_failed_append_leaves_every_copy_untouched(
        self, tmp_path, addresses, transport, replicated, layout
    ):
        path = tmp_path / "set.dwts"
        with create_set(path, replicated, layout) as writer:
            writer.append_batch(FRAMES[:4], names=NAMES[:4])
        before = copy_bytes(path)
        # The poison lands in the last shard, after healthy frames routed
        # to earlier shards — a write-as-you-go append would have written
        # those before failing.
        (poison_name,) = names_routed_to(SHARDS - 1, 1, prefix="poison")
        healthy = names_routed_to(0, 2) + names_routed_to(1, 2)
        with ShardedArchiveWriter.append(
            path, workers=workers_for(transport, addresses)
        ) as writer:
            with pytest.raises((ValueError, RemoteWorkerError), match="12-bit"):
                writer.append_batch(
                    [*FRAMES[4:8], POISON], names=[*healthy, poison_name]
                )
            assert copy_bytes(path) == before
        assert copy_bytes(path) == before
        with ShardedArchiveReader(path) as reader:
            assert reader.names() == NAMES[:4]
            assert not reader.verify(deep=True)["failures"]


# -- workers validation ------------------------------------------------------------------

def _compress(packed, workers):
    compress_frames(FRAMES[:2], spec=SPEC, workers=workers)


def _archive_verify(packed, workers):
    with ArchiveReader(packed["archive"]) as reader:
        reader.verify(workers=workers)


def _archive_decode_all(packed, workers):
    with ArchiveReader(packed["archive"]) as reader:
        reader.decode_all(workers=workers)


def _sharded_append(packed, workers):
    path = packed["root"] / f"append_{workers}.dwts"
    with ShardedArchiveWriter.create(
        path, spec=SPEC, shards=2, workers=workers, overwrite=True
    ) as writer:
        writer.append_batch(FRAMES[:2], names=NAMES[:2])


def _sharded_verify(packed, workers):
    with ShardedArchiveReader(packed["set"]) as reader:
        reader.verify(workers=workers)


def _sharded_decode_all(packed, workers):
    with ShardedArchiveReader(packed["set"]) as reader:
        reader.decode_all(workers=workers)


ENTRY_POINTS = {
    "compress_frames": _compress,
    "ArchiveReader.verify": _archive_verify,
    "ArchiveReader.decode_all": _archive_decode_all,
    "ShardedArchiveWriter.append_batch": _sharded_append,
    "ShardedArchiveReader.verify": _sharded_verify,
    "ShardedArchiveReader.decode_all": _sharded_decode_all,
}


@pytest.fixture(scope="module")
def packed(tmp_path_factory):
    root = tmp_path_factory.mktemp("packed")
    archive = root / "single.dwta"
    with ArchiveWriter.create(archive, spec=SPEC) as writer:
        writer.append_batch(FRAMES[:4], names=NAMES[:4])
    shard_set = root / "set.dwts"
    with ShardedArchiveWriter.create(shard_set, spec=SPEC, shards=2) as writer:
        writer.append_batch(FRAMES[:4], names=NAMES[:4])
    return {"root": root, "archive": archive, "set": shard_set}


@pytest.mark.parametrize("workers", [0, -1])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_non_positive_workers_rejected_everywhere(packed, entry, workers):
    """One check, one error: no entry point quietly runs serially."""
    with pytest.raises(ValueError, match="workers must be >= 1"):
        ENTRY_POINTS[entry](packed, workers)


# -- PipelineStats.workers ---------------------------------------------------------------

@pytest.mark.parametrize(
    "transport, two_shard, one_shard",
    [("serial", 1, 1), ("fork", 2, 1), ("socket", 2, 1)],
)
def test_append_stats_workers_is_jobs_capped_by_width(
    tmp_path, addresses, transport, two_shard, one_shard
):
    """``workers = min(jobs, width)`` on a 3-wide pool, whatever the
    transport: a 2-shard append reports 2, a 1-shard append reports 1."""
    workers = {"serial": 1, "fork": 3, "socket": ",".join(addresses[:3])}[transport]
    batches = [
        (two_shard, names_routed_to(0, 2, shards=2) + names_routed_to(1, 2, shards=2)),
        (one_shard, names_routed_to(0, 4, shards=2)),
    ]
    for label, (expected, names) in enumerate(batches):
        path = tmp_path / f"stats_{label}.dwts"
        with ShardedArchiveWriter.create(
            path, spec=SPEC, shards=2, workers=workers
        ) as writer:
            writer.append_batch(FRAMES[: len(names)], names=names)
            assert writer.stats.workers == expected
