"""Streaming ingest: bounded memory, backpressure, byte identity."""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.archive import (
    ArchiveReader,
    ArchiveWriter,
    ShardedArchiveReader,
    ShardedArchiveWriter,
    ingest_async,
    ingest_frames,
    iter_compress,
)
from repro.coding.spec import CodecSpec
from repro.imaging import ct_slice_series

pytestmark = pytest.mark.archive


def names_for(count):
    return [f"slice_{i:03d}" for i in range(count)]


def named_feed(frames):
    return ((name, frame) for name, frame in zip(names_for(len(frames)), frames))


def run_ingest_frames(writer, feed, queue_depth):
    return ingest_frames(writer, feed, queue_depth=queue_depth)


def run_ingest_async_sync_feed(writer, feed, queue_depth):
    return asyncio.run(ingest_async(writer, feed, queue_depth=queue_depth))


def run_ingest_async_async_feed(writer, feed, queue_depth):
    async def async_feed():
        for item in feed:
            yield item

    return asyncio.run(ingest_async(writer, async_feed(), queue_depth=queue_depth))


class TestBoundedIngest:
    @pytest.mark.parametrize(
        "run",
        [run_ingest_frames, run_ingest_async_sync_feed, run_ingest_async_async_feed],
        ids=["ingest_frames", "ingest_async-sync-feed", "ingest_async-async-feed"],
    )
    def test_64_frame_feed_holds_at_most_queue_depth(self, tmp_path, run):
        """Acceptance: a 64-frame feed never has more than ``queue_depth``
        undecoded frames in memory at once — measured from the feed side,
        not trusted from the implementation."""
        frames = ct_slice_series(count=64, size=32, seed=2)
        gauge = {"outstanding": 0, "peak": 0}

        def feed():
            for name, frame in zip(names_for(64), frames):
                gauge["outstanding"] += 1
                gauge["peak"] = max(gauge["peak"], gauge["outstanding"])
                yield name, frame

        class CountingWriter:
            def __init__(self, inner):
                self.inner = inner
                self.spec = inner.spec

            def add_stream(self, stream, name):
                entry = self.inner.add_stream(stream, name)
                gauge["outstanding"] -= 1
                return entry

        queue_depth = 4
        with ArchiveWriter.create(tmp_path / "stream.dwta") as writer:
            report = run(CountingWriter(writer), feed(), queue_depth)
        assert report.frames == 64
        assert gauge["peak"] <= queue_depth
        assert report.max_in_flight <= queue_depth
        # The producer actually read ahead (the bound was exercised, the
        # feed was not consumed one-at-a-time by accident).
        assert report.max_in_flight == queue_depth

    def test_streamed_archive_byte_identical_to_batch(self, tmp_path):
        frames = ct_slice_series(count=8, size=32, seed=4)
        batch_path = tmp_path / "batch.dwta"
        stream_path = tmp_path / "stream.dwta"
        with ArchiveWriter.create(batch_path) as writer:
            writer.append_batch(frames, names=names_for(8))
        with ArchiveWriter.create(stream_path) as writer:
            ingest_frames(writer, named_feed(frames), queue_depth=3)
        assert batch_path.read_bytes() == stream_path.read_bytes()

    def test_streamed_sharded_set_matches_batch_set(self, tmp_path):
        frames = ct_slice_series(count=8, size=32, seed=4)
        with ShardedArchiveWriter.create(tmp_path / "batch.dwts", shards=3) as writer:
            writer.append_batch(frames, names=names_for(8))
        with ShardedArchiveWriter.create(tmp_path / "stream.dwts", shards=3) as writer:
            report = ingest_frames(writer, named_feed(frames), queue_depth=2)
        assert report.frames == 8
        for a, b in zip(
            sorted(tmp_path.glob("batch.shard*.dwta")),
            sorted(tmp_path.glob("stream.shard*.dwta")),
        ):
            assert a.read_bytes() == b.read_bytes()
        with ShardedArchiveReader(tmp_path / "stream.dwts") as reader:
            decoded, _ = reader.decode_all()
            for image, original in zip(decoded, frames):
                assert np.array_equal(image, original)

    def test_bare_frames_are_auto_named(self, tmp_path):
        frames = ct_slice_series(count=3, size=32, seed=6)
        with ArchiveWriter.create(tmp_path / "auto.dwta") as writer:
            ingest_frames(writer, iter(frames), queue_depth=2)
        with ArchiveReader(tmp_path / "auto.dwta") as reader:
            assert len(reader) == 3
            assert len(set(reader.names())) == 3

    def test_feed_error_propagates_and_keeps_archived_frames(self, tmp_path):
        frames = ct_slice_series(count=4, size=32, seed=7)

        def feed():
            yield "ok_0", frames[0]
            yield "ok_1", frames[1]
            raise RuntimeError("scanner unplugged")

        path = tmp_path / "partial.dwta"
        with ArchiveWriter.create(path) as writer:
            with pytest.raises(RuntimeError, match="scanner unplugged"):
                ingest_frames(writer, feed(), queue_depth=2)
        with ArchiveReader(path) as reader:
            assert reader.names() == ["ok_0", "ok_1"]
            assert reader.verify(deep=True)["frames"] == 2

    def test_rejects_bad_queue_depth(self, tmp_path):
        with ArchiveWriter.create(tmp_path / "x.dwta") as writer:
            with pytest.raises(ValueError, match="queue_depth"):
                ingest_frames(writer, iter(()), queue_depth=0)


class TestIterCompress:
    def test_generator_is_lazy_and_wire_identical(self):
        frames = ct_slice_series(count=5, size=32, seed=9)
        pulled = []

        def feed():
            for name, frame in zip(names_for(5), frames):
                pulled.append(name)
                yield name, frame

        spec = CodecSpec(scales=2)
        compressor = iter_compress(feed(), spec)
        assert pulled == []  # nothing consumed before iteration
        name, stream = next(compressor)
        assert name == "slice_000" and pulled == ["slice_000"]
        from repro.coding.pipeline import compress_frames

        reference = compress_frames([frames[0]], spec=spec)
        assert stream.chunks == reference.streams[0].chunks
        assert len(list(compressor)) == 4


class TestAsyncIngest:
    def test_async_feed_bounded_and_identical(self, tmp_path):
        frames = ct_slice_series(count=8, size=32, seed=4)

        async def feed():
            for name, frame in zip(names_for(8), frames):
                await asyncio.sleep(0)
                yield name, frame

        async def run():
            with ArchiveWriter.create(tmp_path / "async.dwta") as writer:
                return await ingest_async(writer, feed(), queue_depth=3)

        report = asyncio.run(run())
        assert report.frames == 8
        assert report.max_in_flight <= 3
        batch_path = tmp_path / "batch.dwta"
        with ArchiveWriter.create(batch_path) as writer:
            writer.append_batch(frames, names=names_for(8))
        assert batch_path.read_bytes() == (tmp_path / "async.dwta").read_bytes()

    def test_appends_run_off_the_event_loop(self, tmp_path):
        """A server's GETs share the loop: coding and appending a frame
        must not block it, and appends still land in feed order."""
        frames = ct_slice_series(count=4, size=32, seed=6)
        appended = []

        class ThreadRecordingWriter:
            def __init__(self, inner):
                self.inner = inner
                self.spec = inner.spec

            def add_stream(self, stream, name):
                appended.append((threading.get_ident(), name))
                return self.inner.add_stream(stream, name)

        async def run():
            loop_thread = threading.get_ident()
            with ArchiveWriter.create(tmp_path / "threads.dwta") as writer:
                await ingest_async(ThreadRecordingWriter(writer), named_feed(frames))
            return loop_thread

        loop_thread = asyncio.run(run())
        assert [name for _, name in appended] == names_for(4)
        assert all(thread != loop_thread for thread, _ in appended)

    def test_cancel_waits_for_an_append_in_flight(self, tmp_path):
        """A server cancels an ingest on shutdown and then closes the
        writer: the append already in its thread must return first, or
        the close's index and the append's payload race for one offset."""
        frames = ct_slice_series(count=3, size=32, seed=7)
        events = []
        entered = threading.Event()

        class SlowWriter:
            def __init__(self, inner):
                self.inner = inner
                self.spec = inner.spec

            def add_stream(self, stream, name):
                events.append("add start")
                entered.set()
                time.sleep(0.2)
                self.inner.add_stream(stream, name)
                events.append("add end")

            def close(self):
                events.append("close")
                self.inner.close()

        path = tmp_path / "cancel.dwta"

        async def run():
            writer = SlowWriter(ArchiveWriter.create(path))
            task = asyncio.ensure_future(ingest_async(writer, named_feed(frames)))
            try:
                assert await asyncio.to_thread(entered.wait, 10)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
            finally:
                await asyncio.to_thread(writer.close)

        asyncio.run(run())
        assert events == ["add start", "add end", "close"]
        with ArchiveReader(path) as reader:
            assert reader.names() == names_for(1)

    def test_sync_iterable_accepted(self, tmp_path):
        frames = ct_slice_series(count=3, size=32, seed=5)

        async def run():
            with ArchiveWriter.create(tmp_path / "sync.dwta") as writer:
                return await ingest_async(writer, named_feed(frames), queue_depth=2)

        report = asyncio.run(run())
        assert report.frames == 3
