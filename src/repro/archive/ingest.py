"""Streaming ingest: frames flow from a feed into archive writers, bounded.

:meth:`ArchiveWriter.append_batch` takes a fully materialised list of
frames — fine for re-packing, wrong for a modality feed (a scanner, a
network socket, a decompressing tape robot) that produces frames over time
and must not buffer an unbounded number of raw images.  This module wraps
the per-frame encode path (:func:`repro.coding.pipeline.encode_frame`) in
two streaming fronts:

:func:`iter_compress`
    A plain generator — pull-based, so at most **one** raw frame is alive
    at a time.  Compose it with any iterator machinery.
:func:`ingest_async` / :func:`ingest_frames`
    The one bounded loop, on an asyncio event loop (:func:`ingest_frames`
    is ``asyncio.run`` of it for synchronous callers).  A producer task
    reads the feed — an async iterator, or a synchronous iterable pulled in
    a worker thread — into a queue while the consumer compresses each frame
    off the loop (``asyncio.to_thread``) and routes its stream into the
    writer (:meth:`~repro.archive.writer.ArchiveWriter.add_stream`, or the
    sharded writer's routed equivalent).  The queue gives the feed
    ``queue_depth`` frames of read-ahead — enough to hide bursty I/O — and
    **backpressure**: a permit is taken *before* each frame is pulled from
    the feed and returned only after its compressed stream is archived, so
    no more than ``queue_depth`` undecoded frames exist at any instant, no
    matter how fast the feed or how slow the codec.  The high-water mark is
    reported (``max_in_flight``) so tests assert the bound instead of
    trusting it.

Every front end accepts feed items as bare frames (auto-named by the
writer) or ``(name, frame)`` pairs (named — and, for a sharded writer,
routed by that name).  The compressed streams are byte-identical to a
batch pack of the same frames in the same order: streaming changes *when*
memory is used, never what lands on disk.  This holds for a
:class:`~repro.archive.replication.ReplicatedShardSet` too: its routed
``add_stream`` fans each stream out to the shard's primary and replicas in
order, so streamed ingest keeps every copy byte-identical — with the same
bounded-memory guarantee, since the fan-out happens after compression.
"""

from __future__ import annotations

import asyncio
import functools
from dataclasses import dataclass, field
from typing import AsyncIterable, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from ..coding.pipeline import CodecResources, PipelineStats, encode_frame
from ..coding.spec import CodecSpec
from .serialize import CompressedStream

__all__ = [
    "FeedItem",
    "IngestReport",
    "iter_compress",
    "ingest_frames",
    "ingest_async",
]

#: One feed element: a bare frame (auto-named by the writer) or a
#: ``(name, frame)`` pair.
FeedItem = Union[np.ndarray, Tuple[str, np.ndarray]]


def _split_item(item: FeedItem) -> Tuple[Optional[str], np.ndarray]:
    if isinstance(item, tuple):
        name, frame = item
        return str(name), np.asarray(frame)
    return None, np.asarray(item)


@dataclass
class IngestReport:
    """Summary of one streaming ingest run."""

    #: Frames archived.
    frames: int = 0
    #: Configured bound on simultaneously-held undecoded frames.
    queue_depth: int = 0
    #: Measured high-water mark of undecoded frames held at once (pulled
    #: from the feed but not yet archived); never exceeds ``queue_depth``.
    max_in_flight: int = 0
    #: Per-stage pipeline stats of the whole run (same model as batches).
    stats: PipelineStats = field(default_factory=PipelineStats)


def iter_compress(
    feed: Iterable[FeedItem],
    spec: CodecSpec,
    stats: Optional[PipelineStats] = None,
) -> Iterator[Tuple[Optional[str], CompressedStream]]:
    """Generator front end: lazily compress a feed, one frame at a time.

    Yields ``(name, stream)`` pairs (``name`` is ``None`` for bare frames).
    Pull-based, so the previous raw frame is released before the next is
    requested from the feed — constant memory with zero machinery.
    """
    resources = CodecResources(spec)
    if stats is None:
        stats = PipelineStats()
    for item in feed:
        name, frame = _split_item(item)
        yield name, encode_frame(frame, spec, resources, stats)


def ingest_frames(writer, feed: Iterable[FeedItem], queue_depth: int = 4) -> IngestReport:
    """Synchronous front end: ``asyncio.run(ingest_async(writer, feed,
    queue_depth))`` — the same bounded loop, for callers without an event
    loop of their own."""
    return asyncio.run(ingest_async(writer, feed, queue_depth=queue_depth))


def _archive(writer, name, frame, spec, resources, stats) -> None:
    """Compress one frame and append it: the consumer's per-frame work."""
    writer.add_stream(encode_frame(frame, spec, resources, stats), name)


async def _to_thread_to_end(fn, *args) -> None:
    """``await asyncio.to_thread(fn, *args)`` that, when cancelled, still
    waits for ``fn`` to return before re-raising.

    A thread cannot be stopped, and ``fn`` here is an append: a caller that
    closes the writer as soon as the cancellation reaches it must not find
    the append still writing behind its back.
    """
    job = asyncio.ensure_future(asyncio.to_thread(fn, *args))
    cancelled = None
    while not job.done():
        try:
            await asyncio.shield(job)
        except asyncio.CancelledError as exc:
            if job.cancelled():
                raise
            cancelled = exc
    if cancelled is not None:
        raise cancelled
    job.result()


async def ingest_async(
    writer,
    feed: Union[Iterable[FeedItem], AsyncIterable[FeedItem]],
    queue_depth: int = 4,
) -> IngestReport:
    """Drain ``feed`` into ``writer`` holding at most ``queue_depth``
    undecoded frames; returns the run's report.

    ``writer`` is anything with ``add_stream(stream, name)`` and a ``spec``
    — :class:`~repro.archive.writer.ArchiveWriter` or
    :class:`~repro.archive.sharding.ShardedArchiveWriter` (where the name
    routes the stream to its shard).  ``feed`` may be a synchronous
    iterable (each pull runs in a worker thread, so a blocking feed — disk,
    socket — stays off the event loop) or an async iterator (e.g. frames
    arriving over the network).  A producer task takes a permit *before*
    pulling each item and the consumer returns it only once that item's
    stream is archived.  Compression and the append run together in a
    worker thread (``asyncio.to_thread``), one frame at a time, so the
    writer sees the feed's order and the event loop stays free for other
    work (a server's GETs) while a frame is coded and written.  Cancelling
    the call waits for an append already in its thread to return, so the
    caller may close the writer as soon as the cancellation arrives.

    A feed or codec error stops both sides and re-raises here — frames
    fully archived before the error stay archived (the writer finalises
    them on its own ``close``).
    """
    if queue_depth < 1:
        raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
    spec: CodecSpec = writer.spec
    resources = CodecResources(spec)
    stats = PipelineStats()
    permits = asyncio.Semaphore(queue_depth)
    handoff: "asyncio.Queue" = asyncio.Queue()
    done = object()
    if hasattr(feed, "__aiter__"):
        pull = functools.partial(anext, aiter(feed), done)
    else:
        pull = functools.partial(asyncio.to_thread, next, iter(feed), done)
    in_flight = peak = 0

    async def produce() -> None:
        nonlocal in_flight, peak
        try:
            while True:
                # The permit comes first: the feed is never asked for a
                # frame there is no room to hold.
                await permits.acquire()
                item = await pull()
                if item is done:
                    return
                in_flight += 1
                peak = max(peak, in_flight)
                handoff.put_nowait(item)
        finally:
            handoff.put_nowait(done)

    producer = asyncio.ensure_future(produce())
    frames = 0
    try:
        while (item := await handoff.get()) is not done:
            name, frame = _split_item(item)
            await _to_thread_to_end(_archive, writer, name, frame, spec, resources, stats)
            frames += 1
            in_flight -= 1
            permits.release()
    finally:
        if not producer.done():
            producer.cancel()
        try:
            await producer
        except asyncio.CancelledError:
            pass
    return IngestReport(
        frames=frames,
        queue_depth=queue_depth,
        max_in_flight=peak,
        stats=stats,
    )
