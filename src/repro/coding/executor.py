"""Multi-core batch execution: shard a frame batch across a process pool.

The stage pipeline (:mod:`repro.coding.pipeline`) compresses frames
independently — nothing flows between frames except statistics — so a
batch parallelises by sharding: :class:`ParallelExecutor` deals frames
round-robin onto ``workers`` shards, runs each shard through the ordinary
serial pipeline in its own worker process, and reassembles streams (and
per-frame accelerator reports) in the original frame order.  Because every
worker runs exactly the code the serial path runs, the merged batch is
**byte-identical** to serial execution for every codec/engine/transform
combination; the property test in ``tests/coding/test_executor.py`` proves
it and the scaling benchmark (``benchmarks/bench_pipeline_parallel.py``)
measures the throughput.

``workers=1`` degenerates to the serial path — no pool, no pickling, the
exact code path :func:`~repro.coding.pipeline.compress_frames` runs.

Stats semantics: each worker's per-stage wall clocks are summed into the
merged :class:`~repro.coding.pipeline.PipelineStats` (so ``stage_seconds``
reads as CPU seconds across the pool) while ``wall_seconds`` records the
batch's true elapsed time and ``workers`` the pool size;
``throughput_mpixels_per_s`` uses the elapsed time, so parallel speedup
shows up directly.

The configuration travels to workers as a pickled
:class:`~repro.coding.spec.CodecSpec`; frames and compressed streams are
plain ``ndarray``/dataclass payloads, so no shared state exists between
workers and the pool can use any start method (``fork`` is preferred when
available — workers inherit the imported modules instead of re-importing).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .pipeline import (
    CompressedBatch,
    PipelineStats,
    compress_frames,
    decompress_frames,
)
from .spec import CodecSpec, spec_or_default

__all__ = [
    "ParallelExecutor",
    "default_workers",
    "is_socket_workers",
    "make_executor",
    "merge_shard_results",
    "pool_context",
    "shard_indices",
]


def default_workers() -> int:
    """Worker count when none is given.

    The ``REPRO_WORKERS`` environment variable pins the count process-wide
    (the seam CI legs and benchmarks use to fix pool widths without
    plumbing kwargs, mirroring ``REPRO_ENGINE`` in
    :func:`~repro.coding.spec.default_engine`); otherwise it is the number
    of CPUs this process may actually use.
    """
    override = os.environ.get("REPRO_WORKERS", "").strip()
    if override:
        try:
            workers = int(override)
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be a positive integer, got {override!r}"
            ) from None
        if workers < 1:
            raise ValueError(f"REPRO_WORKERS must be >= 1, got {workers}")
        return workers
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def pool_context():
    """Prefer fork (workers inherit loaded modules); fall back to default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return None


def _compress_shard(
    spec: CodecSpec, frames: List[np.ndarray]
) -> Tuple[List, PipelineStats]:
    """Worker entry point: serial-compress one shard, return streams + stats."""
    batch = compress_frames(frames, spec=spec)
    return batch.streams, batch.stats


def _decompress_shard(
    spec: CodecSpec, streams: List
) -> Tuple[List[np.ndarray], PipelineStats]:
    """Worker entry point: serial-decode one shard's streams."""
    return decompress_frames(CompressedBatch(spec, streams))


def shard_indices(count: int, shards: int) -> List[List[int]]:
    """Round-robin deal of ``count`` items onto at most ``shards`` shards.

    Round-robin (not contiguous split) so mixed-size batches balance: big
    and small frames interleave across shards instead of clustering.
    """
    shards = max(1, min(shards, count))
    return [list(range(i, count, shards)) for i in range(shards)]


def merge_shard_results(
    shards: List[List[int]],
    results: Sequence[Tuple[List, PipelineStats]],
    count: int,
) -> Tuple[List, PipelineStats]:
    """Reassemble per-shard ``(items, stats)`` results in original order.

    The inverse of :func:`shard_indices`: items return to their input
    positions, the per-shard :class:`PipelineStats` are merged, and
    accelerator reports (which arrive shard by shard) are restored to
    frame order so merged stats read exactly like serial stats.  Shared by
    the fork-pool executor and the socket-pool executor
    (:mod:`repro.coding.netexec`) — the merge, like the shard contract, is
    transport-independent.
    """
    merged_items: List = [None] * count
    stats = PipelineStats()
    for indices, (shard_items, shard_stats) in zip(shards, results):
        for position, item in zip(indices, shard_items):
            merged_items[position] = item
        stats.merge(shard_stats)
    if stats.accelerator_reports:
        ordered = sorted(
            (
                (position, report)
                for indices, (_, shard_stats) in zip(shards, results)
                for position, report in zip(indices, shard_stats.accelerator_reports)
            ),
            key=lambda pair: pair[0],
        )
        stats.accelerator_reports = [report for _, report in ordered]
    return merged_items, stats


def is_socket_workers(workers) -> bool:
    """Whether a ``workers=`` value names socket workers, not a pool width.

    Integers (and ``None``) mean a local fork pool; anything else — an
    ``"host:port,host:port"`` address string, a
    :class:`~repro.coding.netexec.WorkerPool`, a list of addresses — is
    handed to the socket-pool executor.  The helper lives here (not in
    :mod:`~repro.coding.netexec`) so call sites can branch without
    importing the network layer.
    """
    return workers is not None and not isinstance(workers, (int, np.integer))


def make_executor(workers):
    """Resolve a ``workers=`` value to the executor that runs it.

    ``None`` or an integer builds a :class:`ParallelExecutor` (local fork
    pool; 1 degenerates to serial).  Worker addresses
    (``"host:port,host:port"``), a list of addresses, or a ready
    :class:`~repro.coding.netexec.WorkerPool` build a
    :class:`~repro.coding.netexec.SocketPoolExecutor` over the remote
    workers — the seam that lets ``compress_frames(..., workers=...)``
    and every archive call site scale past one host with zero signature
    changes.
    """
    if not is_socket_workers(workers):
        return ParallelExecutor(None if workers is None else int(workers))
    from .netexec import SocketPoolExecutor

    if isinstance(workers, SocketPoolExecutor):
        return workers
    return SocketPoolExecutor(workers)


class ParallelExecutor:
    """Shards frame batches across a ``concurrent.futures`` process pool.

    Parameters
    ----------
    workers:
        Pool size; ``None`` means one worker per available CPU, ``1`` means
        run serially in this process (no pool at all).
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is None:
            workers = default_workers()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)

    # -- helpers ------------------------------------------------------------------------
    def _run_sharded(self, task, spec: CodecSpec, items: List) -> Tuple[List, PipelineStats]:
        """Fan ``items`` out over the pool; return per-item results in order."""
        shards = shard_indices(len(items), self.workers)
        began = time.perf_counter()
        with ProcessPoolExecutor(
            max_workers=len(shards), mp_context=pool_context()
        ) as pool:
            futures = [
                pool.submit(task, spec, [items[i] for i in indices])
                for indices in shards
            ]
            results = [future.result() for future in futures]
        wall = time.perf_counter() - began
        merged_items, stats = merge_shard_results(shards, results, len(items))
        stats.workers = len(shards)
        stats.wall_seconds = wall
        return merged_items, stats

    # -- public API ---------------------------------------------------------------------
    def compress(
        self,
        frames: Sequence[np.ndarray],
        spec: Optional[CodecSpec] = None,
    ) -> CompressedBatch:
        """Compress a batch, sharded across the pool; byte-identical to serial.

        ``spec`` is the whole configuration (``None`` means ``CodecSpec()``).
        """
        spec = spec_or_default(spec)
        frames = [np.asarray(frame) for frame in frames]
        if self.workers == 1 or len(frames) <= 1:
            return compress_frames(frames, spec=spec)
        streams, stats = self._run_sharded(_compress_shard, spec, frames)
        return CompressedBatch(spec, streams, stats)

    def decompress(
        self, batch: CompressedBatch, spec: Optional[CodecSpec] = None
    ) -> Tuple[List[np.ndarray], PipelineStats]:
        """Decode a batch, sharded across the pool; bit-identical to serial."""
        spec = spec if spec is not None else batch.spec
        if self.workers == 1 or len(batch.streams) <= 1:
            if batch.spec != spec:
                batch = CompressedBatch(spec, batch.streams)
            return decompress_frames(batch)
        frames, stats = self._run_sharded(_decompress_shard, spec, list(batch.streams))
        return frames, stats
