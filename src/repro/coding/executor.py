"""One shard-execution seam: serial, fork or socket, chosen in one place.

Every batch in this codebase scales out the same way: a list of *jobs* —
one payload per shard, each naming a task from the socket worker's task
table (:data:`~repro.coding.netexec.DEFAULT_HANDLERS`: ``compress``,
``decompress``, ``verify_copy``, ``verify_frames``) — goes in, and the
task results come back in job order.  :func:`run_shards` is the only code
that decides *where* the jobs run, from the caller's ``workers=`` value:

* ``1`` — **serial**: each handler runs in this process, no pickling;
* an integer > 1 (or ``None``: :func:`default_workers`) — **fork**: a
  ``concurrent.futures`` process pool of ``min(jobs, workers)`` processes
  (a single job still runs serially — a pool of one buys nothing);
* ``"host:port,host:port"``, a list of addresses, or a
  :class:`~repro.coding.netexec.WorkerPool` — **socket**: one
  :meth:`WorkerPool.call <repro.coding.netexec.WorkerPool.call>` per job
  over live workers, with the pool's retry → reassign ladder underneath.
  A pool built from addresses is owned (disconnected after the run); a
  ``WorkerPool`` passed in is borrowed and keeps its connections.

Because every transport runs the *same* handler on the *same* payload,
results are byte-identical whichever one ran them; the byte-identity
matrices in ``tests/coding/test_executor.py``, ``test_netexec.py`` and
``tests/archive/test_transport_matrix.py`` prove it.

Batch callers (:func:`~repro.coding.pipeline.compress_frames`,
``decode_all``, ``ArchiveReader.verify``) deal their items round-robin
onto :func:`shard_width` shards with :func:`shard_indices` and restore
input order with :func:`merge_shard_results`; the sharded archive layer
builds one job per shard group or shard copy instead.  The archive layer's
placement maps ride along as ``affinity`` — one preferred node id per
job, read only by the socket backend, which counts ``placement_hits`` and
``placement_fallbacks``.

Stats semantics (:class:`ShardRun`): ``workers`` is ``min(jobs, width)``
on every transport — 1 when serial — and ``wall_seconds`` is the pooled
run's elapsed time (0.0 when serial, where stage seconds are the wall
clock), so a caller folding the per-job
:class:`~repro.coding.pipeline.PipelineStats` reads exactly as before.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .netexec import DEFAULT_HANDLERS, WorkerPool, parse_worker_addresses
from .pipeline import PipelineStats

__all__ = [
    "ShardRun",
    "default_workers",
    "merge_shard_results",
    "pool_context",
    "run_shards",
    "shard_indices",
    "shard_width",
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
    frame order so merged stats read exactly like serial stats.
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


@dataclass
class ShardRun:
    """What one :func:`run_shards` call did.

    ``results`` holds one handler result per job, in job order;
    ``transport`` is the backend that actually ran them (``"serial"``,
    ``"fork"`` or ``"socket"``); ``workers`` is ``min(jobs, width)`` (1
    when serial); ``wall_seconds`` is the pooled run's elapsed time (0.0
    when serial).  The placement counters are the socket backend's
    routing evidence: jobs served by their ``affinity`` node, and jobs
    with an affinity that another worker had to serve.
    """

    results: List
    transport: str
    workers: int = 1
    wall_seconds: float = 0.0
    placement_hits: int = 0
    placement_fallbacks: int = 0


def _transport(workers) -> Tuple[str, int]:
    """The one ``workers=`` check: ``(transport, width)``.

    ``None`` resolves through :func:`default_workers`; integers (Python or
    numpy) must be >= 1 and mean serial (1) or fork; anything else names
    socket workers, whose width is the pool's live count or the number of
    addresses.
    """
    if workers is None:
        workers = default_workers()
    if isinstance(workers, (int, np.integer)):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return ("serial" if workers == 1 else "fork"), int(workers)
    if isinstance(workers, WorkerPool):
        return "socket", workers.live_count
    return "socket", len(parse_worker_addresses(workers))


def shard_width(workers) -> int:
    """How many shards a round-robin deal over ``workers`` should use.

    Validates ``workers`` exactly as :func:`run_shards` does, so callers
    that deal items before running (or that must stay in-process, e.g.
    with an injected storage backend) reject bad values identically.
    """
    return _transport(workers)[1]


def _run_handler(kind: str, job):
    """Process-pool entry point: run one task-table handler."""
    return DEFAULT_HANDLERS[kind](job)


def _materialize(kind: str, jobs: List) -> None:
    """Copy zero-copy stream views to bytes before jobs leave the process:
    views of a reader's mmap neither pickle nor outlive the mapping."""
    if kind != "decompress":
        return
    from ..archive.serialize import materialize_stream

    for job in jobs:
        for stream in job["items"]:
            materialize_stream(stream)


def run_shards(
    kind: str,
    jobs: Sequence,
    workers,
    affinity: Optional[Sequence[Optional[str]]] = None,
) -> ShardRun:
    """Run one task-table handler per job on the transport ``workers`` names.

    ``kind`` is a key of :data:`~repro.coding.netexec.DEFAULT_HANDLERS`;
    ``jobs`` are its payloads, one per shard.  ``affinity`` (one node id or
    ``None`` per job) routes each job to its placed socket worker when that
    node is alive; the serial and fork backends ignore it.  Results return
    in job order whichever transport ran them; a failing job's exception
    propagates (the other jobs of a pooled run finish first).
    """
    transport, width = _transport(workers)
    jobs = list(jobs)
    if not jobs or (transport == "fork" and len(jobs) == 1):
        transport = "serial"
    if transport == "serial":
        handler = DEFAULT_HANDLERS[kind]
        return ShardRun([handler(job) for job in jobs], "serial")
    _materialize(kind, jobs)
    began = time.perf_counter()
    if transport == "fork":
        width = min(len(jobs), width)
        with ProcessPoolExecutor(max_workers=width, mp_context=pool_context()) as pool:
            futures = [pool.submit(_run_handler, kind, job) for job in jobs]
            run = ShardRun([future.result() for future in futures], "fork", width)
    else:
        run = _run_socket(kind, jobs, workers, affinity or [None] * len(jobs))
    run.wall_seconds = time.perf_counter() - began
    return run


def _run_socket(kind: str, jobs: List, workers, affinity: Sequence) -> ShardRun:
    """Socket backend: one ``WorkerPool.call`` per job, ``min(jobs, live)``
    in flight, job ``i`` preferring its affinity node, then live worker
    ``i mod live``."""
    pool, owns = WorkerPool.from_any(workers)
    try:
        live = pool.ensure_connected()

        def call(position: int) -> Tuple[Dict, Optional[str]]:
            return pool.call(
                kind,
                jobs[position],
                preferred_index=live[position % len(live)],
                preferred_node=affinity[position],
            )

        width = min(len(jobs), len(live))
        with ThreadPoolExecutor(max_workers=width) as threads:
            outcomes = list(threads.map(call, range(len(jobs))))
    finally:
        if owns:
            pool.disconnect()
    placed = [
        (node, preferred)
        for (_, node), preferred in zip(outcomes, affinity)
        if preferred is not None
    ]
    hits = sum(1 for node, preferred in placed if node == preferred)
    return ShardRun(
        [result for result, _ in outcomes],
        "socket",
        width,
        placement_hits=hits,
        placement_fallbacks=len(placed) - hits,
    )
