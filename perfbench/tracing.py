"""Layer spans for the traced run, recorded from outside the program.

:func:`install` wraps public entry points of each layer before the server
starts; nothing under ``src/`` changes.  A span is ``(layer, start_ns,
end_ns, span_id, parent_id, size)`` on the ``perf_counter_ns`` clock,
which is system-wide monotonic on Linux, so the load generator's
timestamps and the server's spans share one time axis.  The parent comes
from a context variable: ``asyncio.to_thread`` copies it into worker
threads, and the wrapped ``ArchiveService._submit`` carries it across the
per-shard queue, which is also where queue wait is measured.

A call into a layer that is already open on the same call chain (the
inverse S-transform's 1-D steps inside its 2-D inverse, a shard writer's
``close`` inside the set's) records no second span, so layer totals never
count one interval twice.

:func:`summarise` turns the spans of the timed window into per-layer busy
and self times.  Self time is a span's duration minus the part covered by
its child spans.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[str, int, int, int, int, int]

#: ArchiveService calls: the unit of "service" time.
SERVICE_CALLS = (
    "service.get_frame",
    "service.get_preview",
    "service.get_roi",
    "service.ingest",
)


class Recorder:
    """In-memory span list of one server process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    def _open(self, layer: str) -> Optional[Tuple[int, int, contextvars.Token]]:
        current = self._current.get()
        if current is not None and current[1] == layer:
            return None
        sid = next(self._ids)
        parent = current[0] if current is not None else 0
        return sid, parent, self._current.set((sid, layer))

    def _close(self, layer, opened, start, size) -> None:
        sid, parent, token = opened
        self.spans.append((layer, start, time.perf_counter_ns(), sid, parent, size))
        self._current.reset(token)

    def wrap(self, layer: str, fn: Callable, size: Optional[Callable] = None) -> Callable:
        """``fn`` recording one ``layer`` span per call; ``size(args,
        result)`` gives the span's byte or pixel count."""
        if asyncio.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                opened = self._open(layer)
                if opened is None:
                    return await fn(*args, **kwargs)
                start = time.perf_counter_ns()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    self._close(layer, opened, start, size(args, result) if size and result is not None else 0)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._open(layer)
            if opened is None:
                return fn(*args, **kwargs)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(layer, opened, start, size(args, result) if size and result is not None else 0)

        return traced

    def wrap_submit(self, submit: Callable) -> Callable:
        """Carry the caller's span across the shard queue; record the wait
        from enqueue to the worker thread starting the op."""
        recorder = self

        @functools.wraps(submit)
        async def traced_submit(service, shard, fn):
            context = contextvars.copy_context()
            current = context.get(recorder._current)
            queued = time.perf_counter_ns()

            def run():
                started = time.perf_counter_ns()
                recorder.spans.append(
                    ("service.queue_wait", queued, started, next(recorder._ids),
                     current[0] if current else 0, 0)
                )
                return context.run(fn)

            return await submit(service, shard, run)

        return traced_submit

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def _payload_bytes(args, result) -> int:
    return sum(len(chunk) for chunk in args[1].chunks.values())


def install(recorder: Recorder) -> None:
    """Wrap the layer entry points the benchmark attributes time to."""
    from repro.archive import reader as reader_mod
    from repro.archive import server as server_mod
    from repro.archive.reader import ArchiveReader
    from repro.archive.server import ArchiveService
    from repro.archive.sharding import ShardedArchiveWriter
    from repro.archive.writer import ArchiveWriter
    from repro.coding import s_transform as st_mod
    from repro.coding.s_transform import STransformCodec

    def patch(owner, attr, layer, size=None):
        setattr(owner, attr, recorder.wrap(layer, getattr(owner, attr), size))

    for layer in SERVICE_CALLS:
        patch(ArchiveService, layer.split(".", 1)[1], layer)
    ArchiveService._submit = recorder.wrap_submit(ArchiveService._submit)
    # The per-POST reader reopen (ArchiveService._reload → open_archive).
    patch(server_mod, "open_archive", "service.reload")

    nbytes = lambda args, result: len(result)  # noqa: E731
    # Shard opens: lazily on first use after each per-POST reload.
    patch(ArchiveReader, "__init__", "reader.open")
    patch(ArchiveReader, "read_payload_view", "reader.read", nbytes)
    patch(ArchiveReader, "read_payload_slice", "reader.read", nbytes)
    # The names the reader module calls: full parse and preview prefix parse.
    for name in ("deserialize_stream", "parse_section_table", "sections_to_stream"):
        patch(reader_mod, name, "serialize.parse")

    patch(STransformCodec, "decode_pyramid", "entropy.decode", _payload_bytes)
    # Preview decodes call the Rice decoder directly, not decode_pyramid.
    patch(st_mod, "rice_decode_array", "entropy.decode", lambda args, result: len(args[0]))
    patch(
        STransformCodec, "encode_pyramid", "entropy.encode",
        lambda args, result: int(args[2][0]) * int(args[2][1]),
    )
    patch(STransformCodec, "inverse_transform", "transform.inverse")
    patch(st_mod, "s_transform_inverse_roi", "transform.inverse")
    patch(st_mod, "s_transform_inverse_1d", "transform.inverse")
    patch(STransformCodec, "forward_transform", "transform.forward")

    patch(ShardedArchiveWriter, "add_stream", "writer.append")
    patch(ArchiveWriter, "add_stream", "writer.append")
    patch(ShardedArchiveWriter, "close", "writer.close")
    patch(ArchiveWriter, "close", "writer.close")


# ---------------------------------------------------------------------------
# Analysis (load-generator side)
# ---------------------------------------------------------------------------

def _covered(intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def summarise(spans: Sequence[Span], window: Tuple[int, int]) -> Dict[str, Dict[str, float]]:
    """Per layer over spans starting inside ``window``: ``calls``,
    ``busy_s`` (sum of durations), ``self_s`` (minus child coverage) and
    ``size`` (sum of span sizes)."""
    lo, hi = window
    inside = [span for span in spans if lo <= span[1] < hi]
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for layer, start, end, _sid, parent, _size in inside:
        if parent and layer != "service.queue_wait":
            children[parent].append((start, end))
    layers: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "size": 0}
    )
    for layer, start, end, sid, _parent, size in inside:
        row = layers[layer]
        row["calls"] += 1
        row["busy_s"] += (end - start) / 1e9
        row["self_s"] += (end - start - _covered(children.get(sid, ()))) / 1e9
        row["size"] += size
    return dict(layers)


def bytes_under(spans: Sequence[Span], window: Tuple[int, int], layer: str, parent_layer: str) -> int:
    """Sum of ``layer`` span sizes whose parent is a ``parent_layer`` span."""
    lo, hi = window
    parents = {span[3] for span in spans if span[0] == parent_layer and lo <= span[1] < hi}
    return sum(span[5] for span in spans if span[0] == layer and span[4] in parents)


def decode_under_service(spans: Sequence[Span], window: Tuple[int, int]) -> float:
    """Seconds of entropy decode whose parent is an ArchiveService call."""
    lo, hi = window
    calls = {span[3] for span in spans if span[0] in SERVICE_CALLS and lo <= span[1] < hi}
    return sum(
        (span[2] - span[1]) / 1e9 for span in spans
        if span[0] == "entropy.decode" and span[4] in calls
    )


def load(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]
