"""End-to-end archive serving benchmark with per-layer attribution.

Drives the real serving system: ``repro.archive.server`` runs in a child
process (``serve.py``) over a 2-shard, 1-replica subband-major set with the
default codec spec, and this process is the only load generator, a closed
loop over at most two keep-alive connections.  Run from the repository
root::

    python3 perfbench/run.py --workload read-cold --seed 1 --seconds 45 --trace 0

Workloads (``corpus.WORKLOADS``): ``read-cold`` and ``ingest-browse``.
Every response is checked against the source frames; any mismatch, short
body, unexpected status or timeout counts as failed and makes the run
incorrect.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice for half the time each, untraced then with layer spans
(``tracing.py``), and prints the per-layer metrics plus the tracing
overhead between the two.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it records the environment and workload shape.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import defaultdict  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from client import Connection, Tally, get, pixels_equal, post  # noqa: E402

#: Set-ups per --trace 0 run; setup_s is their median.
SETUP_REPEATS = 3
SHARDS = 2
REPLICAS = 1
CONNECTIONS = 2
PREVIEW_SCALE = 2
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 30.0
#: Windows of the timed phase that rates and latencies are medians over.
WINDOWS = 10
#: Length of the generated GET sequence (cycled if a run outlasts it).
SEQUENCE_LENGTH = 100_000
#: ingest-browse batches generated per run; far more than a run posts.
MAX_BATCHES = 400
#: ingest-browse samples the server's RSS and descriptors after this many
#: timed POSTs (posting on past the deadline if need be), so that they are
#: compared at equal work however fast ingest runs.
STATUS_AFTER_POSTS = 30


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def environment() -> Dict[str, object]:
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "REPRO_ENGINE": os.environ.get("REPRO_ENGINE"),
        "REPRO_WORKERS": os.environ.get("REPRO_WORKERS"),
    }


def check_engine() -> None:
    """A CI engine-matrix leg must not silently benchmark another tier."""
    engine = os.environ.get("REPRO_ENGINE", "").strip()
    if engine and engine != "fast":
        fail(f"REPRO_ENGINE={engine!r} forces a non-default engine tier; unset it")


def cpu_plan() -> Tuple[Optional[int], Optional[int]]:
    """(load generator CPU, server CPU): disjoint when two are usable."""
    usable = sorted(os.sched_getaffinity(0))
    if len(usable) < 2:
        return None, None
    return usable[0], usable[-1]


def proc_status(pid: int) -> Dict[str, float]:
    """Open descriptors and RSS (current and peak) of a process."""
    fields = {}
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            if key in ("VmHWM", "VmRSS"):
                fields[key] = int(value.split()[0]) / 1024.0
    fields["fds"] = len(os.listdir(f"/proc/{pid}/fd"))
    return fields


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def traffic(gets: List[Tuple[float, float]], began: float, seconds: float) -> Dict[str, float]:
    """GET rate and p50 as medians over ``WINDOWS`` equal windows of the
    timed phase, so that a transient stall of the host moves one window,
    not the result.  p99 is over every GET of the run: with the 1000 or
    more GETs a run gives, at least 10 samples lie beyond it."""

    width = seconds / WINDOWS
    windows: List[List[float]] = [[] for _ in range(WINDOWS)]
    for done, latency in gets:
        windows[min(WINDOWS - 1, max(0, int((done - began) / width)))].append(latency)
    rates = [len(window) / width for window in windows]
    p50s = [1e3 * median(window) for window in windows if window]
    return {
        "window_req_per_s": rates,
        "window_p50_ms": p50s,
        "req_per_s": median(rates),
        "get_p50_ms": median(p50s),
        "get_p99_ms": 1e3 * percentile([latency for _, latency in gets], 0.99),
    }


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))]


class Server:
    """The archive server child process, started through ``serve.py``."""

    def __init__(self, archive: Path, cache_bytes: int, cpu: Optional[int], trace_out: Optional[Path]) -> None:
        command = [
            sys.executable, str(HERE / "serve.py"),
            "--archive", str(archive), "--cache-bytes", str(cache_bytes),
        ]
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(ROOT)
        )
        line = self._read_line(SERVER_START_TIMEOUT_S)
        if not line.startswith(b"PORT "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.address = ("127.0.0.1", int(line.split()[1]))

    def _read_line(self, timeout: float) -> bytes:
        import selectors

        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                return b""
        return self.process.stdout.readline()

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """Close stdin (the shutdown signal) and wait; kill if it hangs."""
        try:
            self.process.stdin.close()
        except OSError:
            pass
        try:
            self.process.wait(SERVER_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class Deployment:
    """One set-up of one workload: corpus, archive, server and expectations."""

    def __init__(self, spec, seed: int, workdir: Path, server_cpu: Optional[int], trace: bool) -> None:
        from corpus import make_corpus, make_ingest_pool, ingest_batches, request_sequence

        self.spec = spec
        self.workdir = workdir
        self.server_cpu = server_cpu
        self.trace_out = workdir / "spans.json" if trace else None
        self.server: Optional[Server] = None
        self.path = workdir / "set.dwts"
        self.names: List[str] = []
        self.sources: Dict[str, object] = {}
        self.classes: Dict[str, str] = {}
        #: (pixels, seconds) of every accepted POST /ingest, set-up and timed.
        self.post_log: List[Tuple[int, float]] = []
        self.completed: List[str] = []
        self.pool_of: Dict[str, int] = {}
        self.next_batch = 0
        self.max_in_flight = 0
        #: Frames whose timed preview GET missed the cache (read prefix bytes).
        self.preview_misses: List[str] = []
        if spec.ingest_batch:
            self.pool, self.pool_kinds = make_ingest_pool(spec, seed)
            self.previews = [self._expected_preview(frame) for frame in self.pool]
            self.batches = ingest_batches(spec, seed, self.pool_kinds, MAX_BATCHES)
            corpus = None
        else:
            corpus = make_corpus(spec, seed)
            self.names = corpus.names
            self.sources = corpus.frames
            self.classes = dict(corpus.classes)
        self.ops = request_sequence(spec, corpus, seed, SEQUENCE_LENGTH)

    @staticmethod
    def _expected_preview(frame):
        from repro.coding import STransformCodec

        codec = STransformCodec(scales=4)
        return codec.decode_preview(codec.encode(frame), PREVIEW_SCALE)

    # -- set-up --------------------------------------------------------------------------
    def start(self, loop_run) -> None:
        from repro.archive.format import LAYOUT_SUBBAND_MAJOR
        from repro.archive.replication import ReplicatedShardSet
        from repro.coding.spec import CodecSpec

        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        ReplicatedShardSet.create(
            self.path, shards=SHARDS, replicas=REPLICAS, spec=CodecSpec(),
            layout=LAYOUT_SUBBAND_MAJOR,
        ).close()
        self.server = Server(self.path, self.spec.cache_bytes, self.server_cpu, self.trace_out)
        loop_run(self._pack_and_warm())

    async def _pack_and_warm(self) -> None:

        connection = Connection(self.server.address)
        tally = Tally()
        try:
            if self.spec.ingest_batch:
                await self.post_next_batch(connection, tally)
                for name in self.completed:
                    await connection.request(*self.browse_request(name, "preview"), tally)
                    await connection.request(*self.browse_request(name, "roi", 0, 64), tally)
            else:
                step = self.spec.pack_batch
                for start in range(0, len(self.names), step):
                    batch = [(name, self.sources[name]) for name in self.names[start:start + step]]
                    await self._post(connection, batch, tally)
                for name in sorted(self.names):
                    await connection.request(*self.read_request(name), tally)
        finally:
            await connection.close()
        if tally.failed:
            raise RuntimeError(f"set-up responses failed verification: {tally.errors}")

    async def _post(self, connection, batch, tally) -> bool:
        """POST one batch; records its accepted MPix/s."""
        from repro.archive.server import encode_ingest_record

        body = b"".join(encode_ingest_record(name, frame) for name, frame in batch)
        expected = len(batch)
        reply = {}

        def check(response) -> bool:
            reply.update(json.loads(response.body))
            return reply.get("frames") == expected

        began = time.perf_counter()
        response = await connection.request(post("/ingest", body), 200, check, tally, is_get=False)
        elapsed = time.perf_counter() - began
        if response is None:
            return False
        self.max_in_flight = max(self.max_in_flight, int(reply.get("max_in_flight", 0)))
        self.post_log.append((sum(frame.size for _, frame in batch), elapsed))
        return True

    async def post_next_batch(self, connection, tally) -> bool:
        batch = self.batches[self.next_batch]
        self.next_batch += 1
        frames = [(name, self.pool[slot]) for name, slot in batch]
        if not await self._post(connection, frames, tally):
            return False
        for name, slot in batch:
            self.pool_of[name] = slot
            self.classes[name] = self.pool_kinds[slot]
            self.completed.append(name)
        return True

    def browse_request(self, name: str, kind: str, y0: int = 0, y1: int = 0):

        source = self.pool[self.pool_of[name]]
        if kind == "preview":
            same = pixels_equal(self.previews[self.pool_of[name]])

            def check(response) -> bool:
                if response.headers.get("x-archive-cache") == "miss":
                    self.preview_misses.append(name)
                return same(response)

            return get(f"/frames/{name}/preview?scale={PREVIEW_SCALE}"), 200, check
        return get(f"/frames/{name}/preview?roi={y0}-{y1}"), 200, pixels_equal(source[y0:y1])

    def read_request(self, name: str):
        return get(f"/frames/{name}"), 200, pixels_equal(self.sources[name])

    # -- observations ----------------------------------------------------------------------
    async def stats(self) -> Dict:

        connection = Connection(self.server.address)
        try:
            response = await connection.request(get("/stats"), 200, lambda r: True, Tally(), is_get=False)
        finally:
            await connection.close()
        if response is None:
            raise RuntimeError("GET /stats failed")
        return json.loads(response.body)

    def disk_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.workdir.glob("set*"))

    # -- timed phase -------------------------------------------------------------------------
    async def timed(self, seconds: float, tally) -> Dict[str, object]:

        before = await self.stats()
        status_before = proc_status(self.server.pid)
        disk_before = self.disk_bytes()
        posts_before = len(self.post_log)
        status_at_posts: Dict[str, float] = {}
        latencies: Dict[str, List[float]] = defaultdict(list)
        self.preview_misses = []
        self.max_in_flight = 0
        window_start = time.perf_counter_ns()
        began = time.perf_counter()
        deadline = began + seconds
        ops = itertools.cycle(self.ops)

        async def reader_loop() -> None:
            connection = Connection(self.server.address)
            try:
                while time.perf_counter() < deadline:
                    op = next(ops)
                    if self.spec.ingest_batch:
                        name = self.completed[int(op.key * len(self.completed))]
                        request = self.browse_request(name, op.kind, int(op.a), int(op.b))
                    else:
                        request = self.read_request(op.key)
                    if await connection.request(*request, tally) is not None:
                        latencies[op.kind].append(tally.gets[-1][1])
            finally:
                await connection.close()

        async def ingest_loop() -> None:
            connection = Connection(self.server.address)
            try:
                posted = 0
                while (
                    time.perf_counter() < deadline or posted < STATUS_AFTER_POSTS
                ) and self.next_batch < len(self.batches):
                    await self.post_next_batch(connection, tally)
                    posted += 1
                    if posted == STATUS_AFTER_POSTS and not status_at_posts:
                        status_at_posts.update(proc_status(self.server.pid))
            finally:
                await connection.close()

        if self.spec.ingest_batch:
            await asyncio.gather(reader_loop(), ingest_loop())
        else:
            await asyncio.gather(*(reader_loop() for _ in range(CONNECTIONS)))
        window = (window_start, time.perf_counter_ns())
        status_after = proc_status(self.server.pid)
        after = await self.stats()
        return {
            "window": window,
            "traffic": traffic(tally.gets, began, seconds),
            "before": before,
            "after": after,
            "status_before": status_before,
            "status_after": status_after,
            "status_at_posts": status_at_posts or status_after,
            "latencies": latencies,
            "disk_written": self.disk_bytes() - disk_before,
            "posts": self.post_log[posts_before:],
        }

    # -- after the run -------------------------------------------------------------------------
    def readback(self, tally) -> None:
        """Every ingested frame against its source: one full decode per
        distinct source, then every other copy's stored payload bytes
        against that decoded copy's."""
        from repro.archive import ShardedArchiveReader

        if not self.spec.ingest_batch:
            return
        verified: Dict[int, bytes] = {}
        with ShardedArchiveReader(self.path) as reader:
            for name in self.completed:
                slot = self.pool_of[name]
                tally.attempted += 1
                try:
                    payload = bytes(reader.read_payload(name))
                    if slot not in verified:
                        if not np.array_equal(reader.decode(name), self.pool[slot]):
                            tally.fail(f"readback {name}: pixels differ from the source")
                            continue
                        verified[slot] = payload
                    elif payload != verified[slot]:
                        tally.fail(f"readback {name}: payload differs from its verified copy")
                except (KeyError, OSError, ValueError) as exc:
                    tally.fail(f"readback {name}: {type(exc).__name__}: {exc}")

    def stored(self) -> Dict[str, object]:
        """Stored bits per pixel of the set, and per image class."""
        from repro.archive import ShardedArchiveReader

        with ShardedArchiveReader(self.path) as reader:
            entries = reader.frames
            primaries = [self.path.parent / name for name in reader.manifest.shard_names]
        lengths = {entry.name: entry.length for entry in entries}
        pixels = sum(entry.shape[0] * entry.shape[1] for entry in entries)
        container = sum(path.stat().st_size for path in primaries) + self.path.stat().st_size
        class_bits: Dict[str, int] = defaultdict(int)
        class_pixels: Dict[str, int] = defaultdict(int)
        for entry in entries:
            class_bits[self.classes[entry.name]] += 8 * entry.length
            class_pixels[self.classes[entry.name]] += entry.shape[0] * entry.shape[1]
        return {
            "bpp": 8.0 * container / pixels if pixels else 0.0,
            "classes": {kind: class_bits[kind] / class_pixels[kind] for kind in class_bits},
            "preview_payload_bytes": sum(lengths[name] for name in self.preview_misses),
        }

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def run_deployment(spec, seed, workdir, server_cpu, seconds, trace, loop_run, tally, setups=1):
    """Set up ``setups`` times, time ``seconds`` on the last set-up, read
    back and measure storage; always stops the server.  Returns
    (deployment, timed observations with every set-up's seconds and
    POSTs, stored).  The first set-up is timed from process start."""
    deployment = None
    setup_s: List[float] = []
    setup_posts: List[Tuple[int, float]] = []
    try:
        for repeat in range(setups):
            if deployment is not None:
                deployment.stop()
            began = STARTED if repeat == 0 else time.perf_counter()
            deployment = Deployment(spec, seed, workdir, server_cpu, trace)
            deployment.start(loop_run)
            setup_s.append(time.perf_counter() - began)
            setup_posts.extend(deployment.post_log)
        observed = loop_run(deployment.timed(seconds, tally))
    finally:
        if deployment is not None:
            deployment.stop()
    deployment.readback(tally)
    observed.update(setup_s=setup_s, setup_posts=setup_posts)
    return deployment, observed, deployment.stored()


def kind_latencies(latencies: Dict[str, List[float]]) -> Dict[str, Dict[str, float]]:
    """p50 and p99 in ms of each GET kind (full, preview, roi)."""
    return {
        kind: {"p50_ms": 1e3 * median(values), "p99_ms": 1e3 * percentile(values, 0.99), "gets": len(values)}
        for kind, values in sorted(latencies.items())
    }


def end_to_end(spec, seed, seconds, workdir, server_cpu, loop_run) -> Tuple[Dict, Dict, object]:

    tally = Tally()
    _, observed, stored = run_deployment(
        spec, seed, workdir, server_cpu, seconds, False, loop_run, tally, setups=SETUP_REPEATS
    )
    # Read workloads POST only while packing: their ingest rate is over
    # every set-up's POSTs.
    posts = observed["posts"] or observed["setup_posts"]
    ingest = sum(px for px, _ in posts) / sum(s for _, s in posts) / 1e6
    flow = observed["traffic"]
    metrics = {
        "setup_s": (median(observed["setup_s"]), "s"),
        "req_per_s": (flow["req_per_s"], "1/s"),
        "get_p50_ms": (flow["get_p50_ms"], "ms"),
        "get_p99_ms": (flow["get_p99_ms"], "ms"),
        "ingest_mpix_per_s": (ingest, "MPix/s"),
        "stored_bits_per_pixel": (stored["bpp"], "bit/px"),
        # ingest-browse: after STATUS_AFTER_POSTS timed POSTs; read-cold
        # (no timed POSTs): at the end of the timed phase.
        "server_rss_mb": (observed["status_at_posts"]["VmHWM"], "MiB"),
    }
    info = {
        "gets": len(tally.gets),
        "setups_s": observed["setup_s"],
        "posts": len(observed["posts"]),
        "window_req_per_s": flow["window_req_per_s"],
        "window_p50_ms": flow["window_p50_ms"],
        "by_kind": kind_latencies(observed["latencies"]),
        "server_peak_rss_end_mb": observed["status_after"]["VmHWM"],
    }
    return metrics, info, tally


def per_layer(spec, seed, seconds, workdir, server_cpu, loop_run) -> Tuple[Dict, Dict, object]:

    tally = Tally()
    _, plain, _ = run_deployment(spec, seed, workdir, server_cpu, seconds / 2, False, loop_run, tally)
    plain_rate = plain["traffic"]["req_per_s"]
    by_kind = kind_latencies(plain["latencies"])
    traced_tally = Tally()
    deployment, observed, stored = run_deployment(
        spec, seed, workdir, server_cpu, seconds / 2, True, loop_run, traced_tally
    )
    tally.attempted += traced_tally.attempted
    tally.failed += traced_tally.failed
    tally.errors += traced_tally.errors
    spans = tracing.load(str(deployment.trace_out))
    window = observed["window"]
    layers = tracing.summarise(spans, window)
    row = lambda layer: layers.get(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "size": 0})  # noqa: E731
    service = [row(layer) for layer in tracing.SERVICE_CALLS]
    service_busy = sum(r["busy_s"] for r in service)
    http_self = traced_tally.busy_s - service_busy
    before, after = observed["before"], observed["after"]

    def delta(section: str, key: str) -> float:
        return after[section].get(key, 0) - before[section].get(key, 0)

    lookups = delta("cache", "hits") + delta("cache", "misses")
    reads = row("reader.read")["calls"]
    posts = len(observed["posts"])
    preview_bytes = tracing.bytes_under(spans, window, "reader.read", "service.get_preview")
    preview_payload = stored["preview_payload_bytes"]
    decode, encode = row("entropy.decode"), row("entropy.encode")
    traced_rate = observed["traffic"]["req_per_s"]
    status_before, status_after = observed["status_before"], observed["status_after"]
    preview, roi = by_kind.get("preview", {}), by_kind.get("roi", {})
    metrics = {
        "http.self_s": (http_self, "s"),
        "http.share": (http_self / traced_tally.busy_s if traced_tally.busy_s else 0.0, "ratio"),
        "service.calls": (sum(r["calls"] for r in service), "count"),
        "service.self_s": (sum(r["self_s"] for r in service), "s"),
        "service.queue_wait_s": (row("service.queue_wait")["busy_s"], "s"),
        "service.queue_peak": (max(after["queues"]["peak_depths"] or [0]), "count"),
        "service.reload_s": (row("service.reload")["busy_s"] / posts if posts else 0.0, "s"),
        "cache.hit_ratio": (delta("cache", "hits") / lookups if lookups else 0.0, "ratio"),
        "cache.evictions": (delta("cache", "evictions"), "count"),
        "cache.invalidations": (delta("ingest", "generation"), "count"),
        "reader.open_s": (row("reader.open")["busy_s"], "s"),
        "reader.read_s": (row("reader.read")["busy_s"], "s"),
        "reader.bytes_read": (delta("reader", "bytes_read"), "bytes"),
        "reader.zero_copy_ratio": (delta("reader", "zero_copy_reads") / reads if reads else 0.0, "ratio"),
        "reader.retries": (delta("reader", "retries"), "count"),
        "reader.failovers": (delta("reader", "failovers"), "count"),
        "serialize.parse_s": (row("serialize.parse")["busy_s"], "s"),
        "serialize.prefix_fraction": (
            preview_bytes / preview_payload if preview_payload else 0.0, "ratio"
        ),
        "entropy.decode_s": (decode["busy_s"], "s"),
        "entropy.decode_mb_per_s": (
            decode["size"] / 1e6 / decode["busy_s"] if decode["busy_s"] else 0.0, "MB/s"
        ),
        "entropy.decode_share": (
            tracing.decode_under_service(spans, window) / service_busy if service_busy else 0.0,
            "ratio",
        ),
        "entropy.encode_s": (encode["busy_s"], "s"),
        "entropy.encode_mpix_per_s": (
            encode["size"] / 1e6 / encode["busy_s"] if encode["busy_s"] else 0.0, "MPix/s"
        ),
        "transform.inverse_s": (row("transform.inverse")["busy_s"], "s"),
        "transform.forward_s": (row("transform.forward")["busy_s"], "s"),
        "writer.append_s": (row("writer.append")["busy_s"], "s"),
        "writer.close_s": (row("writer.close")["busy_s"] / posts if posts else 0.0, "s"),
        "writer.bytes_written": (observed["disk_written"], "bytes"),
        "ingest.max_in_flight": (deployment.max_in_flight, "count"),
        "server.open_fds_start": (status_before["fds"], "count"),
        "server.open_fds_end": (status_after["fds"], "count"),
        "server.open_fds_after_n_posts": (observed["status_at_posts"]["fds"], "count"),
        "server.rss_start_mb": (status_before["VmRSS"], "MiB"),
        "server.rss_end_mb": (status_after["VmRSS"], "MiB"),
        "server.rss_peak_end_mb": (status_after["VmHWM"], "MiB"),
        # Untraced half: each GET kind apart, free of the preview/ROI mix.
        "browse.preview_p50_ms": (preview.get("p50_ms", 0.0), "ms"),
        "browse.preview_p99_ms": (preview.get("p99_ms", 0.0), "ms"),
        "browse.roi_p50_ms": (roi.get("p50_ms", 0.0), "ms"),
        "browse.roi_p99_ms": (roi.get("p99_ms", 0.0), "ms"),
        "trace.overhead_frac": (1.0 - traced_rate / plain_rate if plain_rate else 0.0, "ratio"),
        "failed_frac": (tally.failed / tally.attempted if tally.attempted else 0.0, "ratio"),
    }
    from corpus import CLASSES

    for kind in CLASSES:
        metrics[f"bpp.{kind}"] = (stored["classes"].get(kind, 0.0), "bit/px")
    info = {
        "gets": len(traced_tally.gets), "untraced_req_per_s": plain_rate, "posts": posts,
        "untraced_by_kind": by_kind,
    }
    return metrics, info, tally


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    check_engine()
    if not (ROOT / "src" / "repro").is_dir():
        fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", code=1)
    from corpus import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r} (expected one of {sorted(WORKLOADS)})")
    spec = WORKLOADS[args.workload]
    host = environment()
    client_cpu, server_cpu = cpu_plan()
    if client_cpu is not None:
        os.sched_setaffinity(0, {client_cpu})
    workdir = ROOT / ".perfbench_work"
    loop = asyncio.new_event_loop()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, info, tally = measure(
            spec, args.seed, args.seconds, workdir, server_cpu, loop.run_until_complete
        )
    finally:
        loop.close()
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "environment": {**host, "client_cpu": client_cpu, "server_cpu": server_cpu},
        "workload": {
            "name": spec.name,
            "seed": args.seed,
            "frame_size": spec.frame_size,
            "corpus_frames": spec.corpus_frames,
            "cache_bytes": spec.cache_bytes,
            "working_set_bytes": spec.working_set_bytes() if spec.corpus else None,
            "connections": CONNECTIONS,
        },
        "run": info,
        "errors": tally.errors,
    }
    print(json.dumps(record))
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
