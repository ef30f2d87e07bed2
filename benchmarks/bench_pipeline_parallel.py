"""Multi-core scaling benchmark of the parallel batch executor.

Not a paper table: this is the perf claim behind
:mod:`repro.coding.executor` — sharding a frame batch across a process
pool must (a) change nothing about the bytes and (b) raise throughput on
multi-core hosts.  On a 32-frame 256x256 CT batch the benchmark measures
end-to-end compress throughput at 1, 2 and 4 workers, proves byte
identity at every width, and writes the measured numbers to
``benchmarks/reports/bench_pipeline_parallel.json`` so the scaling
trajectory is diffable across PRs, like ``bench_accelerator`` and
``bench_archive``.

The >= 1.5x speedup assertion at 4 workers only makes physical sense when
the host actually has 4 CPUs to run on; on narrower hosts (e.g. a
single-core CI container, where a process pool can only add overhead) the
correctness half still runs and the report records the measured numbers
plus the reason the throughput gate was waived.
"""

import time

import pytest

from _gates import cpu_throughput_gate
from repro.coding import compress_frames
from repro.coding.spec import CodecSpec
from repro.imaging import ct_slice_series

pytestmark = pytest.mark.archive

FRAME_COUNT = 32
FRAME_SIZE = 256
WORKER_COUNTS = (1, 2, 4)
MIN_SPEEDUP_AT_4 = 1.5


def _best_run(frames, workers, repeats=3):
    """(best elapsed seconds, last batch) over ``repeats`` runs."""
    best, batch = float("inf"), None
    for _ in range(repeats):
        began = time.perf_counter()
        batch = compress_frames(
            frames,
            spec=CodecSpec(codec="s-transform", scales=4),
            workers=workers,
        )
        best = min(best, time.perf_counter() - began)
    return best, batch


def test_parallel_scaling(save_json_record):
    frames = ct_slice_series(count=FRAME_COUNT, size=FRAME_SIZE, seed=20260728)
    gate = cpu_throughput_gate(
        "a process pool cannot speed up CPU-bound work without CPUs to run on"
    )

    seconds = {}
    batches = {}
    for workers in WORKER_COUNTS:
        seconds[workers], batches[workers] = _best_run(frames, workers)

    # Correctness half (always enforced): every worker count produces
    # byte-identical streams to the serial run.
    reference = batches[1]
    for workers in WORKER_COUNTS[1:]:
        for serial_stream, parallel_stream in zip(
            reference.streams, batches[workers].streams
        ):
            assert serial_stream.chunks == parallel_stream.chunks, (
                f"workers={workers} changed the stream bytes"
            )

    pixels = sum(int(frame.size) for frame in frames)
    speedups = {workers: seconds[1] / seconds[workers] for workers in WORKER_COUNTS}
    record = {
        "frame_count": FRAME_COUNT,
        "frame_size": FRAME_SIZE,
        "usable_cpus": gate.usable_cpus,
        "byte_identical": True,
        "seconds": {str(w): seconds[w] for w in WORKER_COUNTS},
        "mpixels_per_s": {
            str(w): pixels / seconds[w] / 1e6 for w in WORKER_COUNTS
        },
        "speedup_vs_serial": {str(w): speedups[w] for w in WORKER_COUNTS},
        "min_speedup_at_4": MIN_SPEEDUP_AT_4,
        "throughput_gate": gate.record,
    }
    save_json_record("bench_pipeline_parallel", record)

    if gate.active:
        assert speedups[4] >= MIN_SPEEDUP_AT_4, (
            f"4-worker speedup only {speedups[4]:.2f}x "
            f"({seconds[1] * 1e3:.0f} ms serial vs {seconds[4] * 1e3:.0f} ms parallel)"
        )
