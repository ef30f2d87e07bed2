"""Random-access retrieval benchmark of the persistent archive container.

Not a paper table: this is the perf claim behind :mod:`repro.archive` —
retrieving one frame from an archive must be much cheaper than decoding the
whole archive, because the reader seeks straight to the frame's payload and
never touches the rest.  On a 32-frame archive single-frame retrieval must
beat the full-archive decode by at least 5x (in practice it tracks the
frame count, ~30x), and the byte counters prove the access pattern: one
retrieval reads exactly one payload.  A second test gates the zero-copy
read path: serving payloads as mmap views must beat the seek+read+copy
path by at least 1.2x on the raw payload reads, with identical
``bytes_read`` accounting.  The measured numbers are written to
``benchmarks/reports/bench_archive.json`` /
``bench_archive_zero_copy.json`` so the retrieval trajectory is diffable
across PRs, like ``bench_accelerator`` and ``bench_coding_engine``.
"""

import time

import numpy as np
import pytest

from repro.archive import ArchiveReader, ArchiveWriter, FileBackend, StorageBackend
from repro.coding.spec import CodecSpec
from repro.imaging import ct_slice_series

pytestmark = pytest.mark.archive

FRAME_COUNT = 32
FRAME_SIZE = 64
MIN_SPEEDUP = 5.0
#: Floor on the zero-copy payload-read path's advantage over seek+read.
MIN_ZERO_COPY_SPEEDUP = 1.2
TARGET_FRAME = 17


class CopyingFileBackend(FileBackend):
    read_range = StorageBackend.read_range  # declines views: readers seek + read


def _min_seconds(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        began = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - began)
    return best


def test_random_access_beats_full_decode(tmp_path, save_json_record):
    """Single-frame retrieval >= 5x faster than decoding all 32 frames."""
    frames = ct_slice_series(count=FRAME_COUNT, size=FRAME_SIZE, seed=20260728)
    path = tmp_path / "bench.dwta"
    began = time.perf_counter()
    with ArchiveWriter.create(
        path, spec=CodecSpec(codec="s-transform", scales=4)
    ) as writer:
        writer.append_batch(frames)
    pack_seconds = time.perf_counter() - began

    with ArchiveReader(path) as reader:
        # Correctness first: random access equals full decode, bit for bit.
        full, _ = reader.decode_all()
        single = reader.decode(TARGET_FRAME)
        assert np.array_equal(single, full[TARGET_FRAME])
        assert np.array_equal(single, frames[TARGET_FRAME])

        full_seconds = _min_seconds(lambda: reader.decode_all(), repeats=3)

        reader.bytes_read = 0
        single_seconds = _min_seconds(lambda: reader.decode(TARGET_FRAME), repeats=5)
        bytes_per_access = reader.bytes_read / 5
        total_payload = reader.compressed_bytes
        # The access-pattern proof: one retrieval reads exactly one payload.
        assert bytes_per_access == reader.frames[TARGET_FRAME].length

        speedup = full_seconds / single_seconds
        assert speedup >= MIN_SPEEDUP, (
            f"random access only {speedup:.1f}x over full decode "
            f"({single_seconds * 1e3:.2f} ms vs {full_seconds * 1e3:.1f} ms)"
        )

        save_json_record(
            "bench_archive",
            {
                "frame_count": FRAME_COUNT,
                "frame_size": FRAME_SIZE,
                "payload_layout": reader.frames[TARGET_FRAME].layout,
                "archive_bytes": path.stat().st_size,
                "payload_bytes": total_payload,
                "pack_seconds": pack_seconds,
                "full_decode_seconds": full_seconds,
                "single_decode_seconds": single_seconds,
                "speedup": speedup,
                "bytes_read_per_access": bytes_per_access,
                "payload_fraction_touched": bytes_per_access / total_payload,
            },
        )


def test_zero_copy_beats_copying_reads(tmp_path, save_json_record):
    """mmap payload views >= 1.2x over seek+read, identical accounting."""
    frames = ct_slice_series(count=FRAME_COUNT, size=FRAME_SIZE, seed=20260728)
    path = tmp_path / "bench_zero_copy.dwta"
    with ArchiveWriter.create(
        path, spec=CodecSpec(codec="s-transform", scales=4)
    ) as writer:
        writer.append_batch(frames)

    # Checksums off so the comparison isolates the read paths themselves
    # (CRC work is identical on both and would only dilute the ratio).
    with ArchiveReader(path, verify_checksums=False) as zc, ArchiveReader(
        CopyingFileBackend(path), verify_checksums=False
    ) as copying:
        # Correctness and accounting first: identical frames, identical
        # bytes_read, and the counters prove which path served each read.
        for index in (0, TARGET_FRAME, FRAME_COUNT - 1):
            assert np.array_equal(zc.decode(index), copying.decode(index))
        assert zc.bytes_read == copying.bytes_read
        assert zc.zero_copy_reads > 0
        assert copying.zero_copy_reads == 0

        def read_all_views():
            for entry in zc.frames:
                zc.read_payload_view(entry)

        def read_all_copies():
            for entry in copying.frames:
                copying.read_payload(entry)

        read_all_views()  # warm the mapping before timing
        read_all_copies()  # ... and the page cache, keeping counters even
        view_seconds = _min_seconds(read_all_views, repeats=30)
        copy_seconds = _min_seconds(read_all_copies, repeats=30)
        read_speedup = copy_seconds / view_seconds
        assert read_speedup >= MIN_ZERO_COPY_SPEEDUP, (
            f"zero-copy payload reads only {read_speedup:.2f}x over copying "
            f"({view_seconds * 1e6:.0f} us vs {copy_seconds * 1e6:.0f} us "
            f"per {FRAME_COUNT}-frame sweep)"
        )

        # End-to-end random-access decode through each path (recorded, not
        # gated: entropy decoding dominates, so the read path is a small
        # slice of this number).
        zc_decode_seconds = _min_seconds(lambda: zc.decode(TARGET_FRAME), repeats=5)
        copy_decode_seconds = _min_seconds(
            lambda: copying.decode(TARGET_FRAME), repeats=5
        )
        assert zc.bytes_read == copying.bytes_read

    save_json_record(
        "bench_archive_zero_copy",
        {
            "frame_count": FRAME_COUNT,
            "frame_size": FRAME_SIZE,
            "payload_read_view_seconds": view_seconds,
            "payload_read_copy_seconds": copy_seconds,
            "payload_read_speedup": read_speedup,
            "decode_zero_copy_seconds": zc_decode_seconds,
            "decode_copy_seconds": copy_decode_seconds,
            "decode_speedup": copy_decode_seconds / zc_decode_seconds,
        },
    )
