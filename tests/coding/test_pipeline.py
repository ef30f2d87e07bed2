"""Tests for the batched compression pipeline (repro.coding.pipeline)."""

import numpy as np
import pytest

from repro.coding.pipeline import (
    compress_frames,
    decompress_frames,
    max_dyadic_scales,
)
from repro.coding.spec import CodecSpec
from repro.imaging.mr import mr_slice
from repro.imaging.phantoms import (
    checkerboard,
    gradient_image,
    random_image,
    shepp_logan,
)


def mixed_batch():
    """A batch of >= 8 mixed-size, mixed-content frames."""
    return [
        shepp_logan(64),
        shepp_logan(128),
        gradient_image(32),
        checkerboard(64, tile=8),
        random_image(96, seed=3),
        mr_slice(128),
        gradient_image(48),
        random_image(40, seed=7),
        shepp_logan(256),
    ]


class TestMaxDyadicScales:
    def test_power_of_two(self):
        assert max_dyadic_scales((64, 64)) == 6
        assert max_dyadic_scales((256, 256)) == 8

    def test_mixed_dimensions(self):
        assert max_dyadic_scales((64, 32)) == 5
        assert max_dyadic_scales((48, 48)) == 4
        assert max_dyadic_scales((40, 40)) == 3

    def test_odd_unsupported(self):
        assert max_dyadic_scales((63, 63)) == 0


class TestCompressDecompressFrames:
    @pytest.mark.parametrize("codec", ["s-transform", "coefficient"])
    def test_mixed_batch_roundtrip_lossless(self, codec):
        frames = mixed_batch()
        batch = compress_frames(frames, spec=CodecSpec(codec=codec, scales=4))
        decoded, stats = decompress_frames(batch)
        assert len(decoded) == len(frames)
        for original, reconstructed in zip(frames, decoded):
            assert np.array_equal(original, reconstructed)
        assert stats.frames == len(frames)
        assert stats.pixels == sum(int(f.size) for f in frames)

    def test_byte_identical_to_scalar_codec(self):
        frames = mixed_batch()
        fast = compress_frames(
            frames,
            spec=CodecSpec(codec="s-transform", scales=4, engine="fast"),
        )
        scalar = compress_frames(
            frames,
            spec=CodecSpec(codec="s-transform", scales=4, engine="scalar"),
        )
        for stream_fast, stream_scalar in zip(fast.streams, scalar.streams):
            assert stream_fast.chunks == stream_scalar.chunks

    def test_cross_engine_decode(self):
        frames = mixed_batch()[:4]
        batch = compress_frames(frames, spec=CodecSpec(codec="s-transform", scales=4))
        decoded, _ = decompress_frames(batch, engine="scalar")
        for original, reconstructed in zip(frames, decoded):
            assert np.array_equal(original, reconstructed)

    def test_scales_clamped_per_frame(self):
        batch = compress_frames(
            [shepp_logan(64), random_image(40, seed=1)],
            spec=CodecSpec(scales=5),
        )
        assert batch.streams[0].scales == 5
        assert batch.streams[1].scales == 3  # 40 = 8 * 5 supports only 3 scales

    def test_stats_accounting(self):
        frames = mixed_batch()
        batch = compress_frames(frames, spec=CodecSpec(codec="s-transform", scales=4))
        stats = batch.stats
        assert set(stats.stage_seconds) == {"transform", "entropy_encode"}
        assert stats.total_seconds > 0
        assert stats.compressed_bytes == batch.compressed_bytes
        assert stats.raw_bytes == batch.original_bytes
        assert batch.compression_ratio == pytest.approx(
            stats.raw_bytes / stats.compressed_bytes
        )
        assert "Mpixel/s" in stats.render()

    def test_compresses_smooth_content(self):
        batch = compress_frames(
            [shepp_logan(128)] * 2,
            spec=CodecSpec(codec="s-transform", scales=4),
        )
        assert batch.compression_ratio > 1.2

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError):
            compress_frames([shepp_logan(64)], spec=CodecSpec(codec="jpeg2000"))

    def test_undecomposable_frame_rejected(self):
        with pytest.raises(ValueError):
            compress_frames([np.zeros((63, 63), dtype=np.int64)])

    def test_coefficient_codec_options_forwarded(self):
        batch = compress_frames(
            [shepp_logan(32)],
            spec=CodecSpec(codec="coefficient", scales=2, bank="F1", use_rle=False),
        )
        assert batch.streams[0].bank_name == "F1"
        decoded, _ = decompress_frames(batch)
        assert np.array_equal(decoded[0], shepp_logan(32))


class TestAcceleratorTransform:
    """End-to-end image -> accelerator transform -> codec -> bitstream path."""

    def square_frames(self):
        return [shepp_logan(64), random_image(32, seed=11), shepp_logan(128)]

    def test_streams_wire_identical_to_software_transform(self):
        frames = self.square_frames()
        software = compress_frames(
            frames,
            spec=CodecSpec(codec="coefficient", scales=3),
        )
        hardware = compress_frames(
            frames,
            spec=CodecSpec(codec="coefficient", scales=3, transform="accelerator"),
        )
        assert hardware.spec.transform == "accelerator"
        for sw, hw in zip(software.streams, hardware.streams):
            assert sw.chunks == hw.chunks

    def test_roundtrip_lossless_with_run_reports(self):
        frames = self.square_frames()
        batch = compress_frames(
            frames,
            spec=CodecSpec(codec="coefficient", scales=3, transform="accelerator"),
        )
        reports = batch.stats.accelerator_reports
        assert len(reports) == len(frames)
        assert all(report.direction == "forward" for report in reports)
        assert all(report.macrocycles > 0 for report in reports)
        decoded, stats = decompress_frames(batch)
        for original, reconstructed in zip(frames, decoded):
            assert np.array_equal(original, reconstructed)
        # The batch remembers its transform: decode also ran the accelerator.
        assert len(stats.accelerator_reports) == len(frames)
        assert all(report.direction == "inverse" for report in stats.accelerator_reports)

    def test_cross_transform_decode(self):
        frames = self.square_frames()
        hardware = compress_frames(
            frames,
            spec=CodecSpec(codec="coefficient", scales=3, transform="accelerator"),
        )
        decoded, stats = decompress_frames(hardware, transform="software")
        for original, reconstructed in zip(frames, decoded):
            assert np.array_equal(original, reconstructed)
        assert stats.accelerator_reports == []
        software = compress_frames(
            frames,
            spec=CodecSpec(codec="coefficient", scales=3),
        )
        decoded, stats = decompress_frames(software, transform="accelerator")
        for original, reconstructed in zip(frames, decoded):
            assert np.array_equal(original, reconstructed)
        assert len(stats.accelerator_reports) == len(frames)

    def test_scalar_transform_engine(self):
        frames = [random_image(32, seed=2)]
        fast = compress_frames(
            frames,
            spec=CodecSpec(codec="coefficient", scales=2, transform="accelerator"),
        )
        scalar = compress_frames(
            frames,
            spec=CodecSpec(
                codec="coefficient",
                scales=2,
                transform="accelerator",
                transform_engine="scalar",
            ),
        )
        for a, b in zip(fast.streams, scalar.streams):
            assert a.chunks == b.chunks
        assert [r.macrocycles for r in fast.stats.accelerator_reports] == [
            r.macrocycles for r in scalar.stats.accelerator_reports
        ]

    def test_custom_bank_rejected(self):
        # A non-catalog bank would silently be replaced by the catalog taps
        # of the same name inside the accelerator config; refuse instead.
        import dataclasses

        from repro.filters.catalog import get_bank

        custom = dataclasses.replace(get_bank("F2"))
        with pytest.raises(ValueError, match="catalog"):
            compress_frames(
                [shepp_logan(64)],
                spec=CodecSpec(
                    codec="coefficient", scales=2, transform="accelerator", bank=custom
                ),
            )

    def test_s_transform_codec_rejected(self):
        with pytest.raises(ValueError):
            compress_frames([shepp_logan(64)], spec=CodecSpec(transform="accelerator"))

    def test_unknown_transform_rejected(self):
        with pytest.raises(ValueError):
            compress_frames(
                [shepp_logan(64)],
                spec=CodecSpec(codec="coefficient", transform="fpga"),
            )

    def test_non_square_frame_rejected(self):
        with pytest.raises(ValueError):
            compress_frames(
                [np.zeros((64, 32), dtype=np.int64)],
                spec=CodecSpec(codec="coefficient", transform="accelerator"),
            )

    @pytest.mark.parametrize("transform_engine", ["fast", "scalar"])
    def test_non_square_stream_rejected_on_decode(self, transform_engine):
        # A rectangular frame compresses fine on the software path, but
        # decoding it through the square-only accelerator must fail with a
        # clean ValueError, not run (or crash) on a rectangle.
        batch = compress_frames(
            [np.arange(64 * 32, dtype=np.int64).reshape(64, 32) % 4096],
            spec=CodecSpec(codec="coefficient", scales=3),
        )
        with pytest.raises(ValueError, match="square"):
            decompress_frames(
                batch, transform="accelerator", transform_engine=transform_engine
            )
