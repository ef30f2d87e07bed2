"""Extension benchmark — the lossless codecs on medical-image workloads.

Not a paper table: the paper does not specify an entropy-coding back end.
This bench characterises the two extension codecs (coefficient-exact and
S-transform) on the synthetic medical workloads so that downstream users
know what to expect from each, and measures the vectorised coding engine
against the scalar reference at the paper's full 512x512 frame size.
"""

import time

import numpy as np

from repro.coding.codec import LosslessWaveletCodec
from repro.coding.pipeline import compress_frames, decompress_frames
from repro.coding.s_transform import STransformCodec
from repro.coding.spec import CodecSpec
from repro.imaging.dataset import standard_dataset
from repro.imaging.phantoms import shepp_logan


def test_codec_s_transform_compression(benchmark):
    """S-transform codec on a 256x256 CT phantom: lossless and compressive."""
    codec = STransformCodec(scales=5)
    image = shepp_logan(256)

    reconstructed, stream = benchmark(codec.roundtrip, image)
    assert np.array_equal(reconstructed, image)
    assert stream.compression_ratio > 1.2
    assert stream.bits_per_pixel < 10.0


def test_codec_coefficient_exact_roundtrip(benchmark):
    """Coefficient-exact codec on a 128x128 phantom: lossless (size expands)."""
    codec = LosslessWaveletCodec("F2", scales=3)
    image = shepp_logan(128)

    reconstructed, stream = benchmark(codec.roundtrip, image)
    assert np.array_equal(reconstructed, image)
    assert stream.compressed_bytes > 0


def test_codec_s_transform_512_fast_vs_scalar(benchmark, save_json_record):
    """512x512 roundtrip: vectorised engine benchmarked, >= 10x over scalar.

    The scalar reference engine produces byte-identical streams, so timing
    both engines on the same input (best of three passes each, symmetric
    noise floors) is an apples-to-apples speedup measurement.
    """
    image = shepp_logan(512)
    fast_codec = STransformCodec(scales=5, engine="fast")
    scalar_codec = STransformCodec(scales=5, engine="scalar")

    reconstructed, stream = benchmark(fast_codec.roundtrip, image)
    assert np.array_equal(reconstructed, image)
    assert stream.compression_ratio > 1.2

    fast_seconds = min(_timed(fast_codec.roundtrip, image) for _ in range(3))
    scalar_seconds = min(_timed(scalar_codec.roundtrip, image) for _ in range(3))
    speedup = scalar_seconds / fast_seconds
    save_json_record(
        "codec_speedup_512",
        {
            "image": "shepp_logan_512",
            "scales": 5,
            "fast_seconds": fast_seconds,
            "scalar_seconds": scalar_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= 10.0


def _timed(fn, *args) -> float:
    began = time.perf_counter()
    fn(*args)
    return time.perf_counter() - began


def test_codec_batched_pipeline(benchmark):
    """compress_frames/decompress_frames over a mixed-size batch."""
    frames = [shepp_logan(size) for size in (64, 128, 256, 128, 64, 96, 160, 192)]

    def roundtrip_batch():
        batch = compress_frames(frames, spec=CodecSpec(codec="s-transform", scales=4))
        decoded, _ = decompress_frames(batch)
        return batch, decoded

    batch, decoded = benchmark(roundtrip_batch)
    assert all(np.array_equal(a, b) for a, b in zip(frames, decoded))
    assert batch.compression_ratio > 1.2
    assert set(batch.stats.stage_seconds) == {"transform", "entropy_encode"}


def test_codec_workload_sweep(benchmark):
    """S-transform codec across the standard workload mix (CT, MR, ramp, noise)."""
    codec = STransformCodec(scales=4)
    dataset = standard_dataset(size=64)

    def compress_all():
        ratios = {}
        for name, image in dataset:
            reconstructed, stream = codec.roundtrip(image)
            assert np.array_equal(reconstructed, image)
            ratios[name] = stream.compression_ratio
        return ratios

    ratios = benchmark(compress_all)
    # Smooth medical content compresses; uniform noise does not.
    assert ratios["ct_phantom"] > ratios["random"]
