"""Per-frame Rice encode and decode cost on S-transform subbands.

Not a paper table: this is the rerunnable record of the entropy coder's
share of a frame.  Sixteen CT and MR frames (8 + 8, the codec's medical
classes, from :mod:`repro.imaging`) per size, 256x256 and 512x512, go
through the codec's 4-scale forward S-transform and zig-zag mapping; each
frame's 13 subband blocks are then Rice encoded and decoded with the fast
tier.  The record holds per-frame milliseconds (median over frames of the
best of ``REPEATS``) for encode, decode and the three encode steps:

* ``choose_k`` — :func:`~repro.coding.rice.optimal_rice_parameter`;
* ``code_words`` — each symbol's code as one ``uint64`` plus its length;
* ``pack`` — :func:`~repro.coding.fastbits.pack_codes`, the word packer.

Each step is timed on its own loop, so the steps need not add up to
``encode``.  One 256x256 frame is checked byte for byte against
``rice_encode_scalar``.  No speed gate: the numbers are recorded in
``reports/bench_rice_codec.json`` for the trajectory.
"""

import time

import numpy as np

from repro.coding.fastbits import pack_codes
from repro.coding.mapper import zigzag_encode
from repro.coding.rice import (
    MAX_RICE_PARAMETER,
    _code_words,
    optimal_rice_parameter,
    rice_decode_array,
    rice_encode,
    rice_encode_scalar,
)
from repro.coding.s_transform import STransformCodec
from repro.imaging import ct_slice_series, mr_slice

SIZES = (256, 512)
FRAMES_PER_CLASS = 8
SCALES = 4
REPEATS = 3


def _frames(size):
    """The sixteen test frames of one size: CT slices, then MR slices."""
    frames = ct_slice_series(count=FRAMES_PER_CLASS, size=size, seed=size)
    return frames + [mr_slice(size=size, seed=size + i) for i in range(FRAMES_PER_CLASS)]


def _subband_blocks(image):
    """Zig-zag symbol blocks of every subband of one frame, as the codec codes them."""
    pyramid = STransformCodec(scales=SCALES).forward_transform(image)
    bands = [pyramid.approximation]
    bands += [band for scale in pyramid.details for band in scale.values()]
    return [zigzag_encode(np.asarray(band, dtype=np.int64).ravel()) for band in bands]


def _best_ms(fn, blocks):
    best = float("inf")
    for _ in range(REPEATS):
        began = time.perf_counter()
        for block in blocks:
            fn(block)
        best = min(best, time.perf_counter() - began)
    return best * 1e3


def _frame_costs(blocks):
    ks = [optimal_rice_parameter(block) for block in blocks]
    words = [_code_words(block, k) for block, k in zip(blocks, ks)]
    encoded = [rice_encode(block) for block in blocks]
    costs = {
        "encode": _best_ms(rice_encode, blocks),
        "decode": _best_ms(rice_decode_array, encoded),
        "choose_k": _best_ms(optimal_rice_parameter, blocks),
        "code_words": _best_ms(lambda pair: _code_words(*pair), list(zip(blocks, ks))),
        "pack": _best_ms(lambda pair: pack_codes(*pair), words),
    }
    for block, blob in zip(blocks, encoded):
        assert np.array_equal(rice_decode_array(blob), block)
    return costs, ks, sum(len(blob) for blob in encoded)


def test_rice_codec_per_frame(save_json_record):
    record = {"frames_per_size": 2 * FRAMES_PER_CLASS, "scales": SCALES, "repeats": REPEATS}
    for size in SIZES:
        per_frame = [_frame_costs(_subband_blocks(image)) for image in _frames(size)]
        ms = {
            step: float(np.median([costs[step] for costs, _, _ in per_frame]))
            for step in per_frame[0][0]
        }
        record[f"{size}x{size}"] = {
            "ms_per_frame": ms,
            "decode_over_encode": ms["decode"] / ms["encode"],
            "parameters_used": sorted({k for _, ks, _ in per_frame for k in ks}),
            "bits_per_pixel": float(np.mean([8 * nbytes for _, _, nbytes in per_frame])) / size ** 2,
        }
        assert all(0 <= k <= MAX_RICE_PARAMETER for _, ks, _ in per_frame for k in ks)
    save_json_record("bench_rice_codec", record)


def test_rice_codec_matches_scalar_on_one_frame():
    for block in _subband_blocks(_frames(256)[0]):
        assert rice_encode(block) == rice_encode_scalar(block)
