"""Lossless-compression verification (the central claim of §3).

"Lossless" in the paper means: forward transform, then inverse transform,
then rounding to integer pixels reproduces the original image bit-for-bit.
Because of finite-precision arithmetic this only holds if the word-length
plan leaves enough fractional bits at every scale — which is exactly what
the 32-bit word with Table II integer parts is designed to guarantee.

This module provides the verification report used by tests, examples and the
lossless benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..filters.catalog import get_bank
from ..filters.qmf import BiorthogonalBank
from ..fixedpoint.wordlength import WordLengthPlan, plan_word_lengths
from .transform import FixedPointDWT

__all__ = [
    "LosslessReport",
    "verify_lossless",
    "verify_lossless_batch",
    "lossless_word_length_search",
]


@dataclass(frozen=True)
class LosslessReport:
    """Result of one lossless round-trip check."""

    bank_name: str
    scales: int
    word_length: int
    image_shape: tuple
    lossless: bool
    max_abs_error: int
    mean_abs_error: float
    mismatched_pixels: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "LOSSLESS" if self.lossless else "LOSSY"
        return (
            f"[{status}] bank={self.bank_name} scales={self.scales} "
            f"word={self.word_length}b image={self.image_shape} "
            f"max|err|={self.max_abs_error} mismatches={self.mismatched_pixels}"
        )


def verify_lossless(
    image: np.ndarray,
    bank: BiorthogonalBank,
    scales: int,
    plan: Optional[WordLengthPlan] = None,
    rounding: str = "half_up",
) -> LosslessReport:
    """Run a fixed-point forward/inverse round trip and compare bit-for-bit."""
    engine = FixedPointDWT(bank, scales, plan=plan, rounding=rounding)
    image = np.asarray(image).astype(np.int64)
    reconstructed, _ = engine.roundtrip(image)
    diff = reconstructed - image
    mismatches = int(np.count_nonzero(diff))
    return LosslessReport(
        bank_name=bank.name,
        scales=scales,
        word_length=engine.plan.data_formats[1].word_length,
        image_shape=tuple(image.shape),
        lossless=mismatches == 0,
        max_abs_error=int(np.abs(diff).max()) if diff.size else 0,
        mean_abs_error=float(np.abs(diff).mean()) if diff.size else 0.0,
        mismatched_pixels=mismatches,
    )


def verify_lossless_batch(
    images: Sequence[np.ndarray],
    bank_name: str = "F2",
    scales: int = 4,
    engine: str = "fast",
) -> Tuple[List[LosslessReport], "object"]:
    """Round-trip a batch of images through the full coefficient-exact codec.

    Where :func:`verify_lossless` checks the bare transform arithmetic, this
    check exercises the complete compression path (fixed-point DWT → zig-zag
    → RLE → Rice and back) over many frames at once via the batched
    :mod:`repro.coding.pipeline`, returning one :class:`LosslessReport` per
    frame plus the pipeline's per-stage decode statistics.
    """
    from ..coding.pipeline import compress_frames, decompress_frames
    from ..coding.spec import CodecSpec

    spec = CodecSpec(codec="coefficient", scales=scales, engine=engine, bank=bank_name)
    batch = compress_frames(images, spec=spec)
    decoded, stats = decompress_frames(batch)
    plans: Dict[int, WordLengthPlan] = {}
    reports: List[LosslessReport] = []
    for original, reconstructed, stream in zip(images, decoded, batch.streams):
        if stream.scales not in plans:
            plans[stream.scales] = plan_word_lengths(get_bank(bank_name), stream.scales)
        original = np.asarray(original).astype(np.int64)
        diff = reconstructed - original
        mismatches = int(np.count_nonzero(diff))
        reports.append(
            LosslessReport(
                bank_name=bank_name,
                scales=stream.scales,
                word_length=plans[stream.scales].data_formats[1].word_length,
                image_shape=tuple(original.shape),
                lossless=mismatches == 0,
                max_abs_error=int(np.abs(diff).max()) if diff.size else 0,
                mean_abs_error=float(np.abs(diff).mean()) if diff.size else 0.0,
                mismatched_pixels=mismatches,
            )
        )
    return reports, stats


def lossless_word_length_search(
    image: np.ndarray,
    bank_name: str,
    scales: int,
    word_lengths: range = range(16, 40, 2),
) -> Dict[int, LosslessReport]:
    """Sweep the datapath word length and report when losslessness is reached.

    This is the ablation behind the paper's choice of 32 bits: shorter words
    leave too few fractional bits at the deeper scales and the round trip
    becomes lossy; the sweep shows where the transition happens for a given
    filter bank and image.
    """
    bank = get_bank(bank_name)
    results: Dict[int, LosslessReport] = {}
    for word_length in word_lengths:
        try:
            plan = plan_word_lengths(bank, scales, word_length=word_length)
        except Exception:
            # Word too short to even hold the integer part at the deepest scale.
            results[word_length] = LosslessReport(
                bank_name=bank_name,
                scales=scales,
                word_length=word_length,
                image_shape=tuple(np.asarray(image).shape),
                lossless=False,
                max_abs_error=-1,
                mean_abs_error=-1.0,
                mismatched_pixels=-1,
            )
            continue
        results[word_length] = verify_lossless(image, bank, scales, plan=plan)
    return results
