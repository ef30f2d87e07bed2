"""Rice (Golomb power-of-two) coding of non-negative integers.

Rice codes are the standard low-complexity entropy coder for wavelet and
predictive residuals (they are what lossless JPEG-LS and CCSDS use).  A
symbol ``s`` is coded with parameter ``k`` as the unary quotient
``s >> k`` followed by the ``k`` low-order bits.  The optimal ``k`` tracks
the mean of the symbols; :func:`optimal_rice_parameter` picks it per block
with an exact search over the convex code-length curve (Rice code lengths are
``(s >> k) + 1 + k``, no re-encoding needed).

Two implementations of the block coder are provided:

* :func:`rice_encode` / :func:`rice_decode` — vectorised NumPy paths built on
  :mod:`repro.coding.fastbits` (each code packed into ``uint64`` words at its
  bit offset, sequential decode via pointer doubling over the stream's zero
  positions), and
* :func:`rice_encode_scalar` / :func:`rice_decode_scalar` — the original
  bit-by-bit reference implementations, kept for validation (mirroring the
  ``analysis_convolve`` / ``analysis_convolve_scalar`` idiom of the DWT).

Both produce **byte-identical** streams; the wire format is
``k (8 bits) | count (32 bits) | Rice codes | zero padding to a byte``.
"""

from __future__ import annotations

import operator
from typing import List, Optional

import numpy as np

from .bitstream import BitReader, BitWriter
from .fastbits import (
    as_symbol_array,
    bit_windows64,
    orbit,
    pack_codes,
    read_uint,
    unpack_bits,
)

__all__ = [
    "rice_encode_value",
    "rice_decode_value",
    "rice_encode",
    "rice_decode",
    "rice_decode_array",
    "rice_encode_scalar",
    "rice_decode_scalar",
    "rice_code_length",
    "optimal_rice_parameter",
]

#: Largest Rice parameter considered by the optimiser (32-bit symbols).
MAX_RICE_PARAMETER = 30


def _check_non_negative(arr: np.ndarray) -> None:
    if arr.size and int(arr.min()) < 0:
        raise ValueError("Rice codes encode non-negative integers")


def rice_encode_value(writer: BitWriter, value: int, k: int) -> None:
    """Append the Rice code of one non-negative ``value`` with parameter ``k``."""
    if value < 0:
        raise ValueError("Rice codes encode non-negative integers")
    if not 0 <= k <= MAX_RICE_PARAMETER:
        raise ValueError(f"Rice parameter {k} outside [0, {MAX_RICE_PARAMETER}]")
    quotient = value >> k
    writer.write_unary(quotient)
    if k:
        writer.write_uint(value & ((1 << k) - 1), k)


def rice_decode_value(reader: BitReader, k: int) -> int:
    """Read one Rice-coded value with parameter ``k``."""
    if not 0 <= k <= MAX_RICE_PARAMETER:
        raise ValueError(f"Rice parameter {k} outside [0, {MAX_RICE_PARAMETER}]")
    quotient = reader.read_unary()
    remainder = reader.read_uint(k) if k else 0
    return (quotient << k) | remainder


def rice_code_length(value: int, k: int) -> int:
    """Length in bits of the Rice code of ``value`` with parameter ``k``."""
    if value < 0:
        raise ValueError("Rice codes encode non-negative integers")
    return (value >> k) + 1 + k


def optimal_rice_parameter(symbols, max_k: int = MAX_RICE_PARAMETER) -> int:
    """Parameter ``k`` minimising the total code length of ``symbols``.

    Exact; ties resolve to the smallest ``k``.  An empty block returns 0.
    """
    arr = as_symbol_array(symbols)
    _check_non_negative(arr)
    return _optimal_parameter(arr, max_k)


def _optimal_parameter(arr: np.ndarray, max_k: int) -> int:
    """Smallest minimiser of ``C(k) = n (1 + k) + sum(s >> k)`` over ``[0, max_k]``.

    The gain of one more remainder bit, ``C(k) - C(k + 1) =
    sum(ceil((s >> k) / 2)) - n``, is non-increasing in ``k``, so ``C`` is
    convex and the answer is the first ``k`` whose gain is <= 0.  Since
    ``ceil(x / 2) <= x``, that holds once ``n * 2**k >= sum(s)``: the search
    starts at that ``k`` (capped at ``max_k``) and steps down while the next
    smaller ``k`` gains nothing.  One pass sums the block and each step is
    one more; real subbands take at most three steps, where a full cost
    curve takes one pass per bit plane.
    """
    if max_k < 0:
        raise ValueError(f"max_k must be non-negative, got {max_k}")
    n = arr.size
    if n == 0:
        return 0
    values = arr.view(np.uint64)
    ceil_mean = -(-int(values.sum()) // n)
    k = min(max(ceil_mean - 1, 0).bit_length(), max_k)
    # ceil((s >> (k - 1)) / 2) == (s + 2**(k - 1)) >> k
    while k > 0 and int(((values + (1 << (k - 1))) >> k).sum()) <= n:
        k -= 1
    return k


# ---------------------------------------------------------------------------
# Vectorised block coder
# ---------------------------------------------------------------------------

def rice_encode(symbols, k: Optional[int] = None) -> bytes:
    """Encode a block of non-negative symbols; returns ``header + payload``.

    The chosen parameter (one byte) and the symbol count (four bytes) are
    stored in front of the payload so that :func:`rice_decode` is
    self-contained.  Vectorised: each code — ``q = s >> k`` ones, a zero,
    then the ``k`` remainder bits — is built as one ``uint64`` and
    :func:`~repro.coding.fastbits.pack_codes` ORs the codes into words.
    """
    arr = as_symbol_array(symbols)
    _check_non_negative(arr)
    k = _optimal_parameter(arr, MAX_RICE_PARAMETER) if k is None else operator.index(k)
    if not 0 <= k <= MAX_RICE_PARAMETER:
        raise ValueError(f"Rice parameter {k} outside [0, {MAX_RICE_PARAMETER}]")
    header = ((k << 32) | arr.size).to_bytes(5, "big")
    return header + pack_codes(*_code_words(arr, k))


def _code_words(arr: np.ndarray, k: int):
    """Every symbol's Rice code as ``(last <= 64 bits, length)`` ``uint64`` pairs."""
    values = arr.view(np.uint64)
    lengths = (values >> np.uint64(k)) + np.uint64(k + 1)
    # The code's value is 2**length - 2**(k + 1) + remainder.  NumPy shifts
    # by 64 or more give 0, so past 64 bits this wraps to the code's last 64
    # bits: 63 - k ones, the zero, the remainder — what pack_codes expects.
    codes = (np.uint64(1) << lengths) - np.uint64(2 << k)
    if k:
        codes += values & np.uint64((1 << k) - 1)
    return codes, lengths


def _skipped_zero_counts(zero_positions: np.ndarray, k: int) -> np.ndarray:
    """Zeros falling inside the ``k`` remainder bits after each zero.

    At most ``k`` zeros fit in that window, and ``zero_positions`` is
    sorted, so a handful of shifted compares (with an early exit once a
    distance yields no hits) counts them exactly.
    """
    nzeros = zero_positions.size
    padded = np.concatenate(
        [zero_positions, np.full(k, np.iinfo(np.int32).max, dtype=np.int32)]
    )
    skipped = np.zeros(nzeros, dtype=np.int32)
    for distance in range(1, k + 1):
        in_window = (padded[distance : distance + nzeros] - zero_positions) <= k
        if not in_window.any():
            break
        skipped += in_window
    return skipped


#: From this parameter up, remainders are read through 64-bit bit windows
#: (two gathers per symbol) instead of one bit-plane pass per remainder bit.
_WINDOW_MIN_K = 6


def rice_decode_array(data) -> np.ndarray:
    """Vectorised inverse of :func:`rice_encode`, returning an ``int64`` array.

    The sequential "where does the next code start" dependency is solved on
    the stream's zero positions: zero ``j`` terminates a quotient, and the
    zero terminating the *next* quotient has index ``j + 1 + (zeros among the
    k remainder bits after j)`` — a successor map that :func:`orbit` follows
    for all symbols at once.  Remainders of ``k >= 6`` are read from 64-bit
    bit windows (:func:`~repro.coding.fastbits.bit_windows64`) in one vector
    expression; smaller parameters take ``k`` bit-plane passes, which are
    cheaper there.  Accepts ``bytes`` or ``memoryview`` input.

    Work and memory are bounded by the input size: every code takes at
    least ``k + 1`` bits, so a header count the payload cannot hold raises
    :class:`EOFError` before anything count-sized is allocated.
    """
    bits = unpack_bits(data)
    k = read_uint(bits, 0, 8)
    count = read_uint(bits, 8, 32)
    if not 0 <= k <= MAX_RICE_PARAMETER:
        raise ValueError(f"Rice parameter {k} outside [0, {MAX_RICE_PARAMETER}]")
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    nbits = bits.size
    start = 40
    if count * (k + 1) > nbits - start:
        raise EOFError("bitstream exhausted")
    zero_positions = np.flatnonzero(bits == 0).astype(np.int32)
    nzeros = zero_positions.size
    first = int(np.searchsorted(zero_positions, start))
    if first >= nzeros:
        raise EOFError("bitstream exhausted")
    if k == 0:
        terminator_idx = first + np.arange(count, dtype=np.int64)
        if int(terminator_idx[-1]) >= nzeros:
            raise EOFError("bitstream exhausted")
    else:
        # successor[j]: index of the zero terminating the next code when zero
        # j terminates the current one — skip the zeros that fall inside the
        # k remainder bits after j.
        skipped = _skipped_zero_counts(zero_positions, k)
        successor = np.minimum(
            np.arange(1, nzeros + 1, dtype=np.int32) + skipped, nzeros - 1
        )
        terminator_idx = orbit(successor, first, count)
        if count > 1 and np.any(np.diff(terminator_idx) <= 0):
            raise EOFError("bitstream exhausted")
    terminators = zero_positions[terminator_idx].astype(np.int64)
    starts = np.empty(count, dtype=np.int64)
    starts[0] = start
    starts[1:] = terminators[:-1] + 1 + k
    quotients = terminators - starts
    if k == 0:
        return quotients
    if int(terminators[-1]) + k >= nbits:
        raise EOFError("bitstream exhausted")
    if k >= _WINDOW_MIN_K:
        windows = bit_windows64(data)
        remainder_pos = terminators + 1
        remainders = (
            (windows[remainder_pos >> 3] << (remainder_pos & 7).astype(np.uint64))
            >> np.uint64(64 - k)
        ).astype(np.int64)
    else:
        remainders = np.zeros(count, dtype=np.int64)
        for plane in range(k):
            remainders = (remainders << 1) | bits[terminators + 1 + plane]
    return (quotients << k) | remainders


def rice_decode(data) -> List[int]:
    """Inverse of :func:`rice_encode` (list-of-int API)."""
    return rice_decode_array(data).tolist()


# ---------------------------------------------------------------------------
# Scalar reference implementations (bit-by-bit, used for validation)
# ---------------------------------------------------------------------------

def rice_encode_scalar(symbols, k: Optional[int] = None) -> bytes:
    """Bit-by-bit reference encoder; byte-identical to :func:`rice_encode`."""
    arr = as_symbol_array(symbols)
    _check_non_negative(arr)
    if k is None:
        k = optimal_rice_parameter(arr)
    writer = BitWriter()
    writer.write_uint(k, 8)
    writer.write_uint(arr.size, 32)
    for symbol in arr.tolist():
        rice_encode_value(writer, symbol, k)
    return writer.getvalue()


def rice_decode_scalar(data: bytes) -> List[int]:
    """Bit-by-bit reference decoder; inverse of both encoders."""
    reader = BitReader(data)
    k = reader.read_uint(8)
    count = reader.read_uint(32)
    return [rice_decode_value(reader, k) for _ in range(count)]
