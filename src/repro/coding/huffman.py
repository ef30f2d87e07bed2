"""Canonical Huffman coding of bounded symbol alphabets.

Used by the codec for the *category* stream (the bucketed magnitudes of the
wavelet coefficients, JPEG-style), where the alphabet is small (< 64
symbols) and a static canonical code transmitted as a table of code lengths
is both compact and fast to rebuild.

The code construction is deliberately self-contained (no heapq tricks beyond
the standard algorithm) and exposes the intermediate artefacts — frequency
table, code lengths, canonical codes — so tests can check the classical
Huffman invariants (Kraft equality, optimality against a brute-force check
on small alphabets).

Like the Rice coder, the block coder has two wire-identical implementations:

* :func:`huffman_encode` / :func:`huffman_decode` — vectorised: encoding
  gathers per-symbol (code, length) from lookup tables and expands them in
  one :func:`~repro.coding.fastbits.pack_uint_fields` call; decoding peeks
  the maximum code length at every bit position, resolves each peek through
  a dense prefix table, and follows the resulting code-length successor map
  with :func:`~repro.coding.fastbits.orbit`.
* :func:`huffman_encode_scalar` / :func:`huffman_decode_scalar` — the
  original symbol-by-symbol reference implementations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .bitstream import BitReader, BitWriter
from .fastbits import (
    as_symbol_array,
    bit_windows64,
    orbit,
    pack_bits,
    pack_uint_fields,
    read_uint,
    read_uints,
)

__all__ = [
    "HuffmanCode",
    "build_code_lengths",
    "canonical_codes",
    "huffman_encode",
    "huffman_decode",
    "huffman_encode_scalar",
    "huffman_decode_scalar",
]


def build_code_lengths(frequencies: Dict[int, int]) -> Dict[int, int]:
    """Huffman code length of every symbol with non-zero frequency.

    A single-symbol alphabet gets a 1-bit code (degenerate but decodable).
    """
    items = [(freq, symbol) for symbol, freq in frequencies.items() if freq > 0]
    if not items:
        return {}
    if len(items) == 1:
        return {items[0][1]: 1}
    # Standard Huffman construction over a heap of (weight, tiebreak, node).
    heap: List[Tuple[int, int, Tuple]] = []
    for counter, (freq, symbol) in enumerate(sorted(items)):
        heapq.heappush(heap, (freq, counter, ("leaf", symbol)))
    counter = len(items)
    while len(heap) > 1:
        freq_a, _, node_a = heapq.heappop(heap)
        freq_b, _, node_b = heapq.heappop(heap)
        heapq.heappush(heap, (freq_a + freq_b, counter, ("node", node_a, node_b)))
        counter += 1
    _, _, root = heap[0]

    lengths: Dict[int, int] = {}

    def walk(node: Tuple, depth: int) -> None:
        if node[0] == "leaf":
            lengths[node[1]] = max(1, depth)
            return
        walk(node[1], depth + 1)
        walk(node[2], depth + 1)

    walk(root, 0)
    return lengths


def canonical_codes(lengths: Dict[int, int]) -> Dict[int, Tuple[int, int]]:
    """Canonical ``{symbol: (code, length)}`` assignment from code lengths.

    Symbols are ordered by (length, symbol value); codes are assigned in
    increasing numeric order, which is the canonical-Huffman convention that
    lets the decoder rebuild the code from the lengths alone.
    """
    ordered = sorted(lengths.items(), key=lambda item: (item[1], item[0]))
    codes: Dict[int, Tuple[int, int]] = {}
    code = 0
    previous_length = 0
    for symbol, length in ordered:
        code <<= (length - previous_length)
        codes[symbol] = (code, length)
        code += 1
        previous_length = length
    return codes


@dataclass(frozen=True)
class HuffmanCode:
    """A canonical Huffman code over a bounded non-negative alphabet."""

    lengths: Dict[int, int]

    @classmethod
    def from_symbols(cls, symbols: Iterable[int]) -> "HuffmanCode":
        """Build the optimal code for the empirical distribution of ``symbols``."""
        arr = as_symbol_array(symbols)
        if arr.size and int(arr.min()) < 0:
            raise ValueError("Huffman symbols must be non-negative")
        uniques, counts = np.unique(arr, return_counts=True)
        frequencies = {int(s): int(c) for s, c in zip(uniques, counts)}
        return cls(lengths=build_code_lengths(frequencies))

    @property
    def codes(self) -> Dict[int, Tuple[int, int]]:
        return canonical_codes(self.lengths)

    @property
    def max_symbol(self) -> int:
        return max(self.lengths) if self.lengths else 0

    def kraft_sum(self) -> float:
        """Kraft sum of the code (== 1 for a complete code, <= 1 always)."""
        return sum(2.0 ** -length for length in self.lengths.values())

    def expected_length(self, frequencies: Dict[int, int]) -> float:
        """Average code length under ``frequencies`` (bits/symbol)."""
        total = sum(frequencies.values())
        if total == 0:
            return 0.0
        return sum(
            frequencies.get(symbol, 0) * length for symbol, length in self.lengths.items()
        ) / total

    def lookup_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dense ``(code, length)`` arrays indexed by symbol (0 = no code)."""
        alphabet = self.max_symbol + 1 if self.lengths else 0
        code_table = np.zeros(alphabet, dtype=np.int64)
        length_table = np.zeros(alphabet, dtype=np.int64)
        for symbol, (code, length) in self.codes.items():
            code_table[symbol] = code
            length_table[symbol] = length
        return code_table, length_table

    # -- serialisation of the code itself ------------------------------------------------
    def write_table(self, writer: BitWriter) -> None:
        """Write the code as a dense table of 5-bit lengths (0 = absent)."""
        alphabet = self.max_symbol + 1 if self.lengths else 0
        writer.write_uint(alphabet, 16)
        for symbol in range(alphabet):
            writer.write_uint(self.lengths.get(symbol, 0), 5)

    def table_bits(self) -> np.ndarray:
        """The :meth:`write_table` stream as a bit array (vectorised path)."""
        alphabet = self.max_symbol + 1 if self.lengths else 0
        _, length_table = self.lookup_tables()
        values = np.concatenate([[alphabet], length_table])
        widths = np.concatenate([[16], np.full(alphabet, 5, dtype=np.int64)])
        return pack_uint_fields(values, widths)

    @classmethod
    def read_table(cls, reader: BitReader) -> "HuffmanCode":
        alphabet = reader.read_uint(16)
        lengths: Dict[int, int] = {}
        for symbol in range(alphabet):
            length = reader.read_uint(5)
            if length:
                lengths[symbol] = length
        return cls(lengths=lengths)


# ---------------------------------------------------------------------------
# Vectorised block coder
# ---------------------------------------------------------------------------

def huffman_encode(symbols, code: HuffmanCode = None) -> bytes:
    """Encode ``symbols`` with a (possibly provided) canonical Huffman code.

    The code table and the symbol count are embedded so the stream is
    self-contained.  Byte-identical to :func:`huffman_encode_scalar`.
    """
    arr = as_symbol_array(symbols)
    if arr.size and int(arr.min()) < 0:
        raise ValueError("Huffman symbols must be non-negative")
    if code is None:
        code = HuffmanCode.from_symbols(arr)
    code_table, length_table = code.lookup_tables()
    if arr.size:
        if int(arr.max()) >= code_table.size:
            raise ValueError(
                f"symbol {int(arr[np.argmax(arr)])} is not part of the Huffman code"
            )
        lengths = length_table[arr]
        if not lengths.all():
            bad = int(arr[np.flatnonzero(lengths == 0)[0]])
            raise ValueError(f"symbol {bad} is not part of the Huffman code")
        payload = pack_uint_fields(code_table[arr], lengths)
    else:
        payload = np.zeros(0, dtype=np.uint8)
    header = np.concatenate([code.table_bits(), pack_uint_fields([arr.size], [32])])
    return pack_bits(np.concatenate([header, payload]))


#: Widest code the dense prefix table covers (2^L LUT entries); canonical
#: codes longer than this decode through :func:`huffman_decode_scalar`.
#: 16 bits is far beyond what the < 64-symbol category alphabets produce.
_LUT_MAX_CODE_LENGTH = 16


def huffman_decode(data) -> List[int]:
    """Inverse of :func:`huffman_encode` (prefix-LUT, vectorised).

    The decoder reads a 64-bit window at every payload bit position
    (:func:`~repro.coding.fastbits.bit_windows64`) and resolves its leading
    ``max_length`` bits through a dense ``2^max_length``-entry prefix table
    built once per block (symbol, code length and validity per possible
    peek), then follows the resulting code-length successor map with
    :func:`~repro.coding.fastbits.orbit`.  Tables with codes wider than
    16 bits fall back to :func:`huffman_decode_scalar`.  Accepts ``bytes``
    or ``memoryview`` without copying the payload.

    Work and memory are bounded by the input size: a header count above
    ``payload bits / shortest code length`` raises :class:`EOFError` before
    anything count-sized is allocated.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    nbytes = raw.size
    if nbytes < 2:
        raise EOFError("bitstream exhausted")
    alphabet = (int(raw[0]) << 8) | int(raw[1])
    header_bits = 16 + 5 * alphabet + 32
    header_bytes = (header_bits + 7) // 8
    if header_bytes > nbytes:
        raise EOFError("bitstream exhausted")
    head = np.unpackbits(raw[:header_bytes])
    length_table = read_uints(head, 16, alphabet, 5)
    offset = 16 + 5 * alphabet
    count = read_uint(head, offset, 32)
    offset += 32
    if count == 0:
        return []
    lengths = {int(s): int(l) for s, l in enumerate(length_table) if l}
    if not lengths:
        raise ValueError("corrupt Huffman stream (no code table)")
    ordered = sorted(lengths.items(), key=lambda item: (item[1], item[0]))
    usable = 8 * nbytes - offset
    if count > usable // ordered[0][1]:
        raise EOFError("bitstream exhausted")
    max_length = int(ordered[-1][1])
    if max_length > _LUT_MAX_CODE_LENGTH:
        return huffman_decode_scalar(data)
    codes = canonical_codes(lengths)
    symbols_sorted = np.asarray([s for s, _ in ordered], dtype=np.int64)
    lengths_sorted = np.asarray([l for _, l in ordered], dtype=np.int64)
    left_justified = np.asarray(
        [codes[s][0] << (max_length - l) for s, l in ordered], dtype=np.int64
    )
    # Dense prefix table over every possible max_length-bit peek.
    values = np.arange(1 << max_length, dtype=np.int64)
    entry_lut = np.searchsorted(left_justified, values, side="right") - 1
    length_lut = lengths_sorted[entry_lut].astype(np.int32)
    valid_lut = (values - left_justified[entry_lut]) < (
        np.int64(1) << (max_length - lengths_sorted[entry_lut])
    )
    symbol_lut = symbols_sorted[entry_lut]
    # Peek max_length bits at every payload position via the 64-bit windows
    # (zero-padded past the stream end).  Bit position p = 8 * (p >> 3) +
    # (p & 7) sees window (p >> 3) advanced by phase (p & 7), so eight
    # scalar-shift passes — one per phase, interleaved by the reshape —
    # cover every position without per-element shift amounts.
    windows = bit_windows64(raw)
    mask = np.uint64((1 << max_length) - 1)
    phased = np.empty((nbytes, 8), dtype=np.int32)
    for phase in range(8):
        phased[:, phase] = (
            (windows >> np.uint64(64 - max_length - phase)) & mask
        ).astype(np.int32)
    peek = phased.reshape(-1)[offset : offset + usable]
    # peek is masked into [0, 2^max_length), so the unchecked gather is safe.
    step = length_lut.take(peek, mode="clip")
    successor = np.minimum(
        np.arange(usable, dtype=np.int32) + step, np.int32(usable - 1)
    )
    positions = orbit(successor, 0, count)
    if not valid_lut[peek[positions]].all():
        raise ValueError("corrupt Huffman stream (no code within 32 bits)")
    steps = step[positions].astype(np.int64)
    if count > 1 and np.any(np.diff(positions) != steps[:-1]):
        raise EOFError("bitstream exhausted")
    if int(positions[-1] + steps[-1]) > usable:
        raise EOFError("bitstream exhausted")
    return symbol_lut[peek[positions]].tolist()


# ---------------------------------------------------------------------------
# Scalar reference implementations (bit-by-bit, used for validation)
# ---------------------------------------------------------------------------

def huffman_encode_scalar(symbols: Sequence[int], code: HuffmanCode = None) -> bytes:
    """Symbol-by-symbol reference encoder; byte-identical to :func:`huffman_encode`."""
    arr = as_symbol_array(symbols)
    if arr.size and int(arr.min()) < 0:
        raise ValueError("Huffman symbols must be non-negative")
    if code is None:
        code = HuffmanCode.from_symbols(arr)
    writer = BitWriter()
    code.write_table(writer)
    writer.write_uint(arr.size, 32)
    codes = code.codes
    for symbol in arr.tolist():
        if symbol not in codes:
            raise ValueError(f"symbol {symbol} is not part of the Huffman code")
        value, length = codes[symbol]
        writer.write_uint(value, length)
    return writer.getvalue()


def huffman_decode_scalar(data: bytes) -> List[int]:
    """Bit-by-bit reference decoder; inverse of both encoders."""
    reader = BitReader(data)
    code = HuffmanCode.read_table(reader)
    count = reader.read_uint(32)
    # Build a (length, code) -> symbol lookup for the canonical code.
    lookup: Dict[Tuple[int, int], int] = {
        (length, value): symbol for symbol, (value, length) in code.codes.items()
    }
    out: List[int] = []
    for _ in range(count):
        value = 0
        length = 0
        while True:
            value = (value << 1) | reader.read_bit()
            length += 1
            if (length, value) in lookup:
                out.append(lookup[(length, value)])
                break
            if length > 32:
                raise ValueError("corrupt Huffman stream (no code within 32 bits)")
    return out
