"""Property-based tests (hypothesis) for the entropy coders and codecs."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.coding.bitstream import BitReader, BitWriter
from repro.coding.huffman import HuffmanCode, huffman_decode, huffman_encode
from repro.coding.mapper import zigzag_decode, zigzag_encode
from repro.coding.rice import (
    optimal_rice_parameter,
    rice_decode,
    rice_encode,
    rice_encode_scalar,
)
from repro.coding.rle import rle_decode, rle_encode
from repro.coding.s_transform import (
    s_transform_forward_1d,
    s_transform_forward_2d,
    s_transform_inverse_1d,
    s_transform_inverse_2d,
)


class TestBitstreamProperties:
    @given(bits=st.lists(st.integers(0, 1), max_size=300))
    def test_bit_round_trip(self, bits):
        writer = BitWriter()
        writer.write_bits(bits)
        reader = BitReader(writer.getvalue())
        assert reader.read_bits(len(bits)) == bits

    @given(values=st.lists(st.tuples(st.integers(0, 2 ** 16 - 1), st.integers(1, 16)), max_size=50))
    def test_uint_round_trip(self, values):
        writer = BitWriter()
        for value, width in values:
            writer.write_uint(value & ((1 << width) - 1), width)
        reader = BitReader(writer.getvalue())
        for value, width in values:
            assert reader.read_uint(width) == value & ((1 << width) - 1)


class TestMapperProperties:
    @given(values=hnp.arrays(np.int64, st.integers(0, 200), elements=st.integers(-(2 ** 30), 2 ** 30)))
    def test_zigzag_round_trip(self, values):
        assert np.array_equal(zigzag_decode(zigzag_encode(values)), values)

    @given(values=hnp.arrays(np.int64, st.integers(1, 200), elements=st.integers(-(2 ** 30), 2 ** 30)))
    def test_zigzag_symbols_non_negative(self, values):
        assert zigzag_encode(values).min() >= 0


class TestRleProperties:
    @given(values=st.lists(st.integers(-5, 5), max_size=400))
    def test_rle_round_trip(self, values):
        assert list(rle_decode(rle_encode(values))) == values

    @given(values=st.lists(st.integers(-5, 5), max_size=400), max_run=st.integers(1, 16))
    def test_rle_round_trip_with_run_splitting(self, values, max_run):
        assert list(rle_decode(rle_encode(values, max_run=max_run))) == values


class TestRiceProperties:
    @given(symbols=st.lists(st.integers(0, 2 ** 20), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_rice_round_trip(self, symbols):
        assert rice_decode(rice_encode(symbols)) == symbols

    @given(symbols=st.lists(st.integers(0, 255), min_size=1, max_size=200), k=st.integers(0, 12))
    @settings(max_examples=50, deadline=None)
    def test_rice_round_trip_any_parameter(self, symbols, k):
        assert rice_decode(rice_encode(symbols, k=k)) == symbols


@st.composite
def _rice_block(draw, min_k=0):
    """A parameter and a block whose quotients sit where the word packer is
    tested hardest: at ``62 - k``, ``63 - k`` and ``64 - k`` (codes of 63,
    64 and 65 bits, the last one the shortest with a unary prefix), long
    enough that the prefix spans three or more 64-bit words, and short."""
    k = draw(st.integers(min_k, 30))
    quotient = st.one_of(
        st.integers(0, 4),
        st.sampled_from([62 - k, 63 - k, 64 - k]),
        st.integers(200, 260),
    )
    codes = draw(st.lists(st.tuples(quotient, st.integers(0, (1 << k) - 1)), max_size=40))
    return k, [(q << k) | r for q, r in codes]


def _brute_force_parameter(symbols, max_k):
    arr = np.asarray(symbols, dtype=np.int64)
    costs = [arr.size * (1 + k) + int((arr >> k).sum()) for k in range(max_k + 1)]
    return int(np.argmin(costs))  # first minimum: the smallest k on ties


class TestRiceWordPacking:
    @given(block=_rice_block())
    @settings(max_examples=150, deadline=None)
    # back-to-back long codes: one's 64-bit tail shares a word with the
    # next one's unary prefix
    @example(block=(0, [200, 200, 3, 64, 63, 62]))
    @example(block=(30, []))
    def test_fast_matches_scalar(self, block):
        k, symbols = block
        blob = rice_encode(symbols, k=k)
        assert blob == rice_encode_scalar(symbols, k=k)
        assert rice_decode(blob) == symbols

    @given(k=st.integers(0, 30), count=st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_all_zero_block(self, k, count):
        symbols = [0] * count
        assert rice_encode(symbols, k=k) == rice_encode_scalar(symbols, k=k)

    @given(block=_rice_block(min_k=26), position=st.integers(0, 40))
    @settings(max_examples=20, deadline=None)
    def test_2_to_40_outlier(self, block, position):
        # k >= 26 keeps the outlier's unary run (at most 2**14 ones)
        # affordable for the bit-by-bit reference.
        k, symbols = block
        symbols.insert(min(position, len(symbols)), 1 << 40)
        assert rice_encode(symbols, k=k) == rice_encode_scalar(symbols, k=k)

    @given(
        symbols=st.lists(
            st.one_of(st.integers(0, 16), st.integers(0, 1 << 20), st.just(1 << 40)),
            max_size=60,
        ),
        max_k=st.integers(0, 30),
    )
    @settings(max_examples=200, deadline=None)
    @example(symbols=[1, 2], max_k=30)  # C(0) == C(1) == 5: ties go to 0
    @example(symbols=[3, 3, 3], max_k=0)
    def test_optimal_parameter_is_brute_force_argmin(self, symbols, max_k):
        assert optimal_rice_parameter(symbols, max_k) == _brute_force_parameter(symbols, max_k)

    @given(block=_rice_block())
    @settings(max_examples=50, deadline=None)
    def test_default_parameter_is_brute_force_argmin(self, block):
        _, symbols = block
        expected = _brute_force_parameter(symbols, 30) if symbols else 0
        assert rice_encode(symbols)[0] == expected


class TestHuffmanProperties:
    @given(symbols=st.lists(st.integers(0, 40), max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_huffman_round_trip(self, symbols):
        assert huffman_decode(huffman_encode(symbols)) == symbols

    @given(symbols=st.lists(st.integers(0, 40), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_kraft_inequality(self, symbols):
        code = HuffmanCode.from_symbols(symbols)
        assert code.kraft_sum() <= 1.0 + 1e-12


class TestSTransformProperties:
    @given(
        signal=hnp.arrays(np.int64, st.sampled_from([8, 16, 32]), elements=st.integers(0, 4095))
    )
    def test_1d_round_trip(self, signal):
        approx, detail = s_transform_forward_1d(signal)
        assert np.array_equal(s_transform_inverse_1d(approx, detail), signal)

    @given(
        image=hnp.arrays(np.int64, st.sampled_from([(8, 8), (16, 16)]), elements=st.integers(0, 4095)),
        scales=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_2d_round_trip(self, image, scales):
        pyramid = s_transform_forward_2d(image, scales)
        assert np.array_equal(s_transform_inverse_2d(pyramid), image)
