"""Bitstream wire-compatibility: every engine tier against every other.

Every block coder ships a vectorised (``fast``) and a bit-by-bit
(``scalar``) implementation; these tests pin the contract that they are
drop-in interchangeable at the
byte level — identical encoded streams, and each decoder accepts each
encoder's output — on random inputs and on phantom-image workloads.
"""

import numpy as np
import pytest

from repro.coding import huffman as huffman_module
from repro.coding.codec import LosslessWaveletCodec
from repro.coding.huffman import (
    HuffmanCode,
    huffman_decode,
    huffman_decode_scalar,
    huffman_encode,
    huffman_encode_scalar,
)
from repro.coding.mapper import zigzag_encode
from repro.coding.rice import (
    MAX_RICE_PARAMETER,
    rice_decode,
    rice_decode_scalar,
    rice_encode,
    rice_encode_scalar,
)
from repro.coding.rle import (
    events_to_arrays,
    rle_decode,
    rle_decode_arrays,
    rle_encode,
    rle_encode_arrays,
)
from repro.coding.s_transform import STransformCodec
from repro.imaging.phantoms import gradient_image, random_image, shepp_logan


def _phantom_symbols():
    """Zig-zagged detail-like samples from a real phantom image."""
    image = shepp_logan(64).astype(np.int64)
    return zigzag_encode(np.diff(image, axis=1).ravel())


def _cut_points(nbytes):
    """Up to 48 strict-prefix lengths, always including 0 and ``nbytes - 1``."""
    return np.unique(np.linspace(0, nbytes - 1, 48).astype(int)).tolist()


def _fibonacci_symbols(alphabet):
    """Symbols with Fibonacci counts: the longest code is ``alphabet - 1`` bits."""
    counts = [1, 1]
    while len(counts) < alphabet:
        counts.append(counts[-1] + counts[-2])
    return np.repeat(np.arange(alphabet), counts)


class TestRiceWireCompat:
    @pytest.fixture(params=["random", "geometric", "phantom", "zeros", "empty"])
    def symbols(self, request, rng):
        return {
            "random": rng.integers(0, 4096, size=700),
            "geometric": rng.geometric(0.1, size=500) - 1,
            "phantom": _phantom_symbols(),
            "zeros": np.zeros(300, dtype=np.int64),
            "empty": np.zeros(0, dtype=np.int64),
        }[request.param]

    def test_streams_byte_identical(self, symbols):
        assert rice_encode(symbols) == rice_encode_scalar(symbols)

    def test_fast_encode_scalar_decode(self, symbols):
        assert rice_decode_scalar(rice_encode(symbols)) == symbols.tolist()

    def test_scalar_encode_fast_decode(self, symbols):
        assert rice_decode(rice_encode_scalar(symbols)) == symbols.tolist()

    @pytest.mark.parametrize("k", [0, 1, 5, 11, 18, 26])
    def test_explicit_parameter(self, rng, k):
        symbols = rng.integers(0, 2000, size=400)
        assert rice_encode(symbols, k=k) == rice_encode_scalar(symbols, k=k)
        # The fast decoder switches its remainder read (bit planes below
        # k = 6, 64-bit windows from there) on k; both must land on the
        # same symbols.
        assert rice_decode(rice_encode_scalar(symbols, k=k)) == symbols.tolist()

    @pytest.mark.parametrize("k", [6, 7, 13, 17, MAX_RICE_PARAMETER])
    def test_window_remainder_every_phase(self, rng, k):
        # Quotients 0..2 shift each remainder's start by one bit, so over
        # 200 symbols the 64-bit window read sees every byte phase and
        # remainders with their top and bottom bits set.
        quotients = rng.integers(0, 3, size=200)
        remainders = rng.integers(0, 1 << k, size=200)
        remainders[:2] = [0, (1 << k) - 1]
        symbols = (quotients << k) | remainders
        stream = rice_encode(symbols, k=k)
        assert stream == rice_encode_scalar(symbols, k=k)
        assert rice_decode(stream) == symbols.tolist()

    def test_every_tier_rejects_truncation(self, symbols):
        stream = rice_encode(symbols)
        for cut in _cut_points(len(stream)):
            for decode in (rice_decode, rice_decode_scalar):
                with pytest.raises(EOFError):
                    decode(stream[:cut])


class TestHuffmanWireCompat:
    @pytest.fixture(params=["random", "skewed", "phantom", "single", "empty"])
    def symbols(self, request, rng):
        return {
            "random": rng.integers(0, 40, size=600),
            "skewed": np.minimum(rng.geometric(0.3, size=800) - 1, 30),
            "phantom": np.minimum(_phantom_symbols(), 63),
            "single": np.full(40, 7, dtype=np.int64),
            "empty": np.zeros(0, dtype=np.int64),
        }[request.param]

    def test_streams_byte_identical(self, symbols):
        assert huffman_encode(symbols) == huffman_encode_scalar(symbols)

    def test_fast_encode_scalar_decode(self, symbols):
        assert huffman_decode_scalar(huffman_encode(symbols)) == symbols.tolist()

    def test_scalar_encode_fast_decode(self, symbols):
        assert huffman_decode(huffman_encode_scalar(symbols)) == symbols.tolist()

    def test_every_tier_rejects_truncation(self, symbols):
        stream = huffman_encode(symbols)
        for cut in _cut_points(len(stream)):
            for decode in (huffman_decode, huffman_decode_scalar):
                with pytest.raises(EOFError):
                    decode(stream[:cut])

    @pytest.mark.parametrize("longest", [15, 16, 17])
    def test_prefix_table_cap_boundary(self, monkeypatch, longest):
        # Codes up to 16 bits decode through the dense prefix table; one
        # bit wider and the scalar oracle takes over.
        symbols = _fibonacci_symbols(longest + 1)
        assert max(HuffmanCode.from_symbols(symbols).lengths.values()) == longest
        encoded = huffman_encode(symbols)
        calls = []
        scalar = huffman_module.huffman_decode_scalar

        def counting_scalar(data):
            calls.append(len(data))
            return scalar(data)

        monkeypatch.setattr(huffman_module, "huffman_decode_scalar", counting_scalar)
        assert huffman_decode(encoded) == symbols.tolist()
        assert bool(calls) == (longest > 16)

    def test_long_code_scalar_fallback(self):
        # Fibonacci frequencies build a maximally skewed tree whose longest
        # code exceeds the 16-bit prefix-table cap; the decoder must fall
        # back to the scalar path and still agree symbol for symbol.
        symbols = _fibonacci_symbols(22)
        encoded = huffman_encode(symbols)
        assert max(HuffmanCode.from_symbols(symbols).lengths.values()) > 16
        assert huffman_decode(encoded) == symbols.tolist()


class TestRleWireCompat:
    @pytest.fixture(params=["sparse", "dense", "all_zero", "phantom"])
    def values(self, request, rng):
        sparse = rng.integers(-5, 6, size=900)
        sparse[rng.uniform(size=900) < 0.7] = 0
        return {
            "sparse": sparse,
            "dense": rng.integers(1, 9, size=300),
            "all_zero": np.zeros(500, dtype=np.int64),
            "phantom": np.diff(shepp_logan(32).astype(np.int64), axis=0).ravel(),
        }[request.param]

    def test_arrays_match_events(self, values):
        runs, literals = rle_encode_arrays(values)
        runs_ref, literals_ref = events_to_arrays(rle_encode(values))
        assert runs.tolist() == runs_ref.tolist()
        assert literals.tolist() == literals_ref.tolist()

    def test_array_decode_inverts_event_encode(self, values):
        runs, literals = events_to_arrays(rle_encode(values))
        assert np.array_equal(rle_decode_arrays(runs, literals), values)

    def test_event_decode_inverts_array_encode(self, values):
        runs, literals = rle_encode_arrays(values)
        from repro.coding.rle import LITERAL, ZERO_RUN, RleEvent

        events, literal_index = [], 0
        for run in runs.tolist():
            if run > 0:
                events.append(RleEvent(ZERO_RUN, run))
            else:
                events.append(RleEvent(LITERAL, int(literals[literal_index])))
                literal_index += 1
        assert np.array_equal(rle_decode(events), values)

    @pytest.mark.parametrize("max_run", [1, 3, 16])
    def test_max_run_splitting_matches(self, values, max_run):
        runs, literals = rle_encode_arrays(values, max_run=max_run)
        runs_ref, literals_ref = events_to_arrays(rle_encode(values, max_run=max_run))
        assert runs.tolist() == runs_ref.tolist()
        assert literals.tolist() == literals_ref.tolist()


ENGINES = ("fast", "scalar")


class TestSTransformCodecWireCompat:
    @pytest.mark.parametrize(
        "image_factory",
        [shepp_logan, gradient_image, lambda size: random_image(size, seed=5)],
        ids=["ct", "gradient", "random"],
    )
    def test_engines_byte_identical_and_cross_decode(self, image_factory):
        image = image_factory(64)
        codecs = {name: STransformCodec(scales=3, engine=name) for name in ENGINES}
        streams = {name: codec.encode(image) for name, codec in codecs.items()}
        for name in ENGINES[1:]:
            assert streams[name].chunks == streams["fast"].chunks
        # Full cross matrix: each tier decodes the other tier's stream.
        for codec in codecs.values():
            for stream in streams.values():
                assert np.array_equal(codec.decode(stream), image)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            STransformCodec(engine="simd")


class TestLosslessCodecWireCompat:
    @pytest.mark.parametrize("use_rle", [True, False], ids=["rle", "no-rle"])
    @pytest.mark.parametrize(
        "image_factory",
        [shepp_logan, lambda size: random_image(size, seed=11)],
        ids=["ct", "random"],
    )
    def test_engines_byte_identical_and_cross_decode(self, image_factory, use_rle):
        image = image_factory(32)
        codecs = {
            name: LosslessWaveletCodec("F2", scales=2, use_rle=use_rle, engine=name)
            for name in ENGINES
        }
        streams = {name: codec.encode(image) for name, codec in codecs.items()}
        for name in ENGINES[1:]:
            assert streams[name].chunks == streams["fast"].chunks
        for codec in codecs.values():
            for stream in streams.values():
                assert np.array_equal(codec.decode(stream), image)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            LosslessWaveletCodec("F2", scales=2, engine="simd")
