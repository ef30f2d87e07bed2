"""Frame-payload serialisation: compressed streams survive the byte trip."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.archive.format import (
    LAYOUT_FRAME_MAJOR,
    LAYOUT_SUBBAND_MAJOR,
    ArchiveFormatError,
)
from repro.archive.serialize import deserialize_stream, serialize_stream
from repro.coding import LosslessWaveletCodec, STransformCodec
from repro.imaging import shepp_logan

pytestmark = pytest.mark.archive


@pytest.fixture(scope="module")
def image():
    return shepp_logan(32)


def _assert_coefficient_equal(a, b):
    assert a.bank_name == b.bank_name
    assert a.scales == b.scales
    assert a.image_shape == b.image_shape
    assert a.bit_depth == b.bit_depth
    assert a.chunks == b.chunks


def test_s_transform_stream_roundtrip(image):
    codec = STransformCodec(scales=3)
    stream = codec.encode(image)
    recovered = deserialize_stream(serialize_stream(stream))
    assert recovered.scales == stream.scales
    assert recovered.image_shape == stream.image_shape
    assert recovered.bit_depth == stream.bit_depth
    assert recovered.chunks == stream.chunks
    assert recovered.shapes == stream.shapes
    assert np.array_equal(codec.decode(recovered), image)


@pytest.mark.parametrize("use_rle", [True, False])
def test_coefficient_stream_roundtrip(image, use_rle):
    codec = LosslessWaveletCodec(bank="F2", scales=2, use_rle=use_rle)
    stream = codec.encode(image)
    recovered = deserialize_stream(serialize_stream(stream))
    _assert_coefficient_equal(recovered, stream)
    assert np.array_equal(codec.decode(recovered), image)


def test_payload_is_deterministic(image):
    stream = STransformCodec(scales=2).encode(image)
    assert serialize_stream(stream) == serialize_stream(stream)


def test_truncated_payload_raises(image):
    payload = serialize_stream(STransformCodec(scales=2).encode(image))
    with pytest.raises(ArchiveFormatError):
        deserialize_stream(payload[: len(payload) // 2])
    with pytest.raises(ArchiveFormatError, match="length prefix"):
        deserialize_stream(payload[:3])


def test_trailing_bytes_raise(image):
    payload = serialize_stream(STransformCodec(scales=2).encode(image))
    with pytest.raises(ArchiveFormatError, match="trailing bytes"):
        deserialize_stream(payload + b"\x00")


def test_unknown_codec_id_raises(image):
    payload = bytearray(serialize_stream(STransformCodec(scales=2).encode(image)))
    payload[4] = 0xEE  # first meta byte is the codec id
    with pytest.raises(ArchiveFormatError, match="unknown codec id"):
        deserialize_stream(bytes(payload))


def test_word_length_metadata_guard(image):
    """A doctored word-length field must be rejected, not silently decoded."""
    payload = bytearray(serialize_stream(LosslessWaveletCodec(scales=2).encode(image)))
    # meta layout: codec_id, scales, h(4), w(4), bit_depth, bank_len, "F2",
    # then word_length — offset 4 (prefix) + 11 + 1 + 2 = 18.
    offset = 4 + 11 + 1 + 2
    assert payload[offset] == 32
    payload[offset] = 16
    with pytest.raises(ArchiveFormatError, match="word-length plan"):
        deserialize_stream(bytes(payload))


# ---------------------------------------------------------------------------
# Pinned payload bytes: the stored form of both layouts must never drift
# ---------------------------------------------------------------------------

CODECS = {
    "s-transform": lambda: STransformCodec(scales=2),
    "coefficient-rle": lambda: LosslessWaveletCodec(bank="F2", scales=2, use_rle=True),
    "coefficient-raw": lambda: LosslessWaveletCodec(bank="F2", scales=2, use_rle=False),
}

#: SHA-256 of ``serialize_stream(codec.encode(shepp_logan(32)), layout)``.
PINNED_PAYLOADS = {
    ("s-transform", LAYOUT_FRAME_MAJOR):
        "5abf082068cd363e18b2488680092da477051e8565df649188020e4a8288a3b6",
    ("s-transform", LAYOUT_SUBBAND_MAJOR):
        "ce0f07bbad4ac18b3a1f350a55a09b685b6e4b73957343b5fcc6264e15e203c6",
    ("coefficient-rle", LAYOUT_FRAME_MAJOR):
        "2c9357652cec585683720d206622da30f9d43588bbc34ab4d2ac2dc2857288a7",
    ("coefficient-rle", LAYOUT_SUBBAND_MAJOR):
        "bfb773f2178e87d0889bfbc5107005577249afee7405e5ab4ee54be30167e021",
    ("coefficient-raw", LAYOUT_FRAME_MAJOR):
        "d7d90a4de06593d32ef949face2addb1c4344c4be9d0923a81caf4396e16293a",
    ("coefficient-raw", LAYOUT_SUBBAND_MAJOR):
        "77bf1b0ab643d1add1742d16c95465e5a5520c3de7d6ef76f713ca406490ea73",
}


@pytest.mark.parametrize("layout", [LAYOUT_FRAME_MAJOR, LAYOUT_SUBBAND_MAJOR])
@pytest.mark.parametrize("codec_name", sorted(CODECS))
def test_payload_bytes_are_pinned(image, codec_name, layout):
    stream = CODECS[codec_name]().encode(image)
    payload = serialize_stream(stream, layout=layout)
    assert hashlib.sha256(payload).hexdigest() == PINNED_PAYLOADS[codec_name, layout]
    assert serialize_stream(deserialize_stream(payload), layout=layout) == payload


# ---------------------------------------------------------------------------
# Subband geometry: a table that cannot be the frame's pyramid is refused
# ---------------------------------------------------------------------------

def _reshaped(stream, kind, scale, shape):
    if isinstance(stream.chunks, dict):
        stream.shapes[(kind, scale)] = shape
    else:
        stream.chunks[:] = [
            dataclasses.replace(c, shape=shape) if (c.kind, c.scale) == (kind, scale) else c
            for c in stream.chunks
        ]
    return stream


def _dropped(stream, kind, scale):
    if isinstance(stream.chunks, dict):
        del stream.chunks[(kind, scale)]
        del stream.shapes[(kind, scale)]
    else:
        stream.chunks[:] = [c for c in stream.chunks if (c.kind, c.scale) != (kind, scale)]
    return stream


GEOMETRY_DAMAGE = {
    "wrong-shape": lambda s: _reshaped(s, "HH", 2, (1000, 8)),
    "missing-subband": lambda s: _dropped(s, "GG", 1),
}


@pytest.mark.parametrize("damage", sorted(GEOMETRY_DAMAGE))
@pytest.mark.parametrize("layout", [LAYOUT_FRAME_MAJOR, LAYOUT_SUBBAND_MAJOR])
@pytest.mark.parametrize("codec_name", ["s-transform", "coefficient-rle"])
def test_wrong_subband_geometry_is_a_format_error(image, codec_name, layout, damage):
    """The writer serialises whatever stream it is handed (and the subband-major
    meta CRC covers the doctored table), so only the parser's geometry rule
    stands between a bad table and an untyped numpy/KeyError failure."""
    codec = CODECS[codec_name]()
    payload = serialize_stream(GEOMETRY_DAMAGE[damage](codec.encode(image)), layout=layout)
    with pytest.raises(ArchiveFormatError, match="geometry"):
        codec.decode(deserialize_stream(payload))
