"""Frame-payload (de)serialisation: compressed streams <-> archive bytes.

A frame payload is the self-describing byte form of one compressed stream
(:class:`~repro.coding.codec.CompressedImage` or
:class:`~repro.coding.s_transform.CompressedSImage`).  Both payload layouts
are one **section table** — a meta block — followed by the subbands'
entropy-coded bytes; they differ only in the head in front of the table,
the order of the descriptors and a CRC per descriptor::

    frame-major (v1)                subband-major (v2)
    +------------------+            +----------------------------+
    | meta_len  (u32)  |            | sentinel 0xFFFFFFFF (u32)  |
    +------------------+            | payload_version (u8) = 2   |
    | meta block       |            | meta_len (u32)  ("<IBI")   |
    +------------------+            +----------------------------+
    | section bytes    |            | meta block (+ section CRCs)|
    +------------------+            +----------------------------+
      storage order                 | meta CRC-32 (u32 LE)       |
                                    +----------------------------+
                                    | section bytes              |
                                    +----------------------------+
                                      coarsest first

The meta block is bit-packed through :mod:`repro.coding.bitstream` (fields
MSB-first, all widths byte multiples): the frame's
:class:`~repro.coding.spec.CodecSpec` (codec wire id from the registry,
depth, geometry, bit depth, filter-bank and word-length metadata) followed
by one descriptor per subband (kind, scale, shape, RLE flag and byte
lengths, plus the section's CRC-32 in the subband-major layout).  The
descriptors are fixed-width, so the parser reads each with one big-endian
``struct`` unpack instead of bit by bit.  A section's bytes are the codec's entropy-coded literal payload immediately
followed by its run payload (empty unless ``use_rle``).  Deserialising a
payload needs nothing outside the payload itself, which is what makes
single-frame random access possible: :func:`deserialize_stream_with_spec`
returns both the stream and the reconstructed spec, and :func:`frame_spec`
rebuilds the spec from an index entry alone, without reading the payload.

:func:`parse_section_table` is the one parser of that table for both
layouts — the payload's first word picks the head (:data:`PAYLOAD_SENTINEL`)
— and :func:`serialize_stream` its one writer.  The parser requires the
descriptors to be exactly the frame's Mallat pyramid: HH at scale ``S``
plus HG, GH and GG at every scale ``1..S``, each of shape
``(height >> scale, width >> scale)``; anything else is an
:class:`ArchiveFormatError` before a single section byte is decoded.

Subband-major sections are ordered by ``(-scale, kind_id)`` — the scale-S
approximation (HH) first, then each scale's details coarsest to finest — so
the bytes needed to reconstruct a preview at scale ``k`` are a **strict
prefix** of the payload: the 9-byte head, the meta block and its CRC, and
every section with ``scale > k`` (plus HH).  :func:`prefix_length` prices a
preview in bytes, and :func:`deserialize_prefix` reconstructs a partial
stream from exactly those bytes, each section verified against its own
CRC-32 so a prefix is trustworthy without the container-level whole-payload
checksum.

Codec identity is validated through the codec registry
(:func:`repro.coding.spec.get_family`); registry errors are wrapped in
:class:`ArchiveFormatError` with the frame context, so a payload naming an
unregistered codec reads as a format error, not a loose ``ValueError``.

For the coefficient codec the stored word-length metadata (word length,
accumulator width, per-scale integer bits) is checked against the plan the
current code derives for the same bank and depth
(:func:`repro.fixedpoint.wordlength.plan_word_lengths`); a mismatch means
the stream was written by an incompatible word-length analysis and decoding
would produce garbage, so it raises :class:`ArchiveFormatError` instead.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import List, Optional, Tuple, Union

from ..coding.bitstream import BitReader, BitWriter
from ..coding.codec import CompressedImage, SubbandChunk
from ..coding.s_transform import CompressedSImage
from ..coding.spec import CodecSpec, UnknownCodecError, family_for_stream, get_family
from ..filters.catalog import get_bank
from ..fixedpoint.wordlength import plan_word_lengths
from .format import (
    KIND_IDS,
    KINDS_BY_ID,
    LAYOUT_FRAME_MAJOR,
    LAYOUT_SUBBAND_MAJOR,
    LAYOUTS,
    ArchiveFormatError,
    ArchiveIntegrityError,
    FrameInfo,
    TruncatedArchiveError,
    codec_name_for_id,
    crc32,
)

__all__ = [
    "CompressedStream",
    "Payload",
    "PAYLOAD_SENTINEL",
    "PAYLOAD_VERSION",
    "PAYLOAD_HEAD_SIZE",
    "PayloadSection",
    "SectionTable",
    "codec_name_for_stream",
    "frame_spec",
    "spec_for_stream",
    "payload_spec",
    "payload_layout",
    "is_subband_major",
    "serialize_stream",
    "deserialize_stream",
    "deserialize_stream_with_spec",
    "parse_section_table",
    "section_table_length",
    "sections_to_stream",
    "deserialize_prefix",
    "prefix_length",
    "materialize_stream",
]

CompressedStream = Union[CompressedImage, CompressedSImage]

#: Payload bytes as stored (``bytes``) or as a zero-copy ``memoryview`` of
#: the backend's mapping.  Deserialising a view keeps the chunk payloads as
#: sub-views — no intermediate copies — which is what the readers'
#: zero-copy path relies on; the decoders consume either form.
Payload = Union[bytes, memoryview]

#: First four bytes of a subband-major payload.  A version-1 payload starts
#: with its little-endian ``meta_len``, which is tens of bytes in practice
#: and could never be ``0xFFFFFFFF`` (the meta block would have to be 4 GiB
#: and exceed every container bound), so the sentinel tells the two layouts
#: apart from the payload's own first word.
PAYLOAD_SENTINEL = 0xFFFFFFFF
_SENTINEL_BYTES = struct.pack("<I", PAYLOAD_SENTINEL)

#: Version byte of the sectioned payload layout (matches the container
#: version that introduced it).  Readers reject newer payload versions.
PAYLOAD_VERSION = 2

#: Subband-major payload head: sentinel u32, payload version u8, meta_len
#: u32 — 9 bytes, no padding under ``<``.
_PAYLOAD_HEAD_STRUCT = struct.Struct("<IBI")
PAYLOAD_HEAD_SIZE = _PAYLOAD_HEAD_STRUCT.size


@lru_cache(maxsize=None)
def _descriptor_struct(uses_bank: bool, sectioned: bool) -> struct.Struct:
    """One section descriptor as the meta block stores it: kind u8, scale
    u8, shape 2 x u32, ``use_rle`` u8 (bank codecs only), payload length
    u32, run length u32 (bank codecs only), CRC u32 (subband-major only).
    Big-endian whole bytes — what the MSB-first :class:`BitWriter` that
    writes the prologue ahead of the descriptors also produces."""
    return struct.Struct(
        ">BBII" + ("BII" if uses_bank else "I") + ("I" if sectioned else "")
    )

#: What a stream carries besides its subbands: ``(bank_name, scales,
#: image_shape, bit_depth)``; ``bank_name`` is empty for the S-transform.
_Header = Tuple[str, int, Tuple[int, int], int]


@dataclass(frozen=True)
class PayloadSection:
    """One subband's descriptor in a payload's section table.

    ``offset`` is the section's absolute byte offset within the payload;
    the section's bytes are the chunk's entropy-coded literal payload
    immediately followed by its run payload (empty unless ``use_rle``).  In
    the subband-major layout ``crc32`` covers exactly those ``length``
    bytes, so any section — hence any prefix — verifies on its own;
    frame-major sections carry no CRC (``None``).
    """

    index: int
    kind: str
    scale: int
    shape: Tuple[int, int]
    use_rle: bool
    payload_len: int
    run_len: int
    crc32: Optional[int]
    offset: int

    @property
    def length(self) -> int:
        return self.payload_len + self.run_len


@dataclass(frozen=True)
class SectionTable:
    """Parsed section table (meta block) of a payload, either layout.

    Holds everything the meta block declares — codec configuration plus the
    ordered section descriptors — without touching a single section byte,
    so it can be built from the payload's (head + meta) prefix alone.
    ``body_offset`` is where section bytes begin (:func:`section_table_length`).
    Subband-major sections are stored coarsest first (descending scale, the
    HH approximation leading its scale), which is what makes every preview
    a strict prefix; frame-major sections keep their storage order.
    """

    layout: str
    codec: str
    scales: int
    image_shape: Tuple[int, int]
    bit_depth: int
    bank_name: str
    sections: Tuple[PayloadSection, ...]
    body_offset: int

    @property
    def use_rle(self) -> bool:
        return any(section.use_rle for section in self.sections)

    @property
    def payload_length(self) -> int:
        """Total payload size in bytes (head + table + every section)."""
        return self.body_offset + sum(s.length for s in self.sections)

    def spec(self) -> CodecSpec:
        """The :class:`CodecSpec` the table describes."""
        try:
            if self.bank_name:
                return CodecSpec(
                    codec=self.codec,
                    scales=self.scales,
                    bit_depth=self.bit_depth,
                    bank=self.bank_name,
                    use_rle=self.use_rle,
                )
            return CodecSpec(codec=self.codec, scales=self.scales, bit_depth=self.bit_depth)
        except (ValueError, TypeError) as exc:
            raise ArchiveFormatError(
                f"frame payload metadata does not form a valid codec "
                f"configuration ({exc})"
            ) from exc

    def prefix_sections(self, at_scale: int) -> Tuple[PayloadSection, ...]:
        """The sections a scale-``at_scale`` preview needs — always a
        leading run of :attr:`sections` thanks to the coarsest-first order:
        the HH approximation plus every detail section coarser than
        ``at_scale``.  ``at_scale=0`` is the full section list, for either
        layout; a frame-major table has no shorter prefix and raises
        :class:`ArchiveFormatError` for any other scale."""
        if at_scale == 0:
            return self.sections
        if self.layout != LAYOUT_SUBBAND_MAJOR:
            raise ArchiveFormatError("payload is not subband-major (no sentinel)")
        if not 0 <= at_scale <= self.scales:
            raise ValueError(
                f"at_scale must be within [0, {self.scales}], got {at_scale}"
            )
        return tuple(
            s for s in self.sections if s.kind == "HH" or s.scale > at_scale
        )

    def prefix_length(self, at_scale: int) -> int:
        """Payload bytes a scale-``at_scale`` preview reads: the head, the
        meta block + CRC, and the prefix sections — nothing else."""
        return self.body_offset + sum(
            s.length for s in self.prefix_sections(at_scale)
        )


def codec_name_for_stream(stream: CompressedStream) -> str:
    """Pipeline codec name (registry name) that produced ``stream``."""
    return family_for_stream(stream).name


def spec_for_stream(stream: CompressedStream) -> CodecSpec:
    """The :class:`CodecSpec` that reproduces ``stream``'s configuration."""
    return CodecSpec.for_stream(stream)


def frame_spec(entry: FrameInfo) -> CodecSpec:
    """Rebuild a frame's :class:`CodecSpec` from its index entry alone.

    This is what makes spec-aware random access cheap: the index carries
    the whole configuration, so no payload bytes are touched.  Registry
    errors (an index naming an unregistered codec) surface as
    :class:`ArchiveFormatError` with the frame's context.
    """
    try:
        return CodecSpec(
            codec=entry.codec,
            scales=entry.scales,
            bit_depth=entry.bit_depth,
            bank=entry.bank_name or None,
            use_rle=entry.use_rle if entry.bank_name else None,
        )
    except UnknownCodecError as exc:
        raise ArchiveFormatError(
            f"frame {entry.name!r}: index entry references an unregistered "
            f"codec ({exc})"
        ) from exc


# ---------------------------------------------------------------------------
# The two in-memory stream types, named only here
# ---------------------------------------------------------------------------

def _stream_rows(stream: CompressedStream) -> Tuple[_Header, List[SubbandChunk]]:
    """A stream's header and its subbands as :class:`SubbandChunk` rows, in
    the stream's own storage order (S-transform rows carry no RLE)."""
    if isinstance(stream, CompressedImage):
        header = (stream.bank_name, stream.scales, stream.image_shape, stream.bit_depth)
        return header, list(stream.chunks)
    rows = [
        SubbandChunk(kind, scale, stream.shapes[(kind, scale)], False, payload)
        for (kind, scale), payload in stream.chunks.items()
    ]
    return ("", stream.scales, stream.image_shape, stream.bit_depth), rows


def _rows_stream(header: _Header, rows: List[SubbandChunk]) -> CompressedStream:
    """The stream a header and its rows describe — a coefficient stream
    when the header names a filter bank, an S-transform one if not."""
    bank_name, scales, image_shape, bit_depth = header
    if bank_name:
        return CompressedImage(
            bank_name=bank_name,
            scales=scales,
            image_shape=image_shape,
            bit_depth=bit_depth,
            chunks=rows,
        )
    return CompressedSImage(
        scales=scales,
        image_shape=image_shape,
        bit_depth=bit_depth,
        chunks={(row.kind, row.scale): row.payload for row in rows},
        shapes={(row.kind, row.scale): row.shape for row in rows},
    )


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

def _write_ascii(writer: BitWriter, text: str, length_bits: int = 8) -> None:
    data = text.encode("utf-8")
    if len(data) >= (1 << length_bits):
        raise ValueError(f"string {text!r} too long for a {length_bits}-bit length")
    writer.write_uint(len(data), length_bits)
    for byte in data:
        writer.write_uint(byte, 8)


def _read_ascii(reader: BitReader, length_bits: int = 8) -> str:
    length = reader.read_uint(length_bits)
    return bytes(reader.read_uint(8) for _ in range(length)).decode("utf-8")


def serialize_stream(
    stream: CompressedStream, layout: str = LAYOUT_FRAME_MAJOR
) -> bytes:
    """Serialise a compressed stream into one archive frame payload.

    The header fields are written from the stream's :class:`CodecSpec`
    (codec wire id, depth, geometry, bit depth, bank), so the payload
    carries the spec and :func:`deserialize_stream_with_spec` recovers it.
    ``layout`` selects the wire form: the version-1 ``"frame-major"``
    monolith (the default, byte-identical to what every earlier writer
    produced) or the version-2 ``"subband-major"`` sectioned layout that
    supports strict-prefix preview decode.  The layout decides the head,
    the descriptor order (storage order vs coarsest first) and whether
    each descriptor carries its section's CRC — nothing else.
    """
    spec = spec_for_stream(stream)
    if layout not in LAYOUTS:
        raise ValueError(
            f"unknown payload layout {layout!r} (expected one of {LAYOUTS})"
        )
    sectioned = layout == LAYOUT_SUBBAND_MAJOR
    family = spec.family
    _, rows = _stream_rows(stream)
    if sectioned:
        # Storage order in the in-memory streams is irrelevant to decode
        # (lookup is by kind/scale), so re-sorting loses nothing and buys
        # the prefix property.
        rows.sort(key=lambda row: (-row.scale, KIND_IDS[row.kind]))
    writer = BitWriter()
    writer.write_uint(family.wire_id, 8)
    writer.write_uint(spec.scales, 8)
    writer.write_uint(stream.image_shape[0], 32)
    writer.write_uint(stream.image_shape[1], 32)
    writer.write_uint(spec.bit_depth, 8)
    if family.uses_bank:
        _write_ascii(writer, spec.bank_name)
        plan = plan_word_lengths(get_bank(spec.bank_name), spec.scales)
        writer.write_uint(plan.data_formats[1].word_length, 8)
        writer.write_uint(plan.accumulator_bits, 8)
        for bits in plan.integer_bits():
            writer.write_uint(bits, 8)
    writer.write_uint(len(rows), 16)
    descriptor = _descriptor_struct(family.uses_bank, sectioned)
    descriptors: List[bytes] = []
    body: List[Payload] = []
    for row in rows:
        fields = [KIND_IDS[row.kind], row.scale, *row.shape]
        if family.uses_bank:
            fields += [1 if row.use_rle else 0, len(row.payload), len(row.run_payload)]
        else:
            fields.append(len(row.payload))
        if sectioned:
            # Per-section CRC over the section's bytes exactly as stored
            # (literal payload then run payload) — a prefix read verifies
            # each section it takes without the whole-payload checksum.
            fields.append(zlib.crc32(row.run_payload, zlib.crc32(row.payload)))
        descriptors.append(descriptor.pack(*fields))
        body += (row.payload, row.run_payload)
    meta = writer.getvalue() + b"".join(descriptors)
    if sectioned:
        head = _PAYLOAD_HEAD_STRUCT.pack(PAYLOAD_SENTINEL, PAYLOAD_VERSION, len(meta))
        tail = struct.pack("<I", crc32(meta))
    else:
        head, tail = struct.pack("<I", len(meta)), b""
    return b"".join([head, meta, tail, *body])


# ---------------------------------------------------------------------------
# Reading: one table parser for both layouts
# ---------------------------------------------------------------------------

def _check_plan(reader: BitReader, bank_name: str, scales: int) -> None:
    """Verify stored word-length metadata against the freshly derived plan."""
    try:
        bank = get_bank(bank_name)
    except (KeyError, ValueError) as exc:
        raise ArchiveFormatError(
            f"frame payload references unknown filter bank {bank_name!r}"
        ) from exc
    plan = plan_word_lengths(bank, scales)
    word_length = reader.read_uint(8)
    accumulator_bits = reader.read_uint(8)
    integer_bits = [reader.read_uint(8) for _ in range(scales)]
    if (
        word_length != plan.data_formats[1].word_length
        or accumulator_bits != plan.accumulator_bits
        or integer_bits != plan.integer_bits()
    ):
        raise ArchiveFormatError(
            f"stored word-length plan ({word_length}-bit words, "
            f"accumulator {accumulator_bits}, integer bits {integer_bits}) does "
            f"not match the plan derived for bank {bank_name!r} at {scales} "
            "scales; the stream was written by an incompatible analysis"
        )


def _check_geometry(
    sections: List[PayloadSection], scales: int, image_shape: Tuple[int, int]
) -> None:
    """Require the descriptors to be exactly the frame's Mallat pyramid:
    HH at the coarsest scale plus HG/GH/GG at every scale, each of shape
    ``(height >> scale, width >> scale)`` — so a doctored table is a typed
    format error here, never a reshape or lookup failure in a decoder."""
    height, width = image_shape
    expected = {("HH", scales)} | {
        (kind, scale) for scale in range(1, scales + 1) for kind in ("HG", "GH", "GG")
    }
    seen = set()
    for s in sections:
        key = (s.kind, s.scale)
        if key not in expected or key in seen:
            raise ArchiveFormatError(
                f"frame payload geometry: section {s.index} ({s.kind}@{s.scale}) "
                f"is not a distinct subband of a {scales}-scale pyramid"
            )
        if s.shape != (height >> s.scale, width >> s.scale):
            raise ArchiveFormatError(
                f"frame payload geometry: section {s.index} ({s.kind}@{s.scale}) "
                f"has shape {s.shape}, not {(height >> s.scale, width >> s.scale)} "
                f"for a {height}x{width} image"
            )
        seen.add(key)
    if seen != expected:
        missing = ", ".join(f"{k}@{s}" for k, s in sorted(expected - seen))
        raise ArchiveFormatError(
            f"frame payload geometry: the section table has no {missing} subband"
        )


def _parse_head(payload: Payload) -> Tuple[bool, int, int]:
    """``(sectioned, meta_start, meta_len)`` from a payload's head.

    The first word picks the layout: the sentinel (or, on fewer than four
    bytes, a prefix of it) means the 9-byte subband-major head, anything
    else is the version-1 ``u32 meta_len``.
    """
    first = bytes(payload[:4])
    if first == _SENTINEL_BYTES[: len(first)]:
        if len(payload) < PAYLOAD_HEAD_SIZE:
            raise TruncatedArchiveError(
                f"frame payload ends inside its {PAYLOAD_HEAD_SIZE}-byte "
                "subband-major head"
            )
        _, version, meta_len = _PAYLOAD_HEAD_STRUCT.unpack_from(payload, 0)
        if version != PAYLOAD_VERSION:
            raise ArchiveFormatError(
                f"subband-major payload version {version} is not supported "
                f"(expected {PAYLOAD_VERSION})"
            )
        return True, PAYLOAD_HEAD_SIZE, meta_len
    if len(first) < 4:
        raise ArchiveFormatError("frame payload shorter than its length prefix")
    (meta_len,) = struct.unpack("<I", first)
    return False, 4, meta_len


def section_table_length(head: Payload) -> int:
    """Bytes from the payload's start through its section table — the
    head, the meta block and (subband-major) the meta CRC — read from the
    head alone (:data:`PAYLOAD_HEAD_SIZE` bytes suffice for either
    layout).  This is :attr:`SectionTable.body_offset` before parsing."""
    sectioned, meta_start, meta_len = _parse_head(head)
    return meta_start + meta_len + (4 if sectioned else 0)


def is_subband_major(payload: Payload) -> bool:
    """Whether the payload bytes use the version-2 subband-major layout.

    Decided from the payload's first word alone (see
    :data:`PAYLOAD_SENTINEL`), so it works on any prefix of at least four
    bytes; shorter inputs are nobody's payload and report ``False``.
    """
    return bytes(payload[:4]) == _SENTINEL_BYTES


def payload_layout(payload: Payload) -> str:
    """The layout name (:data:`~repro.archive.format.LAYOUTS`) of a payload."""
    return LAYOUT_SUBBAND_MAJOR if is_subband_major(payload) else LAYOUT_FRAME_MAJOR


def parse_section_table(payload: Payload, check_plan: bool = True) -> SectionTable:
    """Parse a payload's head and section table, either layout.

    Touches only the payload's head and table — never a section byte — so
    it accepts a prefix read as readily as a whole payload.  On a
    subband-major payload, bytes cut *inside* the table raise
    :class:`TruncatedArchiveError` naming the section descriptor the bytes
    end in, and a complete table whose CRC disagrees raises
    :class:`ArchiveIntegrityError`.  A frame-major meta block must be whole
    (:class:`ArchiveFormatError` otherwise).  Either layout's descriptors
    must form the frame's subband pyramid (see the module docstring).
    ``check_plan=False`` skips the word-length plan validation for triage
    callers (:func:`payload_spec`).
    """
    sectioned, meta_start, meta_len = _parse_head(payload)
    meta = payload[meta_start : meta_start + meta_len]
    meta_complete = len(meta) == meta_len
    body_offset = meta_start + meta_len
    if sectioned:
        body_offset += 4
        if meta_complete:
            if len(payload) < body_offset:
                raise TruncatedArchiveError(
                    "frame payload ends inside its section-table checksum"
                )
            (stored_crc,) = struct.unpack_from("<I", payload, meta_start + meta_len)
            if stored_crc != crc32(bytes(meta)):
                raise ArchiveIntegrityError("section table checksum mismatch")
    elif not meta_complete:
        raise ArchiveFormatError(
            f"frame payload declares a {meta_len}-byte meta block but only "
            f"{len(meta)} bytes follow"
        )
    reader = BitReader(meta)
    # On a truncated (subband-major) meta block the parse below runs
    # against the partial bytes on purpose: the EOF then names the exact
    # descriptor the payload ends in, which the truncation sweep asserts.
    try:
        codec_id = reader.read_uint(8)
        family = get_family(codec_name_for_id(codec_id, "frame payload"))
        scales = reader.read_uint(8)
        shape = (reader.read_uint(32), reader.read_uint(32))
        bit_depth = reader.read_uint(8)
        bank_name = ""
        if family.uses_bank:
            bank_name = _read_ascii(reader)
            if check_plan:
                _check_plan(reader, bank_name, scales)
            else:
                for _ in range(2 + scales):
                    reader.read_uint(8)
        count = reader.read_uint(16)
    except (EOFError, KeyError) as exc:
        if not meta_complete:
            raise TruncatedArchiveError(
                "frame payload ends inside its section-table prologue"
            ) from exc
        raise ArchiveFormatError("frame payload meta block is malformed") from exc
    sections: List[PayloadSection] = []
    offset = body_offset
    descriptor = _descriptor_struct(family.uses_bank, sectioned)
    at = len(meta) - reader.bits_remaining // 8
    for index in range(count):
        try:
            if at + descriptor.size > len(meta):
                raise EOFError("section table exhausted")
            kind_id, scale, height, width, *rest = descriptor.unpack_from(meta, at)
            kind = KINDS_BY_ID[kind_id]
        except (EOFError, KeyError) as exc:
            if not meta_complete:
                raise TruncatedArchiveError(
                    f"frame payload ends inside section descriptor {index} "
                    f"of {count}"
                ) from exc
            raise ArchiveFormatError(
                f"frame payload meta block is malformed at section "
                f"descriptor {index} of {count}"
            ) from exc
        at += descriptor.size
        section_crc = rest.pop() if sectioned else None
        use_rle, payload_len, run_len = rest if family.uses_bank else (0, rest[0], 0)
        sections.append(
            PayloadSection(
                index=index,
                kind=kind,
                scale=scale,
                shape=(height, width),
                use_rle=bool(use_rle),
                payload_len=payload_len,
                run_len=run_len,
                crc32=section_crc,
                offset=offset,
            )
        )
        offset += payload_len + run_len
    if not meta_complete:
        # Every descriptor parsed out of fewer bytes than declared: the cut
        # falls between the last descriptor and the declared end.
        raise TruncatedArchiveError(
            f"frame payload ends inside its section table after descriptor "
            f"{count - 1} of {count}"
            if count
            else "frame payload ends inside its section table"
        )
    if sectioned:
        order = [(-s.scale, KIND_IDS[s.kind]) for s in sections]
        if order != sorted(order):
            raise ArchiveFormatError(
                "subband-major sections are not coarsest-first; the prefix "
                "property does not hold for this payload"
            )
    _check_geometry(sections, scales, shape)
    return SectionTable(
        layout=LAYOUT_SUBBAND_MAJOR if sectioned else LAYOUT_FRAME_MAJOR,
        codec=family.name,
        scales=scales,
        image_shape=shape,
        bit_depth=bit_depth,
        bank_name=bank_name,
        sections=tuple(sections),
        body_offset=body_offset,
    )


def sections_to_stream(
    table: SectionTable,
    body: Payload,
    at_scale: int = 0,
    verify: bool = True,
) -> CompressedStream:
    """Build a (possibly partial) stream from section bytes.

    ``body`` holds the payload's bytes from :attr:`SectionTable.body_offset`
    on — at least through the last section the stream needs — as stored,
    so slicing stays zero-copy on ``memoryview`` input.  ``at_scale=0``
    takes every section; a higher scale takes just that preview's prefix
    (:meth:`SectionTable.prefix_sections`).  With
    ``verify`` each consumed section that carries a CRC is checked against
    it, making a prefix read trustworthy without the whole-payload checksum.
    """
    rows: List[SubbandChunk] = []
    for section in table.prefix_sections(at_scale):
        start = section.offset - table.body_offset
        data = body[start : start + section.length]
        if len(data) != section.length:
            raise TruncatedArchiveError(
                f"frame payload ends inside section {section.index} "
                f"({section.kind}@{section.scale}, {section.length} bytes)"
            )
        if (
            verify
            and section.crc32 is not None
            and zlib.crc32(data) & 0xFFFFFFFF != section.crc32
        ):
            raise ArchiveIntegrityError(
                f"section {section.index} ({section.kind}@{section.scale}) "
                "checksum mismatch"
            )
        rows.append(SubbandChunk(
            section.kind,
            section.scale,
            section.shape,
            section.use_rle,
            data[: section.payload_len],
            data[section.payload_len :],
        ))
    header = (table.bank_name, table.scales, table.image_shape, table.bit_depth)
    return _rows_stream(header, rows)


def deserialize_prefix(
    payload: Payload, at_scale: int
) -> Tuple[CompressedStream, CodecSpec]:
    """Reconstruct the partial stream a scale-``at_scale`` preview needs.

    ``payload`` may be the whole payload or any prefix of at least
    ``prefix_length(payload, at_scale)`` bytes; only those bytes are
    touched (zero-copy on ``memoryview`` input) and each consumed section
    is verified against its per-section CRC.  The returned stream holds
    the HH approximation plus the detail subbands coarser than
    ``at_scale``; the spec is the full frame's (derived from the complete
    section table, which a prefix always carries whole).
    """
    table = parse_section_table(payload)
    stream = sections_to_stream(
        table, payload[table.body_offset :], at_scale=at_scale
    )
    return stream, table.spec()


def prefix_length(payload: Payload, at_scale: int) -> int:
    """Bytes of ``payload`` a scale-``at_scale`` preview decode touches."""
    return parse_section_table(payload, check_plan=False).prefix_length(at_scale)


def deserialize_stream_with_spec(payload: Payload) -> Tuple[CompressedStream, CodecSpec]:
    """Reconstruct one frame payload's stream *and* its :class:`CodecSpec`.

    ``payload`` may be ``bytes`` or a ``memoryview``; a view is never
    copied — the returned stream's chunk payloads are sub-views of it, so
    they remain valid only as long as the view's backing store does
    (the reader holds its mapping open until :meth:`ArchiveReader.close`).
    Both layouts go the same way: section table, length check, sections
    (every subband-major section CRC-verified).
    """
    table = parse_section_table(payload)
    if table.payload_length != len(payload):
        if table.payload_length > len(payload):
            short = (
                TruncatedArchiveError
                if table.layout == LAYOUT_SUBBAND_MAJOR
                else ArchiveFormatError
            )
            raise short(
                f"frame payload declares {table.payload_length} bytes of "
                f"sections but holds {len(payload)}"
            )
        raise ArchiveFormatError(
            f"frame payload has {len(payload) - table.payload_length} "
            "trailing bytes after the declared sections"
        )
    stream = sections_to_stream(table, payload[table.body_offset :])
    return stream, table.spec()


def materialize_stream(stream: CompressedStream) -> CompressedStream:
    """Ensure a stream's chunk payloads are self-contained ``bytes``.

    A stream deserialised from a zero-copy view holds sub-views of the
    reader's storage mapping: fast to decode, but not picklable (process
    pools) and only valid while the mapping lives.  This copies any such
    views into ``bytes`` **in place** and returns the stream; byte-backed
    streams pass through untouched, so it is free on the copying path.
    """
    header, rows = _stream_rows(stream)
    if not all(
        isinstance(row.payload, bytes) and isinstance(row.run_payload, bytes)
        for row in rows
    ):
        stream.chunks = _rows_stream(
            header,
            [
                replace(row, payload=bytes(row.payload), run_payload=bytes(row.run_payload))
                for row in rows
            ],
        ).chunks
    return stream


def deserialize_stream(payload: Payload) -> CompressedStream:
    """Reconstruct the compressed stream from one archive frame payload."""
    stream, _ = deserialize_stream_with_spec(payload)
    return stream


def payload_spec(payload: Payload) -> CodecSpec:
    """Recover just the :class:`CodecSpec` from a payload's meta block.

    A triage entry point: answers "what configuration wrote these bytes"
    by parsing only the section table (word-length plan validation
    skipped) — the entropy-coded section bytes are never touched or
    validated, so this works even when the payload's section region is
    truncated (the common damage mode the sharded verify isolates).  A
    subband-major payload cut inside the table raises
    :class:`TruncatedArchiveError` naming the section descriptor, never a
    raw struct/EOF error.
    """
    return parse_section_table(payload, check_plan=False).spec()
