"""Damage handling: truncated and corrupted archives fail loudly and cleanly."""

import pytest

from repro.archive import (
    ArchiveError,
    ArchiveFormatError,
    ArchiveIntegrityError,
    ArchiveReader,
    ArchiveWriter,
    TruncatedArchiveError,
)
from repro.archive.format import HEADER_SIZE, read_header
from repro.imaging import ct_slice_series

pytestmark = pytest.mark.archive


@pytest.fixture()
def archive(tmp_path):
    path = tmp_path / "victim.dwta"
    with ArchiveWriter.create(path) as writer:
        writer.append_batch(ct_slice_series(count=3, size=32, seed=5))
    return path


def test_not_an_archive(tmp_path):
    path = tmp_path / "noise.dwta"
    path.write_bytes(b"definitely not an archive, but long enough to parse" * 2)
    with pytest.raises(ArchiveFormatError, match="bad magic"):
        ArchiveReader(path)


def test_truncated_header(tmp_path, archive):
    short = tmp_path / "short.dwta"
    short.write_bytes(archive.read_bytes()[: HEADER_SIZE - 5])
    with pytest.raises(TruncatedArchiveError):
        ArchiveReader(short)


def test_truncated_index(tmp_path, archive):
    cut = tmp_path / "cut.dwta"
    cut.write_bytes(archive.read_bytes()[:-7])
    with pytest.raises(TruncatedArchiveError, match="index table"):
        ArchiveReader(cut)


def test_unfinalised_archive_detected(tmp_path):
    path = tmp_path / "crashed.dwta"
    writer = ArchiveWriter.create(path)
    writer.append_batch(ct_slice_series(count=1, size=32))
    writer._fh.flush()  # simulate a crash: payload on disk, no close()
    with pytest.raises(ArchiveFormatError, match="never finalised"):
        ArchiveReader(path)
    writer.close()
    with ArchiveReader(path) as reader:  # after close it is a valid archive
        assert len(reader) == 1


def test_crash_during_append_preserves_old_archive(archive):
    """An append that never closes must leave the original archive intact."""
    with ArchiveReader(archive) as reader:
        before = reader.decode_range(0)
    writer = ArchiveWriter.append(archive)
    writer.append_batch(ct_slice_series(count=1, size=32, seed=8), names=["doomed"])
    writer._fh.flush()  # simulate a crash: payload on disk, no close()
    with ArchiveReader(archive) as reader:  # still the pre-append archive
        assert reader.names() == ["frame_00000", "frame_00001", "frame_00002"]
        for image, original in zip(reader.decode_range(0), before):
            assert (image == original).all()
        assert reader.verify(deep=True)["frames"] == 3
    writer.close()
    with ArchiveReader(archive) as reader:  # after close the append lands
        assert len(reader) == 4 and reader.names()[-1] == "doomed"


def test_corrupted_payload_checksum(archive):
    data = bytearray(archive.read_bytes())
    data[HEADER_SIZE + 10] ^= 0xFF  # flip a byte inside frame 0's payload
    archive.write_bytes(bytes(data))
    with ArchiveReader(archive) as reader:
        with pytest.raises(ArchiveIntegrityError, match="checksum mismatch"):
            reader.decode(0)
        with pytest.raises(ArchiveIntegrityError):
            reader.verify()
        # Undamaged frames remain individually retrievable.
        reader.decode(1)
        reader.decode(2)


def test_corrupted_payload_found_even_without_per_read_checks(archive):
    data = bytearray(archive.read_bytes())
    data[HEADER_SIZE + 10] ^= 0xFF
    archive.write_bytes(bytes(data))
    with ArchiveReader(archive, verify_checksums=False) as reader:
        with pytest.raises(ArchiveIntegrityError):
            reader.verify()


def test_corrupted_index_checksum(archive):
    with open(archive, "rb") as fh:
        header = read_header(fh)
    data = bytearray(archive.read_bytes())
    data[header.index_offset + 3] ^= 0x01
    archive.write_bytes(bytes(data))
    with pytest.raises(ArchiveIntegrityError, match="index table checksum"):
        ArchiveReader(archive)


def test_corrupted_header_field(archive):
    data = bytearray(archive.read_bytes())
    data[12] ^= 0x01  # frame_count, protected by the header CRC
    archive.write_bytes(bytes(data))
    with pytest.raises(ArchiveIntegrityError, match="header checksum"):
        ArchiveReader(archive)


def test_every_failure_is_an_archive_error(tmp_path, archive):
    """The whole taxonomy roots at ArchiveError, so callers can catch once."""
    bad = tmp_path / "bad.dwta"
    bad.write_bytes(b"\x00" * 100)
    for path in (bad,):
        with pytest.raises(ArchiveError):
            ArchiveReader(path)
