"""Crash safety and damage isolation on sharded archive sets (acceptance)."""

import numpy as np
import pytest

from repro.archive import (
    ArchiveError,
    ArchiveIntegrityError,
    ArchiveReader,
    ShardedArchiveReader,
    ShardedArchiveWriter,
    write_manifest,
)
from repro.archive.format import HEADER_SIZE
from repro.imaging import ct_slice_series

pytestmark = pytest.mark.archive


def names_for(count):
    return [f"slice_{i:03d}" for i in range(count)]


@pytest.fixture()
def victim_set(tmp_path):
    frames = ct_slice_series(count=9, size=32, seed=5)
    path = tmp_path / "victim.dwts"
    with ShardedArchiveWriter.create(path, shards=3) as writer:
        writer.append_batch(frames, names=names_for(9))
    return path, frames


def _shard_with_frames(path):
    """(shard_index, shard_path, frame_names) of the first non-empty shard."""
    with ShardedArchiveReader(path) as reader:
        for shard, shard_path in enumerate(reader.shard_paths):
            with ArchiveReader(shard_path) as shard_reader:
                if len(shard_reader):
                    return shard, shard_path, shard_reader.names()
    raise AssertionError("set has no frames")


class TestDamageIsolation:
    def test_corrupted_shard_detected_and_isolated(self, victim_set):
        path, frames = victim_set
        shard, shard_path, damaged_names = _shard_with_frames(path)
        data = bytearray(shard_path.read_bytes())
        data[HEADER_SIZE + 10] ^= 0xFF  # flip a payload byte in one shard
        shard_path.write_bytes(bytes(data))

        with ShardedArchiveReader(path) as reader:
            report = reader.verify(deep=True, strict=False)
            assert list(report["failures"]) == [shard_path.name]
            assert "checksum" in report["failures"][shard_path.name]
            # Every frame outside the damaged shard verified and decodes.
            assert report["frames"] == 9 - len(damaged_names)
            for position, name in enumerate(names_for(9)):
                if name in damaged_names:
                    continue
                assert np.array_equal(reader.decode(name), frames[position])

    def test_truncated_shard_detected_and_isolated(self, victim_set):
        path, frames = victim_set
        shard, shard_path, damaged_names = _shard_with_frames(path)
        data = shard_path.read_bytes()
        shard_path.write_bytes(data[:-7])  # cut into the index table

        with ShardedArchiveReader(path) as reader:
            report = reader.verify(strict=False)
            assert list(report["failures"]) == [shard_path.name]
            assert "Truncated" in report["failures"][shard_path.name]
            healthy = [n for n in names_for(9) if n not in damaged_names]
            for name in healthy:
                reader.decode(name)
            # The damaged shard fails loudly, not silently.
            with pytest.raises(ArchiveError):
                reader.decode(damaged_names[0])

    def test_strict_verify_raises_but_names_clean_shards(self, victim_set):
        path, _ = victim_set
        _, shard_path, _ = _shard_with_frames(path)
        shard_path.write_bytes(shard_path.read_bytes()[:-3])
        with ShardedArchiveReader(path) as reader:
            with pytest.raises(ArchiveIntegrityError, match="other shards verified clean"):
                reader.verify()

    def test_parallel_verify_matches_serial(self, victim_set):
        path, _ = victim_set
        _, shard_path, _ = _shard_with_frames(path)
        data = bytearray(shard_path.read_bytes())
        data[HEADER_SIZE + 4] ^= 0xFF
        shard_path.write_bytes(bytes(data))
        with ShardedArchiveReader(path) as reader:
            serial = reader.verify(deep=True, strict=False)
        with ShardedArchiveReader(path) as reader:
            parallel = reader.verify(deep=True, workers=3, strict=False)
        assert dict(serial) == dict(parallel)


class TestInterruptedAppend:
    def test_failed_append_batch_leaves_every_shard_valid(self, victim_set):
        """A mid-batch codec failure aborts the append, but closing the
        writer finalises every shard into a valid archive."""
        path, _ = victim_set
        good = ct_slice_series(count=2, size=32, seed=8)
        poison = np.full((32, 32), 1 << 15, dtype=np.int64)  # exceeds 12-bit
        with ShardedArchiveWriter.append(path) as writer:
            with pytest.raises(ValueError, match="12-bit"):
                writer.append_batch(
                    [good[0], poison, good[1]],
                    names=["extra_0", "poison", "extra_1"],
                )
        with ShardedArchiveReader(path) as reader:
            report = reader.verify(deep=True)
            assert not report["failures"]
            assert "poison" not in reader.names()

    def test_crash_before_close_preserves_pre_append_state(self, victim_set):
        """Simulated hard crash (no close): every shard still reads as its
        pre-append state, because shard headers are only patched on close."""
        path, frames = victim_set
        writer = ShardedArchiveWriter.append(path)
        writer.append_batch(
            ct_slice_series(count=3, size=32, seed=11),
            names=["doomed_0", "doomed_1", "doomed_2"],
        )
        for fan_out in writer._writers.values():
            for shard_writer in fan_out.writers:
                shard_writer._fh.flush()  # payloads hit disk, headers untouched

        with ShardedArchiveReader(path) as reader:
            assert reader.names() == names_for(9)  # the append never happened
            report = reader.verify(deep=True)
            assert report["frames"] == 9 and not report["failures"]
            for position, name in enumerate(names_for(9)):
                assert np.array_equal(reader.decode(name), frames[position])

        writer.close()  # the append lands atomically on close
        with ShardedArchiveReader(path) as reader:
            assert len(reader) == 12
            assert not reader.verify(deep=True)["failures"]


class TestManifestCrashSafety:
    def test_kill_mid_rewrite_leaves_the_old_manifest_intact(
        self, victim_set, monkeypatch
    ):
        """A writer killed between writing the temp manifest and renaming it
        (the only non-atomic window) must leave the original manifest byte
        for byte — the set stays fully readable."""
        import repro.archive.sharding as sharding

        path, frames = victim_set
        original = path.read_bytes()
        with ShardedArchiveReader(path) as reader:
            manifest = reader.manifest

        def crash(src, dst):
            raise KeyboardInterrupt("killed mid-rewrite")

        monkeypatch.setattr(sharding.os, "replace", crash)
        with pytest.raises(KeyboardInterrupt):
            write_manifest(path, manifest)
        monkeypatch.undo()

        # The target was never touched; only a stale .tmp remains.
        assert path.read_bytes() == original
        assert path.with_name(path.name + ".tmp").exists()
        with ShardedArchiveReader(path) as reader:
            assert not reader.verify(deep=True)["failures"]
            assert np.array_equal(reader.decode("slice_000"), frames[0])

        # The next (uninterrupted) write overwrites the stale temp file.
        write_manifest(path, manifest)
        assert not path.with_name(path.name + ".tmp").exists()
        assert path.read_bytes() == original

    def test_successful_write_leaves_no_temp_file(self, tmp_path, victim_set):
        path, _ = victim_set
        with ShardedArchiveReader(path) as reader:
            write_manifest(path, reader.manifest)
        assert not path.with_name(path.name + ".tmp").exists()
        with ShardedArchiveReader(path) as reader:
            assert reader.names() == names_for(9)
