"""Self-healing replicated shard sets: fan-out, failover, verify-driven repair."""

import os

import numpy as np
import pytest

from repro.archive import (
    ArchiveError,
    ArchiveIntegrityError,
    ArchiveWriter,
    Fault,
    FaultInjectionBackend,
    FileBackend,
    RetryPolicy,
    ReplicatedShardSet,
    ShardedArchiveReader,
    ShardedArchiveWriter,
    ShardManifest,
    repair_set,
    seeded_fault_plan,
    shard_replica_names,
)
from repro.archive.format import HEADER_SIZE, pack_manifest, unpack_manifest
from repro.archive.ingest import ingest_frames
from repro.coding.spec import CodecSpec
from repro.imaging import ct_slice_series

pytestmark = pytest.mark.archive

SEEDS = [3, 11, 42]
if os.environ.get("REPRO_FAULT_SEED"):
    SEEDS = sorted({*SEEDS, int(os.environ["REPRO_FAULT_SEED"])})


def names_for(count):
    return [f"slice_{i:03d}" for i in range(count)]


def copy_files(path):
    """Per shard: [primary, replica0, ...] paths, from the manifest."""
    with ShardedArchiveReader(path) as reader:
        return [list(copies) for copies in reader.copy_paths]


def assert_copies_identical(path):
    for copies in copy_files(path):
        blobs = [p.read_bytes() for p in copies]
        assert all(blob == blobs[0] for blob in blobs[1:]), copies


@pytest.fixture()
def replicated_set(tmp_path):
    frames = ct_slice_series(count=9, size=32, seed=5)
    path = tmp_path / "healer.dwts"
    with ReplicatedShardSet.create(
        path, spec=CodecSpec(scales=2), shards=4, replicas=1
    ) as writer:
        writer.append_batch(frames, names=names_for(9))
    return path, frames


def _shard_with_frames(path):
    """(shard, primary_path, replica_paths, frame_names) of a non-empty shard."""
    with ShardedArchiveReader(path) as reader:
        for shard, copies in enumerate(reader.copy_paths):
            with ShardedArchiveReader(path) as probe:
                names = [
                    e.name for e in probe._shard_op(shard, lambda r: list(r.frames))
                ]
            if names:
                return shard, copies[0], copies[1:], names
    raise AssertionError("set has no frames")


class TestManifestReplicaMap:
    def test_v2_roundtrip_with_replicas(self, tmp_path):
        replica_names = shard_replica_names(tmp_path / "x.dwts", 3, 2)
        manifest = ShardManifest(
            version=2,
            router="hash",
            shard_names=("a.dwta", "b.dwta", "c.dwta"),
            spec_json='{"codec": "s-transform"}',
            replica_names=replica_names,
        )
        assert unpack_manifest(pack_manifest(manifest)) == manifest
        assert manifest.replicas == 2

    def test_replica_map_needs_version_2(self):
        manifest = ShardManifest(
            version=1,
            router="hash",
            shard_names=("a.dwta",),
            spec_json="{}",
            replica_names=(("a.r0.dwta",),),
        )
        with pytest.raises(ValueError, match="version"):
            pack_manifest(manifest)

    def test_replica_map_must_cover_every_shard(self):
        manifest = ShardManifest(
            version=2,
            router="hash",
            shard_names=("a.dwta", "b.dwta"),
            spec_json="{}",
            replica_names=(("a.r0.dwta",),),
        )
        with pytest.raises(ValueError, match="shard"):
            pack_manifest(manifest)


class TestWriteFanOut:
    def test_create_materialises_every_copy(self, replicated_set):
        path, _ = replicated_set
        copies = copy_files(path)
        assert len(copies) == 4 and all(len(c) == 2 for c in copies)
        for shard_copies in copies:
            for copy in shard_copies:
                assert copy.exists()
        assert_copies_identical(path)

    def test_serial_and_pooled_appends_are_byte_identical(self, tmp_path):
        frames = ct_slice_series(count=8, size=32, seed=3)
        serial = tmp_path / "serial.dwts"
        pooled = tmp_path / "pooled.dwts"
        for path, workers in ((serial, 1), (pooled, 3)):
            with ReplicatedShardSet.create(
                path,
                spec=CodecSpec(scales=2),
                shards=3,
                replicas=1,
            ) as writer:
                writer.append_batch(frames, names=names_for(8), workers=workers)
            assert_copies_identical(path)
        for a, b in zip(copy_files(serial), copy_files(pooled)):
            assert a[0].read_bytes() == b[0].read_bytes()

    def test_base_class_append_dispatches_to_replication(self, replicated_set):
        """Opening a replicated manifest through the base writer still fans
        out — replication is a property of the set, not the code path."""
        path, _ = replicated_set
        extra = ct_slice_series(count=2, size=32, seed=8)
        with ShardedArchiveWriter.append(path) as writer:
            assert isinstance(writer, ReplicatedShardSet)
            writer.append_batch(extra, names=["extra_0", "extra_1"])
        assert_copies_identical(path)

    def test_streamed_ingest_replicates(self, tmp_path):
        """Frame-at-a-time ingest keeps every copy byte-identical and lands
        the same bytes as a batch append of the same frames."""
        frames = ct_slice_series(count=6, size=32, seed=4)
        streamed = tmp_path / "streamed.dwts"
        batched = tmp_path / "batched.dwts"
        with ReplicatedShardSet.create(
            streamed,
            spec=CodecSpec(scales=2),
            shards=2,
            replicas=1,
        ) as writer:
            report = ingest_frames(
                writer, zip(names_for(6), frames), queue_depth=2
            )
            assert report.frames == 6
        with ReplicatedShardSet.create(
            batched,
            spec=CodecSpec(scales=2),
            shards=2,
            replicas=1,
        ) as writer:
            writer.append_batch(frames, names=names_for(6))
        assert_copies_identical(streamed)
        for a, b in zip(copy_files(streamed), copy_files(batched)):
            assert a[0].read_bytes() == b[0].read_bytes()


class TestReadFailover:
    @pytest.mark.parametrize(
        "damage",
        ["header", "payload-crc", "truncation"],
    )
    def test_reads_survive_primary_damage(self, replicated_set, damage):
        path, frames = replicated_set
        _, primary, _, _ = _shard_with_frames(path)
        original = primary.read_bytes()
        if damage == "header":
            data = bytearray(original)
            data[3] ^= 0xFF  # magic bytes — the copy won't even open
            primary.write_bytes(bytes(data))
        elif damage == "payload-crc":
            data = bytearray(original)
            data[HEADER_SIZE + 6] ^= 0x10
            primary.write_bytes(bytes(data))
        else:
            primary.write_bytes(original[:-9])  # torn index
        with ShardedArchiveReader(path) as reader:
            for position, name in enumerate(names_for(9)):
                assert np.array_equal(reader.decode(name), frames[position]), name
            assert reader.failovers >= 1

    def test_failover_counter_sits_next_to_the_others(self, replicated_set):
        path, frames = replicated_set
        shard, primary, _, damaged_names = _shard_with_frames(path)
        data = bytearray(primary.read_bytes())
        data[HEADER_SIZE + 2] ^= 0x01
        primary.write_bytes(bytes(data))
        with ShardedArchiveReader(path) as reader:
            assert reader.failovers == 0
            for name in names_for(9):
                reader.decode(name)
            assert reader.failovers == 1  # one switch serves every later read
            assert shard in reader.opened_shards
            assert reader.bytes_read > 0
            assert reader.retries == 0

    def test_retry_absorbs_transient_fault_without_failover(self, replicated_set):
        """Transient errors are the retry ladder's job; failover is only for
        persistent damage.  A fail-then-succeed fault must not burn a copy."""
        path, frames = replicated_set

        def flaky(path_):
            return FaultInjectionBackend(
                FileBackend(path_), faults=(Fault(kind="io-error", at_read=1, times=1),)
            )

        policy = RetryPolicy(attempts=3, base_delay=0.001, sleep=lambda s: None)
        with ShardedArchiveReader(path, retry=policy, backend_factory=flaky) as reader:
            for position, name in enumerate(names_for(9)):
                assert np.array_equal(reader.decode(name), frames[position])
            assert reader.retries >= 1
            assert reader.failovers == 0

    def test_bounded_retries_then_failover_on_persistent_fault(self, replicated_set):
        """A copy whose reads keep failing exhausts its bounded retries and
        fails over; the replica (opened through a clean backend) serves."""
        path, frames = replicated_set

        calls = {"n": 0}

        def poisoned_primaries(path_):
            calls["n"] += 1
            if path_.name.endswith(".r0.dwta"):
                return FileBackend(path_)
            return FaultInjectionBackend(
                FileBackend(path_), faults=(Fault(kind="io-error", at_read=0, times=99),)
            )

        policy = RetryPolicy(attempts=2, base_delay=0.001, sleep=lambda s: None)
        with ShardedArchiveReader(path, retry=policy, backend_factory=poisoned_primaries) as reader:
            touched = {reader.router.route(name) for name in names_for(9)}
            for position, name in enumerate(names_for(9)):
                assert np.array_equal(reader.decode(name), frames[position])
            # One switch per shard actually read; empty shards never open.
            assert reader.failovers == len(touched)
            assert reader.retries >= 1  # bounded retries ran before each switch

    def test_unreplicated_set_still_raises(self, tmp_path):
        frames = ct_slice_series(count=6, size=32, seed=5)
        path = tmp_path / "bare.dwts"
        with ShardedArchiveWriter.create(
            path, spec=CodecSpec(scales=2), shards=2
        ) as writer:
            writer.append_batch(frames, names=names_for(6))
        with ShardedArchiveReader(path) as probe:
            shard_path = probe.shard_paths[0]
        with ShardedArchiveReader(path) as victim_probe:
            victim_names = [
                e.name for e in victim_probe._shard_op(0, lambda r: list(r.frames))
            ]
        shard_path.write_bytes(shard_path.read_bytes()[:-5])
        with ShardedArchiveReader(path) as reader:
            with pytest.raises(ArchiveError):
                reader.decode(victim_names[0])
            assert reader.failovers == 0

    def test_both_copies_damaged_raises(self, replicated_set):
        path, _ = replicated_set
        _, primary, replicas, damaged_names = _shard_with_frames(path)
        for target in (primary, *replicas):
            target.write_bytes(target.read_bytes()[:-7])
        with ShardedArchiveReader(path) as reader:
            with pytest.raises(ArchiveError):
                reader.decode(damaged_names[0])


class TestVerifyAndRepair:
    def test_verify_covers_every_copy(self, replicated_set):
        path, _ = replicated_set
        _, primary, replicas, _ = _shard_with_frames(path)
        # Damage only the REPLICA: reads from primaries stay clean, but
        # verify must still flag the set (the safety margin is gone).
        replica = replicas[0]
        data = bytearray(replica.read_bytes())
        data[HEADER_SIZE + 1] ^= 0x40
        replica.write_bytes(bytes(data))
        with ShardedArchiveReader(path) as reader:
            report = reader.verify(strict=False)
            assert list(report["failures"]) == [replica.name]
            assert report["shard_status"][primary.name] == "damaged"
            assert report["copies"] == 8
            with pytest.raises(ArchiveIntegrityError, match="other shards verified clean"):
                reader.verify(strict=True)

    def test_parallel_verify_matches_serial(self, replicated_set):
        path, _ = replicated_set
        _, primary, _, _ = _shard_with_frames(path)
        primary.write_bytes(primary.read_bytes()[:-3])
        with ShardedArchiveReader(path) as reader:
            serial = reader.verify(strict=False)
        with ShardedArchiveReader(path) as reader:
            parallel = reader.verify(strict=False, workers=4)
        assert dict(serial) == dict(parallel)

    def test_repair_rebuilds_byte_identical(self, replicated_set):
        path, _ = replicated_set
        _, primary, _, _ = _shard_with_frames(path)
        pristine = primary.read_bytes()
        data = bytearray(pristine)
        data[HEADER_SIZE + 4] ^= 0x08
        primary.write_bytes(bytes(data))
        result = repair_set(path)
        assert result.ok
        assert result.shard_status[primary.name] == "repaired"
        assert primary.read_bytes() == pristine  # byte-identical, not re-encoded
        with ShardedArchiveReader(path) as reader:
            assert not reader.verify(strict=True)["failures"]

    def test_repair_heals_a_damaged_replica_from_the_primary(self, replicated_set):
        path, _ = replicated_set
        _, primary, replicas, _ = _shard_with_frames(path)
        replica = replicas[0]
        pristine = replica.read_bytes()
        replica.write_bytes(pristine[:-11])
        result = repair_set(path)
        assert result.repaired == {replica.name: primary.name}
        assert replica.read_bytes() == pristine

    def test_repair_reports_unrepairable_shards(self, replicated_set):
        path, _ = replicated_set
        _, primary, replicas, _ = _shard_with_frames(path)
        for target in (primary, *replicas):
            target.write_bytes(target.read_bytes()[:-13])
        result = repair_set(path)
        assert not result.ok
        assert sorted(result.unrepairable) == sorted(
            [primary.name] + [r.name for r in replicas]
        )
        assert result.shard_status[primary.name] == "damaged"

    def test_stale_replica_detected_and_healed(self, replicated_set):
        """A replica left behind by a torn fan-out (valid, but missing the
        newest frames) is divergence, not health: verify flags it and repair
        resyncs it from the fuller primary."""
        path, frames = replicated_set
        shard, primary, replicas, _ = _shard_with_frames(path)
        replica = replicas[0]
        with ShardedArchiveReader(path) as probe:
            spec = probe.spec
            # A name the router sends to the shard we are going to tear.
            torn_name = next(
                name
                for name in (f"torn_{i}" for i in range(64))
                if probe.router.route(name) == shard
            )
        # Simulate the torn fan-out: append one frame to the primary only.
        extra = ct_slice_series(count=1, size=32, seed=77)[0]
        with ArchiveWriter.append(primary, spec=spec) as writer:
            writer.append_batch([extra], names=[torn_name])
        with ShardedArchiveReader(path) as reader:
            report = reader.verify(strict=False)
            assert list(report["failures"]) == [replica.name]
            assert "diverged" in report["failures"][replica.name]
        result = repair_set(path)
        assert result.repaired == {replica.name: primary.name}
        assert replica.read_bytes() == primary.read_bytes()
        with ShardedArchiveReader(path) as reader:
            assert not reader.verify(strict=True)["failures"]
            assert np.array_equal(reader.decode(torn_name), extra)


class TestEndToEndSelfHealing:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_acceptance_proof(self, tmp_path, seed):
        """The issue's acceptance scenario, per chaos seed: a replicated
        4-shard set survives header / payload-CRC / truncation damage via
        failover with bounded retries, repair restores the damaged copies
        byte for byte, and strict verify passes afterwards."""
        rngless = ct_slice_series(count=12, size=32, seed=seed)
        path = tmp_path / f"acceptance_{seed}.dwts"
        with ReplicatedShardSet.create(
            path,
            spec=CodecSpec(scales=2),
            shards=4,
            replicas=1,
        ) as writer:
            writer.append_batch(rngless, names=names_for(12))
        assert_copies_identical(path)
        copies = copy_files(path)
        pristine = {c: c.read_bytes() for shard in copies for c in shard}

        # Three damage variants across three distinct primaries, offsets
        # derived from the seed so every chaos run is reproducible.
        plan = seeded_fault_plan(seed, min(len(pristine[s[0]]) for s in copies), faults=3)
        variants = ["header", "payload-crc", "truncation"]
        damaged = []
        for variant, shard_copies, fault in zip(variants, copies[:3], plan):
            primary = shard_copies[0]
            blob = bytearray(pristine[primary])
            if variant == "header":
                blob[2] ^= max(fault.mask, 1)
                primary.write_bytes(bytes(blob))
            elif variant == "payload-crc":
                offset = HEADER_SIZE + (fault.offset % 16)
                blob[offset] ^= max(fault.mask, 1)
                primary.write_bytes(bytes(blob))
            else:
                cut = max(1, fault.offset % (len(blob) // 2))
                primary.write_bytes(bytes(blob[:-cut]))
            damaged.append(primary)

        # Reads still succeed via failover, with bounded retries absorbing
        # a transient fault on top of the persistent damage.
        policy = RetryPolicy(attempts=3, base_delay=0.001, sleep=lambda s: None)
        with ShardedArchiveReader(path, retry=policy) as reader:
            for position, name in enumerate(names_for(12)):
                assert np.array_equal(reader.decode(name), rngless[position]), name
            assert reader.failovers >= 1

        report_before = None
        with ShardedArchiveReader(path) as reader:
            report_before = reader.verify(strict=False)
        assert {name for name in report_before["failures"]} == {
            p.name for p in damaged
        }

        result = repair_set(path)
        assert result.ok
        for primary in damaged:
            assert result.shard_status[primary.name] == "repaired"
            assert primary.read_bytes() == pristine[primary]  # byte-identical
        with ShardedArchiveReader(path) as reader:
            final = reader.verify(deep=True, strict=True)
            assert final["frames"] == 12 and not final["failures"]
            assert final["shard_status"] == {
                shard[0].name: "ok" for shard in copies
            }
