"""Seeded inputs of the archive serving benchmark.

Everything a workload sends to the server derives from the workload seed
here: the frames (class mix and content), the ingest batch order and the
request key sequence.  The server only ever sees the generated frames and
requests.  Nothing in this module touches the clock, the network or the
file system, so two calls with the same seed return identical values.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.imaging import (
    checkerboard,
    ct_slice_series,
    gradient_image,
    mr_slice,
    random_image,
)

CLASSES = ("ct", "mr", "gradient", "checkerboard", "noise")

#: Decoded frames are served as int64, 8 bytes per pixel: the unit of the
#: hot-cache budget and of the decoded working set.
DECODED_BYTES_PER_PIXEL = 8

#: Height of an ingest-browse ROI band, rows.
ROI_ROWS = 64

#: Every ``ROI_EVERY``-th ingest-browse GET is an ROI band, the rest are
#: previews.  The ratio is an arbitrary constant, not a measured browse
#: mix; preview and ROI latencies are also reported apart (``browse.*``).
ROI_EVERY = 7


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one workload (BENCHMARK.json says why each exists)."""

    name: str
    frame_size: int
    #: Frames per class packed before timing (the served corpus).
    corpus: Tuple[Tuple[str, int], ...]
    #: Hot-frame cache budget of the server, bytes.
    cache_bytes: int
    #: Frames per ``POST /ingest`` while packing the corpus.
    pack_batch: int = 0
    #: ingest-browse: frames per timed POST, distinct source frames.
    ingest_batch: int = 0
    ingest_pool: int = 0

    @property
    def corpus_frames(self) -> int:
        return sum(count for _, count in self.corpus)

    def working_set_bytes(self) -> int:
        """Decoded bytes of the corpus the timed GETs address."""
        return self.corpus_frames * self.frame_size ** 2 * DECODED_BYTES_PER_PIXEL


#: A read-hot workload (Zipf GETs and Range reads over cached frames) was
#: built and measured too; its p99 varied by more than the largest
#: allowed bound between runs on a 2-vCPU host, so it is not kept.
WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        # Uniform full-frame GETs over a working set 10x the cache: each
        # GET blocks on payload read, CRC, parse, Rice decode and the
        # inverse S-transform.
        WorkloadSpec(
            name="read-cold",
            frame_size=256,
            corpus=tuple((kind, 16) for kind in CLASSES),
            cache_bytes=4 << 20,
            pack_batch=16,
        ),
        # POST /ingest of mixed 512x512 batches beside preview and ROI
        # GETs: encode, writer close, per-POST reload and the
        # strict-prefix preview path.
        WorkloadSpec(
            name="ingest-browse",
            frame_size=512,
            corpus=(),
            cache_bytes=64 << 20,
            ingest_batch=16,
            ingest_pool=20,
        ),
    )
}


def _rng(seed: int, purpose: str) -> np.random.Generator:
    """An independent stream per purpose, so adding one draw elsewhere
    never shifts another sequence."""
    return np.random.default_rng([int(seed), zlib.crc32(purpose.encode())])


def _dihedral(image: np.ndarray, code: int) -> np.ndarray:
    """One of the 8 rotations/reflections of a square frame."""
    turned = np.rot90(image, code % 4)
    return np.ascontiguousarray(turned.T if code >= 4 else turned)


def class_frames(kind: str, count: int, size: int, rng: np.random.Generator) -> List[np.ndarray]:
    """``count`` distinct-as-possible 12-bit frames of one image class."""
    if kind == "ct":
        return ct_slice_series(count=count, size=size, seed=int(rng.integers(2**31)))
    if kind == "mr":
        return [mr_slice(size=size, seed=int(rng.integers(2**31))) for _ in range(count)]
    if kind == "gradient":
        base = gradient_image(size)
        return [_dihedral(base, int(rng.integers(8))) for _ in range(count)]
    if kind == "checkerboard":
        return [
            _dihedral(checkerboard(size, tile=int(rng.choice([4, 8, 16, 32]))), int(rng.integers(8)))
            for _ in range(count)
        ]
    if kind == "noise":
        return [random_image(size, seed=int(rng.integers(2**31))) for _ in range(count)]
    raise ValueError(f"unknown image class {kind!r}")


@dataclass
class Corpus:
    """Named source frames with their image class."""

    names: List[str]
    frames: Dict[str, np.ndarray]
    classes: Dict[str, str]


def make_corpus(spec: WorkloadSpec, seed: int) -> Corpus:
    """The frames packed before timing, in a seeded order of names."""
    rng = _rng(seed, "corpus")
    items: List[Tuple[str, np.ndarray, str]] = []
    for kind, count in spec.corpus:
        for index, frame in enumerate(class_frames(kind, count, spec.frame_size, rng)):
            items.append((f"{kind}-{index:03d}", frame, kind))
    order = rng.permutation(len(items))
    names = [items[i][0] for i in order]
    return Corpus(
        names=names,
        frames={name: frame for name, frame, _ in items},
        classes={name: kind for name, _, kind in items},
    )


def make_ingest_pool(spec: WorkloadSpec, seed: int) -> Tuple[List[np.ndarray], List[str]]:
    """ingest-browse: the same number of distinct source frames per class,
    in a seeded order; batches reuse them under new names."""
    rng = _rng(seed, "pool")
    per_class = spec.ingest_pool // len(CLASSES)
    kinds = [kind for kind in CLASSES for _ in range(per_class)]
    made = {kind: class_frames(kind, per_class, spec.frame_size, rng) for kind in CLASSES}
    pool = [made[kind].pop(0) for kind in kinds]
    order = rng.permutation(len(pool))
    return [pool[i] for i in order], [kinds[i] for i in order]


def ingest_batches(
    spec: WorkloadSpec, seed: int, kinds: Sequence[str], count: int
) -> List[List[Tuple[str, int]]]:
    """``count`` batches of ``(frame name, pool index)``; batch 0 is the
    warm-up batch posted during set-up.  Slot ``i`` of the stream always
    holds class ``CLASSES[i % 5]``, so every seed posts the same class mix
    and only which frame of the class (and its content) is seeded."""
    rng = _rng(seed, "batches")
    by_kind = {kind: [i for i, k in enumerate(kinds) if k == kind] for kind in CLASSES}
    batches = []
    for batch in range(count):
        slots = []
        for slot in range(spec.ingest_batch):
            kind = CLASSES[(batch * spec.ingest_batch + slot) % len(CLASSES)]
            slots.append((f"b{batch:04d}-{slot:02d}", int(rng.choice(by_kind[kind]))))
        batches.append(slots)
    return batches


@dataclass(frozen=True)
class Op:
    """One generated request.  ``key`` is a frame name for read-cold and
    a fraction in [0, 1) for ingest-browse, resolved at send time against
    the frames of completed batches (the sequence stays seeded; which
    frames exist depends on how far ingest got).  ``a``-``b`` is an ROI
    row band."""

    kind: str  # "full" | "preview" | "roi"
    key: object
    a: float = 0.0
    b: float = 0.0


def request_sequence(spec: WorkloadSpec, corpus: Corpus, seed: int, count: int) -> List[Op]:
    """The seeded timed-phase GET sequence, shared by the connections in
    the order they pull from it."""
    rng = _rng(seed, "requests")
    if spec.ingest_batch:
        # Every ROI_EVERY-th GET is a 64-row ROI band at a seeded offset,
        # the rest are scale-2 previews; targets are seeded fractions.
        ops = []
        for index in range(count):
            key = float(rng.random())
            if index % ROI_EVERY == ROI_EVERY - 1:
                y0 = 8 * int(rng.integers((spec.frame_size - ROI_ROWS) // 8 + 1))
                ops.append(Op("roi", key, float(y0), float(y0 + ROI_ROWS)))
            else:
                ops.append(Op("preview", key))
        return ops
    names = sorted(corpus.names)
    return [Op("full", names[k]) for k in rng.integers(len(names), size=count)]


def workload_digest(spec: WorkloadSpec, seed: int, requests: int = 2000) -> str:
    """CRC of every frame, batch and request a workload generates: equal
    digests mean byte-identical inputs."""
    crc = 0

    def feed(data: bytes) -> None:
        nonlocal crc
        crc = zlib.crc32(data, crc)

    corpus = None
    if spec.ingest_batch:
        pool, kinds = make_ingest_pool(spec, seed)
        for kind, frame in zip(kinds, pool):
            feed(kind.encode())
            feed(np.ascontiguousarray(frame).tobytes())
        feed(repr(ingest_batches(spec, seed, kinds, 50)).encode())
    else:
        corpus = make_corpus(spec, seed)
        for name in corpus.names:
            feed(name.encode())
            feed(np.ascontiguousarray(corpus.frames[name]).tobytes())
    feed(repr(request_sequence(spec, corpus, seed, requests)).encode())
    return f"{crc:08x}"
