"""Storage backends: where an archive container's bytes live.

The writer and reader used to call ``open(path, ...)`` directly, welding the
container format to the local filesystem.  This module puts a small seam
between the two: a :class:`StorageBackend` names one container and hands out
binary file objects for it, and :class:`~repro.archive.writer.ArchiveWriter`
/ :class:`~repro.archive.reader.ArchiveReader` perform exactly the same
seeks, reads and writes against whatever the backend returns.  The bytes a
backend stores are byte-identical across backends — the container format
(:mod:`repro.archive.format`) never sees the backend, only a file object —
so archives move freely between them.

Two backends ship:

``FileBackend``
    One file on the local filesystem; what every path-based call site gets
    (paths are resolved through :func:`resolve_backend`, so the historical
    ``ArchiveWriter.create("x.dwta")`` API is unchanged, file for file and
    byte for byte).
``MemoryBackend``
    An in-process byte buffer with file semantics: writes persist across
    open/close cycles of the *backend object*, which makes it the natural
    scratch target for tests and for staging an archive before uploading it
    somewhere a future backend (object store, remote block device) would
    address.

Backends hand out ordinary binary file objects, so a new backend only has
to implement the four small methods of :class:`StorageBackend`; everything
above the seam (append crash-safety, random access, sharding, streaming
ingest) works unchanged.

This module also carries the two reusable **robustness primitives** the
replication layer (:mod:`repro.archive.replication`) is built on:

:class:`RetryPolicy`
    Bounded attempts with exponential backoff for *transient* storage
    faults.  The sleep and the backoff schedule are injectable, so tests
    assert the exact delays instead of actually waiting.  Retrying is for
    errors that may pass (an ``OSError`` from a flaky device); persistent
    damage (checksum mismatches) is never retried — that is what read
    failover and repair are for.
:class:`FaultInjectionBackend`
    Wraps any backend and executes a deterministic **fault plan** against
    its reads: raise on the Nth read (once, or K times then succeed —
    the fail-then-succeed shape retries must absorb), flip a bit at a
    byte offset (bit rot), or present the container as truncated (a torn
    write).  :func:`seeded_fault_plan` derives a reproducible random plan
    from an integer seed, so every failure mode the chaos suite exercises
    replays byte for byte from the seed alone.
"""

from __future__ import annotations

import errno
import io
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, List, Optional, Sequence, Tuple, Union

try:  # pragma: no cover - mmap ships with CPython everywhere we run
    import mmap as _mmap
except ImportError:  # pragma: no cover - exotic platforms only
    _mmap = None

__all__ = [
    "StorageBackend",
    "FileBackend",
    "MemoryBackend",
    "resolve_backend",
    "RetryPolicy",
    "Fault",
    "FaultInjectionBackend",
    "seeded_fault_plan",
]


class StorageBackend:
    """One archive container's byte store.

    A backend *names* a container and opens binary streams over it; it holds
    no format knowledge.  The returned objects must support ``read``,
    ``write``, ``seek``, ``tell``, ``flush``, ``truncate`` and ``close`` —
    the full set the writer and reader use.
    """

    def exists(self) -> bool:
        """Whether the container currently holds any bytes."""
        raise NotImplementedError

    def create(self) -> BinaryIO:
        """Open the container for writing from scratch (truncating)."""
        raise NotImplementedError

    def open_read(self) -> BinaryIO:
        """Open the container read-only."""
        raise NotImplementedError

    def open_modify(self) -> BinaryIO:
        """Open the existing container for in-place read/write (append)."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable location, used in error messages and ``repr``."""
        raise NotImplementedError

    def read_range(self, offset: int, length: int) -> Optional[memoryview]:
        """Zero-copy view of ``length`` container bytes at ``offset``.

        Returns ``None`` when the backend has no zero-copy path — the caller
        must then fall back to a seek + ``read`` on an open handle.  A
        returned view may be *shorter* than ``length`` when the container
        ends early (the same short-read semantics ``read`` has), so callers
        check the view's length exactly as they check a read's.  The view
        stays valid until :meth:`release`; backends that cannot honour that
        for a given request simply return ``None``.
        """
        return None

    def release(self) -> None:
        """Drop any cached zero-copy resources (mmap).  Always safe; views
        already handed out keep their backing store alive until collected."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.describe()!r})"


class FileBackend(StorageBackend):
    """A container stored as one file on the local filesystem.

    Beyond the stream interface, file containers support zero-copy payload
    reads: :meth:`read_range` memory-maps the file once (lazily, read-only)
    and serves requests as memoryview slices of the mapping — no
    intermediate ``bytes`` object, no seek/read syscall pair.  The mapping
    is remapped when the file has grown (an appended archive read through
    the same backend) and falls back to a single ``os.pread`` when mapping
    is unavailable, so the method never returns ``None`` on a readable
    file.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fd: Optional[int] = None
        self._map = None
        self._map_size = 0

    def exists(self) -> bool:
        return self.path.exists()

    def create(self) -> BinaryIO:
        return open(self.path, "wb")

    def open_read(self) -> BinaryIO:
        return open(self.path, "rb")

    def open_modify(self) -> BinaryIO:
        return open(self.path, "r+b")

    def describe(self) -> str:
        return str(self.path)

    # -- zero-copy reads -----------------------------------------------------------------
    def _remap(self, size: int) -> None:
        """(Re)map the file at its current ``size``; degrade to no map."""
        old = self._map
        self._map = None
        self._map_size = 0
        if _mmap is not None and size > 0:
            try:
                self._map = _mmap.mmap(self._fd, size, access=_mmap.ACCESS_READ)
                self._map_size = size
            except (OSError, ValueError):
                self._map = None
        if old is not None:
            try:
                old.close()
            except BufferError:
                # Views of the old mapping are still exported; the mapping
                # stays alive until they are collected, then unmaps itself.
                pass

    def read_range(self, offset: int, length: int) -> Optional[memoryview]:
        if offset < 0 or length < 0:
            raise ValueError(f"invalid range ({offset}, {length})")
        try:
            if self._fd is None:
                self._fd = os.open(self.path, os.O_RDONLY)
            end = offset + length
            if self._map is None or self._map_size < end:
                size = os.fstat(self._fd).st_size
                if self._map is None or self._map_size < min(size, end):
                    self._remap(size)
            if self._map is not None:
                return memoryview(self._map)[offset:end]
            # Mapping unavailable (empty file, platform refusal): one
            # positioned read, still handle-free for the caller.
            return memoryview(os.pread(self._fd, length, offset))
        except OSError:
            return None

    def release(self) -> None:
        if self._map is not None:
            try:
                self._map.close()
            except BufferError:  # exported views pin the mapping; see _remap
                pass
            self._map = None
            self._map_size = 0
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


class _MemoryFile(io.BytesIO):
    """A BytesIO whose contents persist back into its backend on close/flush."""

    def __init__(self, backend: "MemoryBackend", initial: bytes) -> None:
        super().__init__(initial)
        self._backend = backend

    def flush(self) -> None:
        super().flush()
        self._backend._blob = self.getvalue()

    def close(self) -> None:
        if not self.closed:
            self._backend._blob = self.getvalue()
        super().close()


class MemoryBackend(StorageBackend):
    """A container stored in an in-process byte buffer.

    Open/close cycles see each other's writes (the buffer lives on the
    backend object), so the writer → reader hand-off works exactly as it
    does on disk; the stored bytes are exposed as :meth:`getvalue` and are
    byte-identical to what :class:`FileBackend` would have written.
    """

    def __init__(self, initial: bytes = b"", name: str = "<memory>") -> None:
        self._blob = bytes(initial)
        self.name = name

    def exists(self) -> bool:
        return bool(self._blob)

    def create(self) -> BinaryIO:
        self._blob = b""
        return _MemoryFile(self, b"")

    def open_read(self) -> BinaryIO:
        if not self._blob:
            raise FileNotFoundError(f"memory container {self.name!r} is empty")
        return io.BytesIO(self._blob)

    def open_modify(self) -> BinaryIO:
        if not self._blob:
            raise FileNotFoundError(f"memory container {self.name!r} is empty")
        return _MemoryFile(self, self._blob)

    def describe(self) -> str:
        return self.name

    def read_range(self, offset: int, length: int) -> Optional[memoryview]:
        """A slice of the buffer itself — memory containers are zero-copy
        by construction (short when the buffer ends early, like a read)."""
        if offset < 0 or length < 0:
            raise ValueError(f"invalid range ({offset}, {length})")
        return memoryview(self._blob)[offset : offset + length]

    def getvalue(self) -> bytes:
        """The container's current bytes (what a file would hold on disk)."""
        return self._blob


def resolve_backend(target: Union[str, Path, StorageBackend]) -> StorageBackend:
    """Coerce a writer/reader target into a backend (paths → files)."""
    if isinstance(target, StorageBackend):
        return target
    return FileBackend(target)


# ---------------------------------------------------------------------------
# Retry policy: bounded attempts + exponential backoff for transient faults
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for transient storage faults.

    ``attempts`` is the total number of tries (1 = no retrying).  Attempt
    ``i`` (0-based) that fails with one of ``retry_on`` sleeps
    ``min(base_delay * factor**i, max_delay)`` seconds before the next try;
    exceptions outside ``retry_on`` — and anything in ``give_up_on``, which
    wins — propagate immediately.  ``sleep`` and ``clock`` are injectable so
    tests run the full schedule without waiting: a recording fake proves
    the exact delays.

    Only *transient* errors belong in ``retry_on`` (the default is
    ``OSError``: flaky device, interrupted syscall).  A checksum mismatch
    is persistent — retrying re-reads the same rotten bytes — so integrity
    errors are deliberately not retried; the replicated read path handles
    those by failing over to another copy instead.
    """

    attempts: int = 3
    base_delay: float = 0.01
    factor: float = 2.0
    max_delay: float = 1.0
    retry_on: Tuple[type, ...] = (OSError,)
    #: Never retried even when matched by ``retry_on`` (a missing file will
    #: not appear by waiting; failover should move on immediately).
    give_up_on: Tuple[type, ...] = (FileNotFoundError,)
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A single-attempt policy (retrying disabled)."""
        return cls(attempts=1)

    def delays(self) -> List[float]:
        """The backoff schedule: sleep after failed attempt i (< attempts-1)."""
        return [
            min(self.base_delay * self.factor**i, self.max_delay)
            for i in range(self.attempts - 1)
        ]

    def run(self, fn: Callable, on_retry: Optional[Callable[[BaseException], None]] = None):
        """Call ``fn()`` under this policy; returns its result.

        ``on_retry(exc)`` is invoked once per absorbed failure (before the
        backoff sleep), so callers can count how many transient faults the
        policy hid — the readers' ``retries`` counters feed from it.
        """
        last: Optional[BaseException] = None
        for attempt in range(self.attempts):
            try:
                return fn()
            except self.give_up_on:
                raise
            except self.retry_on as exc:
                last = exc
                if attempt == self.attempts - 1:
                    raise
                if on_retry is not None:
                    on_retry(exc)
                self.sleep(min(self.base_delay * self.factor**attempt, self.max_delay))
        raise last  # pragma: no cover - unreachable (loop always returns/raises)


# ---------------------------------------------------------------------------
# Fault injection: deterministic storage failures for robustness tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fault:
    """One deterministic storage fault in a :class:`FaultInjectionBackend` plan.

    ``kind`` selects the failure mode:

    ``"io-error"``
        The backend's ``at_read``-th ``read()`` call (0-based, counted
        across every handle the backend hands out) raises ``OSError``
        (EIO); with ``times`` > 1 the next ``times - 1`` reads fail too.
        ``times=1`` is *raise-on-Nth-read* (a retry succeeds);
        ``times=k`` is *fail-then-succeed* after k attempts.
    ``"bit-flip"``
        Every read whose window covers absolute byte ``offset`` returns
        that byte XOR-ed with ``mask`` — bit rot the checksums must catch.
        The underlying store is never modified.
    ``"truncate"``
        The container appears to end at byte ``offset`` (a torn write):
        reads clamp there and end-relative seeks land there.
    """

    kind: str
    at_read: int = 0
    times: int = 1
    offset: int = 0
    mask: int = 0x01

    _KINDS = ("io-error", "bit-flip", "truncate")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (expected one of {self._KINDS})")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.kind == "bit-flip" and not 1 <= self.mask <= 0xFF:
            raise ValueError(f"bit-flip mask must be a byte value, got {self.mask}")


def seeded_fault_plan(
    seed: int,
    file_size: int,
    faults: int = 1,
    kinds: Sequence[str] = Fault._KINDS,
    read_window: int = 8,
) -> List[Fault]:
    """Derive a reproducible fault plan from an integer seed.

    The same ``(seed, file_size, faults, kinds, read_window)`` always yields
    the same plan (``random.Random`` is seeded, nothing global), so a chaos
    run is replayed exactly from its seed.  Offsets land anywhere in
    ``[0, file_size)`` except the final bytes for ``truncate`` (a zero-byte
    file would be trivial); ``io-error`` faults fire within the first
    ``read_window`` reads, where every reader's open + first access lives.
    """
    if file_size < 2:
        raise ValueError(f"file_size must be >= 2, got {file_size}")
    rng = random.Random(seed)
    plan: List[Fault] = []
    for _ in range(faults):
        kind = rng.choice(list(kinds))
        if kind == "io-error":
            plan.append(
                Fault(kind=kind, at_read=rng.randrange(read_window), times=rng.randint(1, 2))
            )
        elif kind == "bit-flip":
            plan.append(
                Fault(kind=kind, offset=rng.randrange(file_size), mask=1 << rng.randrange(8))
            )
        else:  # truncate somewhere strictly inside the file
            plan.append(Fault(kind=kind, offset=rng.randrange(1, file_size)))
    return plan


class _FaultyFile:
    """File-object proxy that applies its backend's fault plan to reads.

    Tracks the logical position itself so a ``truncate`` fault can clamp
    both reads and end-relative seeks without touching the real store.
    """

    def __init__(self, inner: BinaryIO, backend: "FaultInjectionBackend") -> None:
        self._inner = inner
        self._backend = backend
        self._pos = 0

    # -- size under truncation faults ----------------------------------------------------
    def _effective_size(self) -> int:
        here = self._inner.tell()
        self._inner.seek(0, 2)
        size = self._inner.tell()
        self._inner.seek(here)
        for fault in self._backend.faults:
            if fault.kind == "truncate":
                size = min(size, fault.offset)
        return size

    # -- the faulted operations ----------------------------------------------------------
    def read(self, size: int = -1) -> bytes:
        self._backend._count_read()
        limit = max(0, self._effective_size() - self._pos)
        want = limit if size is None or size < 0 else min(size, limit)
        self._inner.seek(self._pos)
        data = self._inner.read(want)
        data = self._backend._flip_bits(data, self._pos)
        self._pos += len(data)
        return data

    def seek(self, offset: int, whence: int = 0) -> int:
        if whence == 0:
            self._pos = offset
        elif whence == 1:
            self._pos += offset
        elif whence == 2:
            self._pos = self._effective_size() + offset
        else:  # pragma: no cover - defensive
            raise ValueError(f"invalid whence {whence}")
        return self._pos

    def tell(self) -> int:
        return self._pos

    # -- plumbing ------------------------------------------------------------------------
    def write(self, data: bytes) -> int:
        self._inner.seek(self._pos)
        written = self._inner.write(data)
        self._pos += written
        return written

    def flush(self) -> None:
        self._inner.flush()

    def truncate(self, size: Optional[int] = None) -> int:
        return self._inner.truncate(self._pos if size is None else size)

    def close(self) -> None:
        self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed

    def __enter__(self) -> "_FaultyFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class FaultInjectionBackend(StorageBackend):
    """Wraps a backend and executes a deterministic fault plan on its reads.

    The plan is a sequence of :class:`Fault` objects (hand-built, or derived
    from a seed via :func:`seeded_fault_plan`).  Reads are counted across
    every handle this backend opens, so "the Nth read" is well-defined for a
    fixed access pattern and a test replays identically every run.  The
    ``reads`` counter and the ``fired`` log expose what actually happened,
    so tests assert the plan executed rather than trusting it did.

    This backend deliberately offers **no** zero-copy path (``read_range``
    stays the base class's ``None``): readers fall back to counted
    ``read()`` calls, so every fault in the plan fires.
    """

    def __init__(self, inner: StorageBackend, faults: Sequence[Fault] = ()) -> None:
        self.inner = inner
        self.faults: Tuple[Fault, ...] = tuple(faults)
        #: Total ``read()`` calls observed across all handles.
        self.reads = 0
        #: ``(read_index, fault)`` pairs for every fault that actually fired.
        self.fired: List[Tuple[int, Fault]] = []

    # -- fault machinery -----------------------------------------------------------------
    def _count_read(self) -> None:
        index = self.reads
        self.reads += 1
        for fault in self.faults:
            if fault.kind == "io-error" and fault.at_read <= index < fault.at_read + fault.times:
                self.fired.append((index, fault))
                raise OSError(errno.EIO, f"injected I/O error on read {index}")

    def _flip_bits(self, data: bytes, start: int) -> bytes:
        flipped = None
        for fault in self.faults:
            if fault.kind == "bit-flip" and start <= fault.offset < start + len(data):
                if flipped is None:
                    flipped = bytearray(data)
                flipped[fault.offset - start] ^= fault.mask
                self.fired.append((self.reads - 1, fault))
        return bytes(flipped) if flipped is not None else data

    # -- StorageBackend interface --------------------------------------------------------
    def exists(self) -> bool:
        return self.inner.exists()

    def create(self) -> BinaryIO:
        return _FaultyFile(self.inner.create(), self)

    def open_read(self) -> BinaryIO:
        return _FaultyFile(self.inner.open_read(), self)

    def open_modify(self) -> BinaryIO:
        return _FaultyFile(self.inner.open_modify(), self)

    def describe(self) -> str:
        return f"{self.inner.describe()} [fault-injected]"
