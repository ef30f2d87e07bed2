"""Shared plumbing for the HTTP server tests: a tiny raw asyncio client.

Deliberately *not* ``http.client``: the tests exercise the server's own
HTTP/1.1 parser — including malformed input no compliant client library
would emit — so requests are composed byte by byte over a plain asyncio
connection.
"""

import asyncio
import contextlib
import json

import numpy as np

from repro.archive import ArchiveHTTPServer, ArchiveService, ArchiveWriter
from repro.archive.replication import ReplicatedShardSet
from repro.archive.server import encode_ingest_record
from repro.archive.sharding import ShardedArchiveWriter
from repro.coding.spec import CodecSpec
from repro.imaging import ct_slice_series


def frame_names(count):
    return [f"slice_{i:03d}" for i in range(count)]


def series(count=9, size=32, seed=5):
    """A named synthetic CT series: ``{name: frame}`` in series order."""
    return dict(zip(frame_names(count), ct_slice_series(count=count, size=size, seed=seed)))


def build_plain(path, frames, scales=2):
    with ArchiveWriter.create(path, spec=CodecSpec(scales=scales)) as writer:
        writer.append_batch(list(frames.values()), names=list(frames))
    return path

def build_sharded(path, frames, shards=3, scales=2):
    with ShardedArchiveWriter.create(
        path, spec=CodecSpec(scales=scales), shards=shards
    ) as writer:
        writer.append_batch(list(frames.values()), names=list(frames))
    return path


def build_replicated(path, frames, shards=4, replicas=1, scales=2):
    with ReplicatedShardSet.create(
        path,
        spec=CodecSpec(scales=scales),
        shards=shards,
        replicas=replicas,
    ) as writer:
        writer.append_batch(list(frames.values()), names=list(frames))
    return path


@contextlib.asynccontextmanager
async def running_server(target, **service_options):
    """An :class:`ArchiveHTTPServer` on an ephemeral port, closed on exit."""
    server = ArchiveHTTPServer(ArchiveService(target, **service_options), port=0)
    await server.start()
    try:
        yield server
    finally:
        await server.close()


class HTTPClient:
    """One keep-alive connection speaking minimal HTTP/1.1."""

    def __init__(self, address):
        self.host, self.port = address
        self._reader = None
        self._writer = None

    async def __aenter__(self):
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        return self

    async def __aexit__(self, exc_type, exc, tb):
        await self.aclose()

    async def aclose(self):
        if self._writer is not None:
            self._writer.close()
            with contextlib.suppress(Exception):
                await self._writer.wait_closed()
            self._writer = None

    async def send_raw(self, raw: bytes):
        self._writer.write(raw)
        await self._writer.drain()

    async def read_response(self):
        """Parse one response: ``(status, headers, body)``."""
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = await self._reader.readexactly(int(headers.get("content-length", 0)))
        return status, headers, body

    async def request(self, method, path, headers=None, body=b""):
        lines = [f"{method} {path} HTTP/1.1", "Host: test"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        if body and "transfer-encoding" not in {k.lower() for k in (headers or {})}:
            lines.append(f"Content-Length: {len(body)}")
        raw = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        await self.send_raw(raw)
        return await self.read_response()

    async def get_json(self, path):
        status, headers, body = await self.request("GET", path)
        return status, json.loads(body)


async def http_request(address, method, path, headers=None, body=b""):
    """One request on a fresh connection (closed afterwards)."""
    async with HTTPClient(address) as client:
        return await client.request(method, path, headers=headers, body=body)


def response_frame(headers, body):
    """Rebuild the decoded frame a 200 /frames response carries."""
    shape = tuple(int(side) for side in headers["x-frame-shape"].split("x"))
    return np.frombuffer(body, dtype=headers["x-frame-dtype"]).reshape(shape)


def ingest_body(frames):
    """The POST /ingest body for ``{name: frame}``."""
    return b"".join(encode_ingest_record(name, frame) for name, frame in frames.items())


def chunk_encode(payload, chunk_size=512):
    """``payload`` as a chunked transfer encoding body."""
    parts = []
    for start in range(0, len(payload), chunk_size):
        piece = payload[start:start + chunk_size]
        parts.append(f"{len(piece):x}\r\n".encode() + piece + b"\r\n")
    parts.append(b"0\r\n\r\n")
    return b"".join(parts)
