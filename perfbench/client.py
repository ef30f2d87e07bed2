"""Keep-alive HTTP/1.1 load generator with per-response verification.

Each request carries the status it must get and a check of its body
against the source.  A request fails when the connection errors or times
out, the body is short, the status differs, or the check rejects a byte;
failures are counted against attempts and the connection is reopened.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: A request that takes longer than this counts as failed.
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Response:
    status: int
    headers: Dict[str, str]
    body: bytes


Check = Callable[[Response], bool]


@dataclass
class Tally:
    """Attempts, failures and ``(completion time, latency)`` of every
    verified GET, on the ``perf_counter`` clock."""

    attempted: int = 0
    failed: int = 0
    gets: List[Tuple[float, float]] = field(default_factory=list)
    #: Client-side seconds of every request, verified or not (HTTP share).
    busy_s: float = 0.0
    errors: List[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(reason)


class Connection:
    """One keep-alive connection, reopened after any failure."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.address = address
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _exchange(self, raw: bytes) -> Response:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(*self.address)
        self._writer.write(raw)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionResetError("connection closed before the status line")
        status = int(status_line.split()[1])
        headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise ConnectionResetError("connection closed inside the headers")
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        body = await self._reader.readexactly(int(headers.get("content-length", "0")))
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return Response(status, headers, body)

    async def request(
        self, raw: bytes, expect: int, check: Check, tally: Tally, is_get: bool = True
    ) -> Optional[Response]:
        """Send one request; ``None`` (and a counted failure) unless the
        status is ``expect`` and ``check`` accepts the response."""
        tally.attempted += 1
        began = time.perf_counter()
        try:
            response = await asyncio.wait_for(self._exchange(raw), REQUEST_TIMEOUT_S)
        except (OSError, EOFError, ValueError, IndexError, asyncio.TimeoutError) as exc:
            tally.busy_s += time.perf_counter() - began
            tally.fail(f"{raw[:60]!r}: {type(exc).__name__}: {exc}")
            await self.close()
            return None
        done = time.perf_counter()
        elapsed = done - began
        tally.busy_s += elapsed
        if response.status != expect:
            tally.fail(f"{raw[:60]!r}: status {response.status}, expected {expect}")
            return None
        try:
            verified = check(response)
        except (KeyError, ValueError, TypeError) as exc:
            verified = False
            tally.fail(f"{raw[:60]!r}: unparseable response: {exc}")
            return None
        if not verified:
            tally.fail(f"{raw[:60]!r}: body differs from the source")
            return None
        if is_get:
            tally.gets.append((done, elapsed))
        return response

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


def get(path: str, extra: str = "") -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n{extra}\r\n".encode("ascii")


def post(path: str, body: bytes) -> bytes:
    head = f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode("ascii") + body


def wire_frame(response: Response) -> np.ndarray:
    """The pixel array a frame/preview/ROI response carries."""
    shape = tuple(int(side) for side in response.headers["x-frame-shape"].split("x"))
    return np.frombuffer(response.body, dtype=response.headers["x-frame-dtype"]).reshape(shape)


def pixels_equal(expected: np.ndarray) -> Check:
    return lambda response: np.array_equal(wire_frame(response), expected)
