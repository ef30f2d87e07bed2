"""Server launcher of the benchmark: one ArchiveHTTPServer in this process.

Run as a child of ``run.py``; untraced and traced runs both start here::

    python3 perfbench/serve.py --archive SET.dwts --cache-bytes N \
        [--cpu K] [--trace-out spans.json]

It pins itself to ``--cpu`` (when given), wraps the layer entry points
when ``--trace-out`` is given (before the server exists), binds an
ephemeral localhost port and prints ``PORT <n>``.  It serves until its
standard input closes, then shuts the server down, writes the spans and
exits, so a parent that dies takes the server with it.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


async def _serve(args, recorder) -> None:
    from repro.archive.server import ArchiveHTTPServer, ArchiveService

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def wait_for_eof() -> None:
        sys.stdin.buffer.read()
        loop.call_soon_threadsafe(stop.set)

    server = ArchiveHTTPServer(
        ArchiveService(args.archive, cache_bytes=args.cache_bytes), host="127.0.0.1", port=0
    )
    await server.start()
    threading.Thread(target=wait_for_eof, daemon=True).start()
    print(f"PORT {server.address[1]}", flush=True)
    try:
        await stop.wait()
    finally:
        await server.close()
    if recorder is not None:
        recorder.dump(args.trace_out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--archive", required=True)
    parser.add_argument("--cache-bytes", type=int, required=True)
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    recorder = None
    if args.trace_out:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    asyncio.run(_serve(args, recorder))


if __name__ == "__main__":
    main()
