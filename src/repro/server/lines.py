"""The JSON-lines frame loop shared by every TCP front end.

`DecideServer` (one worker process) and `FleetDispatcher` (the fleet's
front door) speak the same newline-framed protocol, and both serve it
through one `FrameLoop`.  It owns the listening socket, reads each
connection's frames in order, hands every non-blank line to the front
end's ``process`` coroutine, writes the reply, and drains on close.

A frame costs one plain ``await reader.readline()``: no Task, Future or
``asyncio.wait`` per frame.  Drain needs no per-frame race either.  The
loop knows which connections are parked in ``readline``, and `close`
wakes exactly those by setting `Drained` on their reader.  A reader
that already holds a complete frame returns it first (the exception is
only raised to a reader with nothing left to return), so a frame whose
bytes arrived before ``close`` is still answered; then the loop sees
the drain flag and closes the connection.

A frame longer than `MAX_FRAME_BYTES` cannot be resynchronized past,
so the loop answers it with a ``FrameTooLong`` error frame and closes
that connection.
"""

from __future__ import annotations

import asyncio
import json
from typing import Awaitable, Callable, Optional

from ..io import ErrorFrame

#: Cap on one request line; longer frames get a structured error (the
#: asyncio default readline limit would kill the connection instead).
MAX_FRAME_BYTES = 1 << 20

#: How long `FrameLoop.close` lets the selector run before it wakes the
#: parked readers: bytes the kernel already holds count as received.
SETTLE_S = 0.005

Process = Callable[[bytes, str], Awaitable[dict]]


class Drained(Exception):
    """Set on a parked connection's reader to end it during drain."""


class FrameLoop:
    """Serve newline-framed JSON over TCP for one front end.

    ``process(line, peer)`` turns one request line into one reply
    frame; ``counters`` is the front end's counter dict, whose
    ``connections``, ``connections_open`` and ``errors`` entries the
    loop maintains.  ``tasks`` holds every live connection handler;
    the front end may add its own background tasks so that `close`
    waits for them too.
    """

    def __init__(self, process: Process, counters: dict) -> None:
        self._process = process
        self._counters = counters
        self._server: Optional[asyncio.AbstractServer] = None
        #: Readers of the connections waiting for their next frame.
        self._parked: set[asyncio.StreamReader] = set()
        self.tasks: set[asyncio.Task] = set()
        self.draining = False

    @property
    def listening(self) -> bool:
        return self._server is not None

    async def start(self, host: str, port: int) -> int:
        """Bind and start accepting; returns the bound port."""
        self.draining = False
        self._server = await asyncio.start_server(
            self._serve, host, port, limit=MAX_FRAME_BYTES
        )
        sockets = self._server.sockets or ()
        return sockets[0].getsockname()[1] if sockets else port

    async def serve_forever(self) -> None:
        """Block until cancelled or closed."""
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def close(
        self,
        drain_timeout: Optional[float] = None,
        overdue: Optional[Callable[[], None]] = None,
    ) -> None:
        """Stop accepting and reading, then wait for the connections.

        Connections parked in ``readline`` end at once; a connection
        mid-frame finishes it and flushes the reply.  Without
        ``drain_timeout`` that wait is unbounded.  With it, ``overdue``
        (when given) runs once half the timeout is spent, and handlers
        still alive at the deadline are cancelled.
        """
        self.draining = True
        server, self._server = self._server, None
        if server is not None:
            server.close()
        if self._parked:
            await asyncio.sleep(SETTLE_S)
            for reader in list(self._parked):
                reader.set_exception(Drained())
        tasks = set(self.tasks)
        if tasks:
            if drain_timeout is None:
                await asyncio.wait(tasks)
            else:
                __, pending = await asyncio.wait(
                    tasks, timeout=drain_timeout / 2.0
                )
                if pending and overdue is not None:
                    overdue()
                if pending:
                    __, pending = await asyncio.wait(
                        pending, timeout=drain_timeout / 2.0
                    )
                for task in pending:
                    task.cancel()
                if pending:
                    await asyncio.wait(pending, timeout=1.0)
        if server is not None:
            await server.wait_closed()

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self.tasks.add(task)
        peername = writer.get_extra_info("peername")
        peer = peername[0] if peername else "?"
        counters = self._counters
        counters["connections"] += 1
        counters["connections_open"] += 1
        parked = self._parked
        try:
            while not self.draining:
                parked.add(reader)
                try:
                    line = await reader.readline()
                except ValueError:  # a frame longer than the limit
                    counters["errors"] += 1
                    await _write_frame(
                        writer,
                        ErrorFrame(
                            "FrameTooLong",
                            f"request frame exceeds {MAX_FRAME_BYTES} bytes",
                        ).to_dict(),
                    )
                    break
                finally:
                    parked.discard(reader)
                if not line:
                    break
                if not line.strip():
                    continue
                await _write_frame(writer, await self._process(line, peer))
        except (Drained, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            counters["connections_open"] -= 1
            if task is not None:
                self.tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


async def _write_frame(writer: asyncio.StreamWriter, frame: dict) -> None:
    """One reply line.  ``sort_keys``: introspection payloads promise a
    stable key order to scrapers and diffing tools, and reply frames
    are small enough that sorting costs nothing measurable."""
    writer.write(json.dumps(frame, sort_keys=True).encode("utf-8") + b"\n")
    await writer.drain()
