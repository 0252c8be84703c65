"""The JSON-lines frame loop shared by every TCP front end.

`DecideServer` (one worker process) and `FleetDispatcher` (the fleet's
front door) speak the same newline-framed protocol, and both serve it
through one `FrameLoop`.  It owns the listening socket, splits each
connection's bytes into frames, answers them in order, one at a time,
and drains on close.

Each connection is an `asyncio.BufferedProtocol`: the socket reads
into one `READ_CHUNK_BYTES` buffer per connection, every complete
non-blank line goes to the front end's ``process(line, peer)``, and
the reply line is written back.
``process`` returns the reply as bytes when it can answer on the spot
(a malformed frame, a ping, a cached decision, a shed request) and
only otherwise an awaitable of those bytes; the connection then holds
its next frames until that reply is written.  An answer on the spot
therefore costs no Task, no Future and no coroutine switch.  Replies
are bytes, not dicts, so a front end that already holds an encoded
reply (the dispatcher relaying a worker's line) writes it as is;
`encode_frame` is the one encoder for the rest.

Both front ends parse request lines through a `FrameMemo`: a
byte-capped per-process map from a line's exact bytes to its parsed
request and schema spelling.  A line is admitted on its second
sighting, so a frame that keeps repeating byte for byte is parsed
twice per process and then never again, while a stream of distinct
frames stores nothing but a bounded set of hashes.

Drain (`FrameLoop.close`) stops accepting, lets the selector run for
`SETTLE_S` so bytes the kernel already holds are answered, then closes
every idle connection at once; a busy connection closes as soon as its
reply is written.  A frame longer than `MAX_FRAME_BYTES` cannot be
resynchronized past, so the loop answers it with a ``FrameTooLong``
error frame and closes that connection.

The module also holds what every front end shares without the session
pool: `text_key_of` (a frame's schema spelling, the routing key) and
`process_usage` (the ``process`` block of a stats frame).  The fleet
dispatcher imports this module, so it imports nothing from the
decision core.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from collections import OrderedDict
from typing import Awaitable, Callable, Optional, Union

from ..io import DecideRequest, ErrorFrame

#: Cap on one request line; longer frames get a structured error and
#: the connection closes.
MAX_FRAME_BYTES = 1 << 20

#: Size of the buffer each connection reads into.  A plain
#: `asyncio.Protocol` gets a fresh 256 KiB bytes object per read,
#: shrunk to the bytes received; depending on the heap's layout, glibc
#: then trims and regrows the heap on every read, which costs page
#: faults on every frame.  Reading into one reused buffer allocates
#: nothing per read.
READ_CHUNK_BYTES = 1 << 16

#: How long `FrameLoop.close` lets the selector run before it closes the
#: idle connections: bytes the kernel already holds count as received.
SETTLE_S = 0.005

#: Cap on the summed length of the request lines a `FrameMemo` keeps
#: parsed.  A parsed line takes a small multiple of its length, so this
#: bounds the memo at a few MB per process.
FRAME_MEMO_BYTES = 1 << 20

#: Hashes of lines seen once that a `FrameMemo` remembers, waiting for
#: a second sighting (oldest forgotten first).
FRAME_MEMO_SEEN = 4096

#: `encode_frame` sorts keys, so a bare `ErrorFrame` — the only frame
#: whose first key is ``error`` — starts with exactly these bytes.
ERROR_PREFIX = b'{"error": '

Reply = Union[bytes, Awaitable[bytes]]
Process = Callable[[bytes, str], Reply]
Parsed = tuple[DecideRequest, Optional[str]]


def text_key_of(schema: object) -> Optional[str]:
    """The serialized spelling an inline (dict) schema routes by; None
    for anything else.  Transports compute it once per frame and pass
    it along (`SessionPool.lookup`, `SessionPool.process`)."""
    if isinstance(schema, dict):
        return json.dumps(schema, sort_keys=True)
    return None


def process_usage() -> dict:
    """This process's own resource usage (``getrusage(RUSAGE_SELF)``):
    the ``process`` block of an ``op: stats`` frame.  CPU seconds and
    peak RSS are per process, so a fleet reports its dispatcher's block
    beside each worker's rather than a sum."""
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss counts kilobytes on Linux and bytes on macOS.
    rss_bytes = usage.ru_maxrss * (1 if sys.platform == "darwin" else 1024)
    return {
        "pid": os.getpid(),
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "max_rss_mb": rss_bytes / (1 << 20),
    }


def encode_frame(frame: dict) -> bytes:
    """One reply line.  ``sort_keys``: introspection payloads promise a
    stable key order to scrapers and diffing tools, and it makes
    `is_error_line` a prefix test."""
    return json.dumps(frame, sort_keys=True).encode("utf-8") + b"\n"


def is_error_line(line: bytes) -> bool:
    """True when an `encode_frame` line is a bare `ErrorFrame` (a
    `DecideResponse` with a decision-level ``error`` is not one: its
    ``cached`` key sorts first)."""
    return line.startswith(ERROR_PREFIX)


class FrameMemo:
    """Parsed request frames by their exact bytes, capped in bytes.

    `parse` returns ``(request, spelling)``: the `DecideRequest` and its
    schema's `text_key_of`.  A line the memo holds is a dictionary
    lookup (``hits``); any other line is decoded, validated and spelled
    (``parsed``).  A line is admitted on its second sighting, so frames
    that never repeat cost one remembered hash each (at most
    `FRAME_MEMO_SEEN`); admitted lines are evicted least recently used
    once their summed length passes `FRAME_MEMO_BYTES`.  Requests
    handed out are shared and must be treated as read-only.  Malformed
    lines raise and are not remembered.

    Not thread-safe: each front end calls it from its event loop only.
    """

    def __init__(self) -> None:
        self._frames: OrderedDict[bytes, Parsed] = OrderedDict()
        #: Hashes of lines seen once, oldest first.
        self._seen: dict[int, None] = {}
        #: Summed length of the admitted lines.
        self.bytes = 0
        #: Lines answered from the memo.
        self.hits = 0
        #: Lines decoded.
        self.parsed = 0

    def parse(self, line: bytes) -> Parsed:
        frame = self._frames.get(line)
        if frame is not None:
            self._frames.move_to_end(line)
            self.hits += 1
            return frame
        request = DecideRequest.from_dict(json.loads(line.decode("utf-8")))
        self.parsed += 1
        frame = (request, text_key_of(request.schema))
        if len(line) > FRAME_MEMO_BYTES:
            return frame
        digest = hash(line)
        if digest not in self._seen:
            self._seen[digest] = None
            if len(self._seen) > FRAME_MEMO_SEEN:
                del self._seen[next(iter(self._seen))]
            return frame
        del self._seen[digest]
        self._frames[line] = frame
        self.bytes += len(line)
        while self.bytes > FRAME_MEMO_BYTES:
            evicted, __ = self._frames.popitem(last=False)
            self.bytes -= len(evicted)
        return frame

    def __len__(self) -> int:
        return len(self._frames)


class FrameLoop:
    """Serve newline-framed JSON over TCP for one front end.

    ``process(line, peer)`` turns one request line into one reply line
    (bytes, newline included) or an awaitable of it; ``counters`` is the
    front end's counter dict, whose ``connections``,
    ``connections_open`` and ``errors`` entries the loop maintains.
    ``tasks`` holds every reply still being computed; the front end may
    add its own background tasks so that `close` waits for them too.
    """

    def __init__(self, process: Process, counters: dict) -> None:
        self._process = process
        self._counters = counters
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set[_Connection] = set()
        self.tasks: set[asyncio.Future] = set()
        self.draining = False

    @property
    def listening(self) -> bool:
        return self._server is not None

    async def start(self, host: str, port: int) -> int:
        """Bind and start accepting; returns the bound port."""
        self.draining = False
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), host, port
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

        Idle connections close at once; a connection computing a reply
        finishes it and flushes it first.  Without ``drain_timeout``
        that wait is unbounded.  With it, ``overdue`` (when given) runs
        once half the timeout is spent, and replies still being
        computed at the deadline are cancelled and their connections
        closed.
        """
        self.draining = True
        server, self._server = self._server, None
        if server is not None:
            server.close()
        if any(c.idle for c in self._connections):
            await asyncio.sleep(SETTLE_S)
        for connection in list(self._connections):
            if connection.idle:
                connection.close()
        waiting = {c.closed for c in self._connections} | self.tasks
        if waiting:
            if drain_timeout is None:
                await asyncio.wait(waiting)
            else:
                __, pending = await asyncio.wait(
                    waiting, timeout=drain_timeout / 2.0
                )
                if pending and overdue is not None:
                    overdue()
                if pending:
                    __, pending = await asyncio.wait(
                        pending, timeout=drain_timeout / 2.0
                    )
                if pending:
                    for future in list(self.tasks):
                        future.cancel()
                    for connection in list(self._connections):
                        connection.close()
                    await asyncio.wait(pending, timeout=1.0)
        if server is not None:
            await server.wait_closed()


class _Connection(asyncio.BufferedProtocol):
    """One client connection of a `FrameLoop`."""

    def __init__(self, frames: FrameLoop) -> None:
        self._frames = frames
        self._transport: Optional[asyncio.Transport] = None
        self._peer = "?"
        self._chunk = memoryview(bytearray(READ_CHUNK_BYTES))
        self._buffer = bytearray()
        #: Bytes of ``_buffer`` already searched for a newline.
        self._scanned = 0
        #: The reply being computed, if any.
        self._reply: Optional[asyncio.Future] = None
        self._eof = False
        self._reading = True
        self._writing = True
        self.closed = asyncio.get_running_loop().create_future()

    @property
    def idle(self) -> bool:
        return self._reply is None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]
        peername = transport.get_extra_info("peername")
        self._peer = peername[0] if peername else "?"
        self._frames._connections.add(self)
        counters = self._frames._counters
        counters["connections"] += 1
        counters["connections_open"] += 1
        if self._frames.draining:
            self.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._frames._connections.discard(self)
        self._frames._counters["connections_open"] -= 1
        if not self.closed.done():
            self.closed.set_result(None)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._chunk

    def buffer_updated(self, nbytes: int) -> None:
        self._buffer += self._chunk[:nbytes]
        self._serve()

    def eof_received(self) -> bool:
        self._eof = True
        self._serve()
        # Keep the transport open: replies to frames already received
        # still go out over the half-closed connection.
        return True

    def pause_writing(self) -> None:
        self._writing = False

    def resume_writing(self) -> None:
        self._writing = True
        self._serve()

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()

    def _serve(self) -> None:
        """Answer buffered frames in order while no reply is pending."""
        transport = self._transport
        buffer = self._buffer
        while self._reply is None and self._writing:
            if transport is None or transport.is_closing():
                return
            index = buffer.find(b"\n", self._scanned)
            if index > MAX_FRAME_BYTES or (
                index < 0 and len(buffer) > MAX_FRAME_BYTES
            ):
                self._too_long()
                return
            if index >= 0:
                line = bytes(buffer[: index + 1])
                del buffer[: index + 1]
            elif self._eof and buffer:
                # A last frame without its newline still counts.
                line = bytes(buffer)
                buffer.clear()
            else:
                self._scanned = len(buffer)
                if self._eof:
                    self.close()
                elif not self._reading and len(buffer) <= MAX_FRAME_BYTES:
                    self._reading = True
                    transport.resume_reading()
                return
            self._scanned = 0
            if not line.strip():
                continue
            reply = self._frames._process(line, self._peer)
            if isinstance(reply, bytes):
                transport.write(reply)
                if self._frames.draining:
                    self.close()
                    return
                continue
            future = asyncio.ensure_future(reply)
            self._reply = future
            self._frames.tasks.add(future)
            future.add_done_callback(self._replied)
        if (
            (self._reply is not None or not self._writing)
            and self._reading
            and len(buffer) > MAX_FRAME_BYTES
        ):
            # Backpressure, while a reply is pending or the client is
            # not reading its replies: the TCP window, not this buffer,
            # holds what a client sends ahead of them.
            self._reading = False
            transport.pause_reading()

    def _replied(self, future: asyncio.Future) -> None:
        self._reply = None
        self._frames.tasks.discard(future)
        transport = self._transport
        if future.cancelled() or future.exception() is not None:
            # Cancelled by drain, or a front end broke its contract:
            # no reply can be owed on this connection any more.
            self.close()
            return
        if transport is None or transport.is_closing():
            return
        transport.write(future.result())
        if self._frames.draining:
            self.close()
            return
        self._serve()

    def _too_long(self) -> None:
        self._frames._counters["errors"] += 1
        self._buffer.clear()
        assert self._transport is not None
        self._transport.write(
            encode_frame(
                ErrorFrame(
                    "FrameTooLong",
                    f"request frame exceeds {MAX_FRAME_BYTES} bytes",
                ).to_dict()
            )
        )
        self.close()
