"""The prefork worker fleet: sharded multi-process serving.

The decision core is CPU-bound pure Python, so one interpreter — no
matter how many threads — decides on one core.  The fleet is the scale
step past that: N worker processes (each the existing ``serve`` loop —
a `DecideServer` over a `SessionPool` — spawned and restarted by the
PR-6 supervisor machinery, one `Supervisor` per worker) behind an
asyncio **dispatcher** that speaks the same JSON-lines wire protocol
and routes every frame by consistent hashing of its schema fingerprint
(`repro.server.hashring`).  Sharding is the point, not just
parallelism: all traffic for one schema lands on one worker, so that
worker's compiled artifacts and decision caches stay hot on its shard
and the fleet's *aggregate* live-fingerprint capacity grows with N.

**Routing keys.**  The dispatcher never compiles schemas.  A frame's
routing key is the canonical serialization of its inline schema (or
``""`` for the pinned default) — until the first response for that
spelling comes back carrying the *content* fingerprint, which the
dispatcher learns (bounded table) so every spelling of one schema
converges onto one shard, exactly like the pool's own two-level
routing.

**A byte relay.**  Request lines are parsed through a
`repro.server.lines.FrameMemo` (a line that keeps repeating stops being
decoded after its second sighting), forwarded verbatim, and the
worker's reply line is written back to the client as received,
straight from the worker channel's ``buffer_updated``: no Task, no
re-encoding.  A reply is decoded (``replies_decoded``) only to learn a
spelling's fingerprint the first time, or when a request log wants its
fields.

**Failure semantics.**  A worker death (or dropped connection) fails
every in-flight frame on it with a typed, retryable
`repro.runtime.WorkerLost` error — never a wrong answer, never a hang
(the `tests/fleet/` battery enforces the same invariant as
`tests/faults/`).  The worker is evicted from the ring immediately;
its supervisor restarts it with backoff, the new generation warms its
manifest, reports ready, and is re-admitted — reclaiming its original
arcs (consistent hashing moves no other shard).  An empty ring sheds
with retryable ``Overloaded`` frames.

**Warm starts.**  Each worker precompiles the ``--warm`` manifest
*before* emitting its readiness line, hence before it joins the ring:
a restarted worker never serves its shard colder than the manifest.

**Stats.**  ``op: stats`` aggregates fleet-wide: dispatcher routing
counters, the live ring, per-worker supervision state, and each
worker's own stats frame (whose pool ``per_fingerprint`` map is the
per-shard heat).  The frame's top-level ``process`` block is the
dispatcher's own CPU time and peak RSS; each worker's stats frame
carries its own, and none are summed.

::

    python -m repro fleet --workers 4 --port 8765 --warm manifest.json

or embedded (the benchmark and the test battery drive it this way)::

    dispatcher = FleetDispatcher(port=0)
    await dispatcher.start()
    fleet = Fleet([WorkerSpec(...) for _ in range(4)], dispatcher)
    await fleet.start()
    ...
    await fleet.close(drain_timeout=10.0)
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import threading
import time
from collections import OrderedDict, deque
from typing import Callable, Optional, Union

from ..io import DecideRequest, ErrorFrame, json_safe
from ..obs.logs import RequestLogger
from ..obs.registry import MetricsRegistry, merge_snapshots
from ..runtime import Overloaded, WorkerLost
from .hashring import DEFAULT_REPLICAS, HashRing
from .lines import (
    MAX_FRAME_BYTES,
    READ_CHUNK_BYTES,
    FrameLoop,
    FrameMemo,
    Reply,
    encode_frame,
    is_error_line,
    process_usage,
)
from .supervisor import CrashLoopError, Supervisor, WorkerSpec

__all__ = ["Fleet", "FleetDispatcher"]

#: Retry hint stamped on WorkerLost/empty-ring errors: long enough for
#: the ring to rebalance, short enough that clients re-probe promptly.
DEFAULT_RETRY_AFTER_MS = 100.0
#: Bound on learned spelling->fingerprint routes.
MAX_LEARNED_ROUTES = 4096
#: Per-worker stats probe timeout inside the aggregated stats frame.
STATS_TIMEOUT_S = 5.0
#: Worker response lines (stats, plans) can outgrow request frames.
CHANNEL_LIMIT_BYTES = 8 * MAX_FRAME_BYTES


#: Called once per relayed frame with its reply line, or with the
#: `WorkerLost` error that ended the channel first.
OnReply = Callable[[Union[bytes, WorkerLost]], None]


class _Channel(asyncio.BufferedProtocol):
    """One TCP connection to a worker, multiplexing requests FIFO.

    The worker processes frames on one connection strictly in order,
    so matching replies to requests needs no correlation ids: a deque
    of callbacks, called in arrival order with each reply line's bytes
    straight from ``buffer_updated`` (the dispatcher relays them
    undecoded).  A lost connection calls every pending callback with
    `WorkerLost` — the caller turns that into a retryable error frame.

    Flow control: a client connection sends its next frame only after
    the reply to this one, so what a channel buffers toward its worker
    is bounded by the number of client connections.
    """

    def __init__(self, worker_id: str, on_lost: Callable[[], None]) -> None:
        self.worker_id = worker_id
        self._on_lost = on_lost
        self._transport: Optional[asyncio.Transport] = None
        self._chunk = memoryview(bytearray(READ_CHUNK_BYTES))
        self._buffer = bytearray()
        self._pending: deque[OnReply] = deque()
        self._closed = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._lost()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._chunk

    def buffer_updated(self, nbytes: int) -> None:
        buffer = self._buffer
        buffer += self._chunk[:nbytes]
        while True:
            index = buffer.find(b"\n")
            if index < 0:
                if len(buffer) > CHANNEL_LIMIT_BYTES:
                    # The stream cannot resynchronize past an overlong
                    # reply, so the worker is lost.
                    self._lost()
                return
            line = bytes(buffer[: index + 1])
            del buffer[: index + 1]
            if not line.startswith(b"{"):
                # Not a JSON object line: nothing on this stream is
                # trustworthy any more.
                self._lost()
                return
            if self._pending:
                self._pending.popleft()(line)

    def send(self, line: bytes, on_reply: OnReply) -> None:
        """Write one request line; ``on_reply`` gets its reply.  Raises
        `WorkerLost` when the channel is already down."""
        if self._closed or self._transport is None:
            raise WorkerLost(
                f"worker {self.worker_id} is gone",
                worker=self.worker_id,
                retry_after_ms=DEFAULT_RETRY_AFTER_MS,
            )
        self._pending.append(on_reply)
        self._transport.write(
            line if line.endswith(b"\n") else line + b"\n"
        )

    def _lost(self) -> None:
        if self._closed:
            return
        self._closed = True
        while self._pending:
            self._pending.popleft()(
                WorkerLost(
                    f"worker {self.worker_id} lost with request in flight",
                    worker=self.worker_id,
                    retry_after_ms=DEFAULT_RETRY_AFTER_MS,
                )
            )
        if self._transport is not None:
            self._transport.close()
        self._on_lost()

    def close(self) -> None:
        """Tear the channel down, failing anything still pending."""
        self._lost()

    @property
    def closed(self) -> bool:
        return self._closed


class _WorkerClient:
    """The dispatcher's view of one live worker: its address plus a
    small pool of channels served round-robin (one worker connection
    is strictly serial — the worker decides frames on a connection in
    order — so ``channels`` bounds that worker's usable concurrency)."""

    def __init__(
        self, worker_id: str, host: str, port: int, pid: Optional[int]
    ) -> None:
        self.worker_id = worker_id
        self.host = host
        self.port = port
        self.pid = pid
        self.requests = 0
        self.channels: list[_Channel] = []
        self._cursor = itertools.count()

    async def connect(
        self, channels: int, on_lost: Callable[[], None]
    ) -> None:
        loop = asyncio.get_running_loop()
        for __ in range(channels):
            __, channel = await loop.create_connection(
                lambda: _Channel(self.worker_id, on_lost),
                self.host,
                self.port,
            )
            self.channels.append(channel)

    def send(self, line: bytes, on_reply: OnReply) -> None:
        """Relay one request line over the next live channel."""
        self.requests += 1
        live = [c for c in self.channels if not c.closed]
        if not live:
            raise WorkerLost(
                f"worker {self.worker_id} has no live connections",
                worker=self.worker_id,
                retry_after_ms=DEFAULT_RETRY_AFTER_MS,
            )
        live[next(self._cursor) % len(live)].send(line, on_reply)

    async def request(self, line: bytes, timeout: float) -> bytes:
        """`send` as a coroutine, for the stats and metrics probes."""
        reply: asyncio.Future = asyncio.get_running_loop().create_future()

        def resolve(result: Union[bytes, WorkerLost]) -> None:
            if reply.done():
                return
            if isinstance(result, WorkerLost):
                reply.set_exception(result)
            else:
                reply.set_result(result)

        self.send(line, resolve)
        return await asyncio.wait_for(reply, timeout)

    def close(self) -> None:
        channels, self.channels = self.channels, []
        for channel in channels:
            channel.close()

    def describe(self) -> dict:
        return {
            "address": f"{self.host}:{self.port}",
            "pid": self.pid,
            "channels": len(self.channels),
            "channels_live": sum(
                1 for c in self.channels if not c.closed
            ),
            "requests_routed": self.requests,
        }


class FleetDispatcher:
    """The fleet's front door: a JSON-lines asyncio server that owns
    the consistent-hash ring and forwards each frame to its
    shard's worker.

    Process management lives elsewhere (`Fleet`); the dispatcher only
    knows addresses.  `add_worker` / `remove_worker` are the admission
    API — the fleet calls them from supervisor threads via the event
    loop, tests call them directly with in-process servers.  Both are
    idempotent, and re-adding a known worker id atomically replaces
    its old address (the restart path).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        channels_per_worker: int = 4,
        replicas: int = DEFAULT_REPLICAS,
        info_provider: Optional[Callable[[], dict]] = None,
    ) -> None:
        if channels_per_worker < 1:
            raise ValueError(
                "channels_per_worker must be >= 1, got "
                f"{channels_per_worker}"
            )
        self.host = host
        self.port = port
        self.channels_per_worker = channels_per_worker
        self.ring = HashRing(replicas)
        #: Extra "fleet" stats section (supervision state) — wired by
        #: `Fleet`, absent for bare dispatchers.
        self.info_provider = info_provider
        self.metrics: Optional[MetricsRegistry] = None
        self._request_log: Optional[RequestLogger] = None
        self._workers: dict[str, _WorkerClient] = {}
        #: canonical schema spelling -> learned content fingerprint.
        self._routes: OrderedDict[str, str] = OrderedDict()
        self._counters = {
            "connections": 0,
            "connections_open": 0,
            "frames": 0,
            "responses": 0,
            "errors": 0,
            "routed": 0,
            "worker_lost": 0,
            "no_worker": 0,
            "routes_learned": 0,
            "replies_decoded": 0,
            "workers_added": 0,
            "workers_removed": 0,
        }
        self._lines = FrameLoop(self._process_line, self._counters)
        self._memo = FrameMemo()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def register_metrics(self, registry: MetricsRegistry) -> None:
        """Adopt ``registry``: dispatcher-level request instruments
        plus the ring/routing counters as the ``fleet`` provider
        (DESIGN.md §3c).  Worker-level series stay on the workers and
        are fetched/merged per ``op: metrics`` probe."""
        self.metrics = registry
        self._m_requests = registry.counter(
            "repro_fleet_requests_total",
            "Frames the dispatcher answered, by op and outcome.",
            labels=("op", "outcome"),
        )
        self._m_request_ms = registry.histogram(
            "repro_fleet_request_ms",
            "Dispatcher wall time per frame (includes worker RTT), ms.",
            labels=("op",),
        )
        registry.register_provider("fleet", self.fleet_stats)

    def set_request_log(self, request_log: Optional[RequestLogger]) -> None:
        self._request_log = request_log

    def fleet_stats(self) -> dict:
        """The ring/routing stats block (``op: stats`` ``fleet``
        section and the registry's ``fleet`` provider)."""
        fleet: dict = {
            "workers": len(self._workers),
            "ring": {
                "nodes": sorted(self.ring.nodes),
                "replicas": self.ring.replicas,
            },
            "counters": {
                **self._counters,
                "frames_parsed": self._memo.parsed,
                "memo_hits": self._memo.hits,
            },
            "routes": len(self._routes),
            "shards": self.ring.assignments(self._routes.values()),
            "draining": self.draining,
        }
        if self.info_provider is not None:
            fleet["supervision"] = self.info_provider()
        return fleet

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "FleetDispatcher":
        if not self._lines.listening:
            self.port = await self._lines.start(self.host, self.port)
        return self

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def draining(self) -> bool:
        return self._lines.draining

    async def serve_forever(self) -> None:
        await self.start()
        await self._lines.serve_forever()

    async def close(self, *, drain_timeout: Optional[float] = None) -> None:
        """Stop accepting, drain client connections, drop workers.

        Mirrors `DecideServer.close`: in-flight forwarded frames get
        ``drain_timeout`` to come back from their workers (the workers
        are being SIGTERMed in parallel and cancel long work
        themselves), then remaining connection tasks are
        force-cancelled and every worker channel torn down.
        """
        await self._lines.close(drain_timeout)
        for worker_id in list(self._workers):
            await self.remove_worker(worker_id)

    # ------------------------------------------------------------------
    # Worker admission
    # ------------------------------------------------------------------
    async def add_worker(
        self,
        worker_id: str,
        host: str,
        port: int,
        *,
        pid: Optional[int] = None,
    ) -> None:
        """Connect to a ready worker and admit it to the ring.

        A failure to connect raises (and leaves the ring unchanged);
        a known ``worker_id`` is replaced atomically — the restart
        path, which by consistent hashing hands the new generation
        exactly the arcs the old one owned.
        """
        client = _WorkerClient(worker_id, host, port, pid)
        await client.connect(
            self.channels_per_worker,
            lambda: self._on_channel_lost(worker_id, client),
        )
        previous = self._workers.get(worker_id)
        self._workers[worker_id] = client
        self.ring.add(worker_id)
        self._counters["workers_added"] += 1
        if previous is not None:
            previous.close()

    async def remove_worker(self, worker_id: str) -> None:
        """Evict a worker: drop it from the ring, fail its in-flight
        frames with `WorkerLost` (idempotent)."""
        self.ring.remove(worker_id)
        client = self._workers.pop(worker_id, None)
        if client is not None:
            self._counters["workers_removed"] += 1
            client.close()

    def _on_channel_lost(
        self, worker_id: str, client: _WorkerClient
    ) -> None:
        """A channel hit EOF/error: evict the worker eagerly (don't
        wait for the supervisor's poll to notice the death) so new
        frames reroute instead of piling more `WorkerLost` errors."""
        if self._workers.get(worker_id) is not client:
            return  # already replaced by a newer generation
        if all(channel.closed for channel in client.channels):
            task = asyncio.ensure_future(self.remove_worker(worker_id))
            # Keep a reference so the cleanup cannot be GC-cancelled,
            # and so that close() waits for it.
            self._lines.tasks.add(task)
            task.add_done_callback(self._lines.tasks.discard)

    @property
    def workers(self) -> tuple[str, ...]:
        return tuple(self._workers)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def routing_key(self, spelling: Optional[str]) -> str:
        """The ring key for one frame's schema spelling (`text_key_of`;
        None for the default schema): the learned content fingerprint
        when known, else the spelling itself (``""`` for the
        default)."""
        if spelling is None:
            return ""
        return self._routes.get(spelling, spelling)

    def _learn_route(self, spelling: Optional[str], reply: bytes) -> None:
        """Learn a spelling's content fingerprint from its first reply
        that carries one.  A spelling's fingerprint never changes, so a
        known spelling only refreshes its LRU slot and its replies are
        never decoded."""
        if spelling is None:
            return
        if spelling in self._routes:
            self._routes.move_to_end(spelling)
            return
        if is_error_line(reply):
            return  # error frames carry no fingerprint
        self._counters["replies_decoded"] += 1
        try:
            response = json.loads(reply)
        except ValueError:
            return
        fingerprint = (
            response.get("fingerprint") if isinstance(response, dict) else None
        )
        if not fingerprint or not isinstance(fingerprint, str):
            return
        self._routes[spelling] = fingerprint
        self._counters["routes_learned"] += 1
        while len(self._routes) > MAX_LEARNED_ROUTES:
            self._routes.popitem(last=False)

    # ------------------------------------------------------------------
    # Frame processing (connections are read by the shared FrameLoop)
    # ------------------------------------------------------------------
    def _process_line(self, line: bytes, peer: str = "?") -> Reply:
        """One client line in, its reply line out: as bytes for what
        the dispatcher answers itself (malformed frames, ``ping``, an
        empty ring), as a coroutine for the fanned-out ``stats`` and
        ``metrics``, and as a future of the worker's reply line for
        decide/plan."""
        started = time.perf_counter()
        self._counters["frames"] += 1
        try:
            request, spelling = self._memo.parse(line)
        except Exception as error:
            self._counters["errors"] += 1
            snippet = line.decode("utf-8", "replace").strip()
            return self._reply(
                None,
                encode_frame(
                    ErrorFrame.from_exception(
                        error, line=snippet[:200]
                    ).to_dict()
                ),
                started,
            )
        if request.op in ("decide", "plan"):
            return self._forward(request, spelling, line, started)
        if request.op == "ping":
            self._counters["responses"] += 1
            frame: dict = {"op": "pong"}
            if request.id is not None:
                frame["id"] = request.id
            return self._reply(request, encode_frame(frame), started)
        return self._introspect(request, started)

    async def _introspect(
        self, request: DecideRequest, started: float
    ) -> bytes:
        self._counters["responses"] += 1
        if request.op == "stats":
            frame = await self._stats_frame(request)
        else:
            frame = await self._metrics_frame(request)
        return self._reply(request, encode_frame(frame), started)

    def _reply(
        self, request: Optional[DecideRequest], reply: bytes, started: float
    ) -> bytes:
        if self.metrics is not None or self._request_log is not None:
            self._observe(request, reply, started)
        return reply

    def _observe(
        self,
        request: Optional[DecideRequest],
        reply: bytes,
        started: float,
    ) -> None:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        op = request.op if request is not None else "invalid"
        failed = is_error_line(reply)
        outcome = "error" if failed else "ok"
        if self.metrics is not None:
            self._m_requests.inc(op=op, outcome=outcome)
            self._m_request_ms.observe(elapsed_ms, op=op)
        if self._request_log is not None:
            # The log wants reply fields, so only a logging dispatcher
            # decodes every relayed line.
            self._counters["replies_decoded"] += 1
            frame = json.loads(reply)
            error = frame["error"] if failed else {}
            self._request_log.log(
                peer="dispatcher",
                op=op,
                id=frame.get("id"),
                fingerprint=frame.get("fingerprint") or None,
                outcome=outcome,
                error_type=error.get("type"),
                retryable=error.get("retryable"),
                retry_after_ms=error.get("retry_after_ms"),
                elapsed_ms=round(elapsed_ms, 3),
            )

    def _forward(
        self,
        request: DecideRequest,
        spelling: Optional[str],
        line: bytes,
        started: float,
    ) -> Reply:
        """Relay one decide/plan line to its shard's worker.  The
        worker's reply line is passed on as is — the worker already
        stamped the request id and encoded it exactly as this loop
        would — straight from the channel's ``buffer_updated``."""
        worker_id = self.ring.node_for(self.routing_key(spelling))
        client = (
            self._workers.get(worker_id) if worker_id is not None else None
        )
        if client is None:
            self._counters["errors"] += 1
            self._counters["no_worker"] += 1
            return self._reply(
                request,
                encode_frame(
                    ErrorFrame.from_exception(
                        Overloaded(
                            "no live workers in the fleet ring",
                            retry_after_ms=DEFAULT_RETRY_AFTER_MS,
                            scope="fleet",
                        ),
                        id=request.id,
                    ).to_dict()
                ),
                started,
            )
        self._counters["routed"] += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()

        def relayed(reply: Union[bytes, WorkerLost]) -> None:
            if isinstance(reply, WorkerLost):
                self._counters["errors"] += 1
                self._counters["worker_lost"] += 1
                reply = encode_frame(
                    ErrorFrame.from_exception(reply, id=request.id).to_dict()
                )
            else:
                self._counters["responses"] += 1
                self._learn_route(spelling, reply)
            reply = self._reply(request, reply, started)
            if not future.done():  # a drain may have cancelled it
                future.set_result(reply)

        try:
            client.send(line, relayed)
        except WorkerLost as error:
            relayed(error)
        return future

    # ------------------------------------------------------------------
    # Aggregated stats
    # ------------------------------------------------------------------
    async def _probe_workers(self, line: bytes) -> list[tuple]:
        """Send ``line`` to every live worker at once; returns
        ``(worker_id, client, reply dict or the exception)`` per
        worker."""
        workers = dict(self._workers)

        async def probe(client: _WorkerClient) -> dict:
            return json.loads(
                await client.request(line, timeout=STATS_TIMEOUT_S)
            )

        results = await asyncio.gather(
            *(probe(client) for client in workers.values()),
            return_exceptions=True,
        )
        return [
            (worker_id, client, result)
            for (worker_id, client), result in zip(workers.items(), results)
        ]

    @staticmethod
    def _probe_error(error: BaseException) -> dict:
        return {"type": type(error).__name__, "message": str(error)}

    async def _stats_frame(self, request: DecideRequest) -> dict:
        per_worker = []
        for worker_id, client, reply in await self._probe_workers(
            b'{"op": "stats"}'
        ):
            entry: dict = {"worker": worker_id, **client.describe()}
            if isinstance(reply, BaseException):
                entry["error"] = self._probe_error(reply)
            else:
                entry["stats"] = reply
            per_worker.append(entry)
        frame: dict = {
            "op": "stats",
            "fleet": self.fleet_stats(),
            "workers": per_worker,
            "process": process_usage(),
        }
        if request.id is not None:
            frame["id"] = request.id
        return json_safe(frame)

    async def _metrics_frame(self, request: DecideRequest) -> dict:
        """Fleet-aggregated ``op: metrics``: probe every live worker,
        return its snapshot labelled by worker id / pid / shard
        assignment, plus a bucket-wise merged ``aggregate`` (counters
        summed, histogram buckets merged, percentiles re-estimated
        from the merged counts) and the dispatcher's own registry."""
        probes = await self._probe_workers(b'{"op": "metrics"}')
        shards = self.ring.assignments(self._routes.values())
        per_worker = []
        snapshots = []
        for worker_id, client, reply in probes:
            entry: dict = {
                "worker": worker_id,
                **client.describe(),
                "shards": shards.get(worker_id, []),
            }
            if isinstance(reply, BaseException):
                entry["error"] = self._probe_error(reply)
            else:
                entry["pid"] = reply.get("pid", entry.get("pid"))
                entry["metrics"] = reply.get("metrics")
                if isinstance(entry["metrics"], dict):
                    snapshots.append(entry["metrics"])
            per_worker.append(entry)
        frame: dict = {
            "op": "metrics",
            "pid": os.getpid(),
            "fleet": self.fleet_stats(),
            "workers": per_worker,
            "aggregate": merge_snapshots(snapshots),
        }
        if self.metrics is not None:
            frame["dispatcher"] = self.metrics.snapshot()
        if request.id is not None:
            frame["id"] = request.id
        return json_safe(frame)

    def __repr__(self) -> str:
        state = "listening" if self._lines.listening else "stopped"
        return (
            f"FleetDispatcher({self.host}:{self.port}, {state}, "
            f"{len(self._workers)} workers)"
        )


class _Member:
    """One fleet slot: a spec, its supervisor, and the thread the
    supervisor runs on."""

    def __init__(self, worker_id: str, spec: WorkerSpec) -> None:
        self.worker_id = worker_id
        self.spec = spec
        self.supervisor: Optional[Supervisor] = None
        self.thread: Optional[threading.Thread] = None
        self.failure: Optional[BaseException] = None


class Fleet:
    """N supervised serve workers admitted to one dispatcher's ring.

    Each worker gets its own `Supervisor` (the per-worker supervisor
    registry) running on its own thread; the supervisor's
    ``on_worker_up`` hook waits for the worker's readiness handshake —
    warm manifest compiled, socket bound — and only then admits it to
    the ring, and ``on_worker_down`` evicts it the moment the watch
    ends.  A worker whose handshake never arrives is terminated, which
    feeds the normal crash/backoff/breaker accounting; a tripped
    breaker takes that slot out of the fleet permanently (visible in
    ``stats``) while the rest keep serving.
    """

    def __init__(
        self,
        specs: list[WorkerSpec],
        dispatcher: FleetDispatcher,
        *,
        admit_timeout_s: float = 30.0,
    ) -> None:
        if not specs:
            raise ValueError("a fleet needs at least one WorkerSpec")
        self.dispatcher = dispatcher
        self.admit_timeout_s = admit_timeout_s
        self._members = [
            _Member(f"worker-{index}", spec)
            for index, spec in enumerate(specs)
        ]
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        if dispatcher.info_provider is None:
            dispatcher.info_provider = self.describe

    # ------------------------------------------------------------------
    def _admit(self, member: _Member, worker: object) -> None:
        """Supervisor-thread side of admission: block on the readiness
        handshake, then hand the discovered address to the event
        loop."""
        ready = worker.wait_ready(member.spec.ready_timeout_s)
        if ready is None:
            # No handshake: treat as a crash (terminate; the watch sees
            # the death and applies backoff/breaker).
            worker.terminate()
            return
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(
            self.dispatcher.add_worker(
                member.worker_id,
                ready.host,
                ready.port,
                pid=getattr(worker, "pid", None),
            ),
            self._loop,
        )
        try:
            future.result(timeout=self.admit_timeout_s)
        except Exception:
            # Could not connect/admit: recycle the worker through the
            # crash path rather than leaving it dark.
            worker.terminate()

    def _evict(self, member: _Member) -> None:
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(
            self.dispatcher.remove_worker(member.worker_id), self._loop
        )
        try:
            future.result(timeout=self.admit_timeout_s)
        except Exception:
            pass  # the loop is shutting down; channels die with it

    def _supervise(self, member: _Member) -> None:
        assert member.supervisor is not None
        try:
            member.supervisor.run()
        except CrashLoopError as error:
            member.failure = error
        except Exception as error:  # pragma: no cover - defensive
            member.failure = error

    # ------------------------------------------------------------------
    async def start(
        self, *, min_workers: Optional[int] = None, timeout_s: float = 120.0
    ) -> int:
        """Spawn every worker and wait until ``min_workers`` (default:
        all) are admitted to the ring; returns the admitted count.

        Raises `RuntimeError` when the quorum is not reached in
        ``timeout_s`` — with every supervisor stopped, so no orphan
        processes outlive the failure.
        """
        self._loop = asyncio.get_running_loop()
        quorum = len(self._members) if min_workers is None else min_workers
        for member in self._members:
            member.supervisor = member.spec.supervisor(
                on_worker_up=lambda worker, m=member: self._admit(m, worker),
                on_worker_down=lambda worker, m=member: self._evict(m),
            )
            member.thread = threading.Thread(
                target=self._supervise,
                args=(member,),
                name=f"supervise-{member.worker_id}",
                daemon=True,
            )
            member.thread.start()
        deadline = self._loop.time() + timeout_s
        while True:
            admitted = len(self.dispatcher.workers)
            if admitted >= quorum:
                return admitted
            if all(m.failure is not None for m in self._members):
                await self.close()
                raise RuntimeError(
                    "every fleet worker crash-looped: "
                    + "; ".join(
                        f"{m.worker_id}: {m.failure}" for m in self._members
                    )
                )
            if self._loop.time() >= deadline:
                await self.close()
                raise RuntimeError(
                    f"fleet quorum not reached: {admitted}/{quorum} "
                    f"workers ready within {timeout_s:g}s"
                )
            await asyncio.sleep(0.05)

    async def close(self, *, drain_timeout: Optional[float] = None) -> None:
        """Drain the dispatcher, then stop every supervisor (SIGTERM →
        worker graceful drain → kill after the grace period)."""
        await self.dispatcher.close(drain_timeout=drain_timeout)
        for member in self._members:
            if member.supervisor is not None:
                member.supervisor.stop()
        loop = asyncio.get_running_loop()
        for member in self._members:
            thread = member.thread
            if thread is not None and thread.is_alive():
                await loop.run_in_executor(None, thread.join)

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Per-worker supervision state (the stats frame's
        ``fleet.supervision`` section)."""
        report = {}
        for member in self._members:
            supervisor = member.supervisor
            worker = supervisor.worker if supervisor is not None else None
            state = "starting"
            if member.failure is not None:
                state = "crash-loop"
            elif member.worker_id in self.dispatcher.workers:
                state = "in-ring"
            elif worker is not None and worker.is_alive():
                state = "spawned"
            elif supervisor is not None and supervisor.generation > 0:
                state = "down"
            report[member.worker_id] = {
                "state": state,
                "generation": getattr(supervisor, "generation", 0),
                "restarts": getattr(supervisor, "restarts", 0),
                "pid": getattr(worker, "pid", None),
                "failure": (
                    str(member.failure)
                    if member.failure is not None
                    else None
                ),
            }
        return report

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(member.worker_id for member in self._members)
