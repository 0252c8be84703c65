"""The asyncio JSON-lines front end over a `SessionPool`.

One TCP connection speaks the `repro.io` wire protocol, newline-framed:
each request line is a `DecideRequest` frame (a bare query string or an
object with ``op``/``schema``/``id``/``finite``/``deadline_ms``), each
response line a `DecideResponse`, `PlanResponse`, stats, pong, or
`ErrorFrame` JSON object.  Frames on one connection are processed in
order (responses line up with requests); concurrency comes from
concurrent connections.

The event loop looks every decide/plan frame up in the decision caches,
non-blocking; it never compiles or decides.  `SessionPool.lookup`
routes a schema spelling the pool knows (live, or recalled after
eviction without parsing it) and runs `Session.lookup`: the exact query
text, then the query parse and canonical key, then the session LRU,
then the durable store.  A hit is served right there (counted as
``loop_hits``).  A miss goes to one of `DECISION_THREADS` executor
threads with its parsed state, so it is parsed and looked up once; a
spelling no session has seen goes there whole, so its compile stays
off the loop.  Slow chases thus never block frame parsing, stats
probes or cache hits (they still share the GIL).  The decision routes
are pure-Python CPU work, so under the GIL those threads never decide
in parallel; they time-slice, which lets a cheap miss finish beside a
slow one.  A miss waits behind slow ones only once every thread holds
one.  A host scales by processes (``python -m repro fleet``), not by
threads.
Connections are read by the shared `repro.server.lines.FrameLoop`: what
the loop answers itself (a hit, a malformed frame, ping/stats/metrics,
a quota shed) is written back from the connection's ``buffer_updated``
with no Task at all.  Request lines go through a
`repro.server.lines.FrameMemo`, so a line that keeps repeating byte for
byte stops being JSON-decoded after its second sighting
(``frames_parsed`` counts decodes, ``memo_hits`` the lines that
skipped one).

Backpressure is a bounded in-flight gate: once ``max_pending``
decisions are queued or running, readers simply stop pulling new
frames until capacity frees — the TCP receive window, not an
unbounded buffer, absorbs the burst.
With ``shed_after_ms`` set, a frame that cannot acquire the gate in
time is *shed* with a retryable ``Overloaded`` error frame instead of
waiting — saturation becomes visible to clients, never a silent stall.

**Deadlines.** Each decide/plan frame runs under a
`repro.runtime.Budget` (from the frame's ``deadline_ms``, capped by the
pool's configured default); an exhausted budget surfaces as a
retryable ``DeadlineExceeded`` error frame while the connection stays
open.  The server keeps a registry of in-flight budgets so drain (and
only drain) can cancel them cooperatively.

**Per-client fairness.** Optional token-bucket rate limiting
(``client_rate``/``client_burst``) and an in-flight quota
(``max_inflight_per_client``), both keyed by peer address: one hostile
client saturating its bucket gets ``Overloaded`` frames with a
``retry_after_ms`` hint while other clients' latency stays flat.

**Graceful drain.** ``close(drain_timeout=...)`` stops accepting,
lets in-flight work finish (cancelling budgets once half the timeout
is spent), flushes final frames, and only then releases the executor.
``python -m repro serve`` wires SIGTERM to exactly this path.

Malformed frames (bad JSON, unknown op, invalid schema, a query that
does not parse) come back as structured `ErrorFrame`s on the stream —
never a traceback, and the connection stays open.  The one exception
is a frame longer than `repro.server.lines.MAX_FRAME_BYTES`: the line
stream cannot be resynchronized past it, so the server sends a
``FrameTooLong`` error frame and then closes that connection.

::

    server = DecideServer(pool, port=0)        # port 0: ephemeral
    await server.start()
    host, port = server.address
    ...
    await server.close(drain_timeout=5.0)

or, blocking: ``python -m repro serve schema.json --port 8765``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

from ..defaults import DEFAULT_MAX_PENDING, DEFAULT_PORT
from ..io import DecideRequest, ErrorFrame
from ..obs.logs import RequestLogger
from ..obs.registry import MetricsRegistry
from ..obs.timing import StageTimer, activate, deactivate
from ..runtime import Budget, DeadlineExceeded, Overloaded
from ..service.session import Miss
from .lines import FrameLoop, FrameMemo, Reply, encode_frame, is_error_line
from .pool import SessionPool, introspection_frame

#: Retry hint on quota/in-flight shedding when no better estimate exists.
DEFAULT_RETRY_AFTER_MS = 50.0
#: Bound on tracked per-client states (idle states are pruned first).
MAX_CLIENT_STATES = 1024
#: Executor threads per server.  Not a throughput knob (the GIL
#: serialises decisions): with one thread, a cheap miss queued behind
#: one slow uncacheable miss waited for all of it, even with
#: ``max_inflight_per_client=1`` capping the slow client.
DECISION_THREADS = 4


class _ClientState:
    """Token bucket + in-flight count for one peer address."""

    __slots__ = ("tokens", "stamp", "inflight")

    def __init__(self, burst: float, now: float) -> None:
        self.tokens = burst
        self.stamp = now
        self.inflight = 0

    def refill(self, rate: float, burst: float, now: float) -> None:
        self.tokens = min(burst, self.tokens + (now - self.stamp) * rate)
        self.stamp = now

    def take(self, rate: float, burst: float, now: float) -> Optional[float]:
        """Take one token; None on success, else a retry-after hint (ms)."""
        self.refill(rate, burst, now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return None
        return max(1.0, (1.0 - self.tokens) / rate * 1000.0)

    def idle(
        self, rate: Optional[float], burst: float, now: float
    ) -> bool:
        """True when this peer holds no resources worth remembering.

        The bucket is *virtually* refilled first: ``tokens`` is only
        updated inside `take`, so a peer that drained its bucket and
        then went quiet would otherwise read as busy forever and never
        be prunable.  The state itself is not mutated — idleness is a
        read-only question.
        """
        if self.inflight != 0:
            return False
        if rate is None:
            return True
        refilled = min(burst, self.tokens + (now - self.stamp) * rate)
        return refilled >= burst


class DecideServer:
    """Serve `SessionPool` decisions over newline-framed JSON on TCP.

    The server owns a `DECISION_THREADS`-thread decision executor and
    an in-flight gate (``max_pending``); the pool may be shared with
    other front ends (e.g. the WSGI adapter) — all its state is
    thread-safe.

    ``client_rate`` (tokens/second, with ``client_burst`` capacity) and
    ``max_inflight_per_client`` are per-peer quotas, off by default;
    ``shed_after_ms`` turns global-gate saturation into ``Overloaded``
    shedding, off (pure backpressure) by default.  ``clock`` is the
    monotonic clock the token buckets read — injectable for tests.
    """

    def __init__(
        self,
        pool: SessionPool,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        max_pending: int = DEFAULT_MAX_PENDING,
        client_rate: Optional[float] = None,
        client_burst: float = 8.0,
        max_inflight_per_client: Optional[int] = None,
        shed_after_ms: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        metrics: Optional[MetricsRegistry] = None,
        request_log: Optional[RequestLogger] = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if client_rate is not None and client_rate <= 0:
            raise ValueError(f"client_rate must be > 0, got {client_rate}")
        if client_burst < 1:
            raise ValueError(f"client_burst must be >= 1, got {client_burst}")
        if max_inflight_per_client is not None and max_inflight_per_client < 1:
            raise ValueError(
                "max_inflight_per_client must be >= 1, got "
                f"{max_inflight_per_client}"
            )
        self.pool = pool
        self.host = host
        self.port = port
        self.max_pending = max_pending
        self.client_rate = client_rate
        self.client_burst = float(client_burst)
        self.max_inflight_per_client = max_inflight_per_client
        self.shed_after_ms = shed_after_ms
        self._clock = clock
        self._executor: Optional[ThreadPoolExecutor] = None
        self._gate: Optional[asyncio.Semaphore] = None
        self._budgets: set[Budget] = set()
        self._clients: dict[str, _ClientState] = {}
        #: Shared bucket for peers arriving while the table is full of
        #: busy entries: they are not tracked individually (the cap is
        #: hard) but still pay quota — collectively.
        self._overflow_state: Optional[_ClientState] = None
        self._counters = {
            "connections": 0,
            "connections_open": 0,
            "frames": 0,
            "responses": 0,
            "loop_hits": 0,
            "errors": 0,
            "in_flight": 0,
            "overloaded": 0,
            "deadline_exceeded": 0,
            "cancelled": 0,
            "client_evictions": 0,
            "client_overflow": 0,
        }
        self._lines = FrameLoop(self._process_line, self._counters)
        self._memo = FrameMemo()
        self.metrics: Optional[MetricsRegistry] = None
        self._request_log = request_log
        self._m_requests = None
        self._m_request_ms = None
        self._m_stage_ms = None
        if metrics is not None:
            self.register_metrics(metrics)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "DecideServer":
        """Bind and start accepting connections (idempotent)."""
        if self._lines.listening:
            return self
        self._executor = ThreadPoolExecutor(
            max_workers=DECISION_THREADS, thread_name_prefix="repro-serve"
        )
        self._gate = asyncio.Semaphore(self.max_pending)
        # Resolves the actual port (supports port=0 for tests).
        self.port = await self._lines.start(self.host, self.port)
        return self

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def draining(self) -> bool:
        return self._lines.draining

    async def serve_forever(self) -> None:
        """Start (if needed) and block until cancelled/closed."""
        await self.start()
        await self._lines.serve_forever()

    async def close(self, *, drain_timeout: Optional[float] = None) -> None:
        """Stop accepting and drain, then release the executor.

        Drain is staged: (1) close the listener and stop reading —
        connections waiting for their next frame close at once; (2)
        wait for in-flight work to finish naturally; with
        ``drain_timeout`` set, after half the timeout every in-flight
        `Budget` is cancelled (reason ``drain``) so workers surface
        retryable ``DeadlineExceeded`` frames instead of running long;
        (3) any connection still alive at the deadline is
        force-cancelled.  Responses for completed work are always
        flushed before their connection closes.  Without
        ``drain_timeout`` the server waits indefinitely for in-flight
        work (the pre-drain behavior, minus accepting new frames).
        """
        await self._lines.close(
            drain_timeout, overdue=lambda: self.cancel_in_flight("drain")
        )
        if self._executor is not None:
            executor = self._executor
            self._executor = None
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: executor.shutdown(wait=True)
            )

    def cancel_in_flight(self, reason: str = "cancelled") -> int:
        """Cancel every in-flight request budget; returns the count."""
        budgets = list(self._budgets)
        for budget in budgets:
            budget.cancel(reason)
        self._counters["cancelled"] += len(budgets)
        return len(budgets)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def register_metrics(self, registry: MetricsRegistry) -> None:
        """Adopt ``registry``: request instruments plus the legacy
        ``stats()`` surfaces as providers (DESIGN.md §3c)."""
        self.metrics = registry
        self._m_requests = registry.counter(
            "repro_requests_total",
            "Requests processed, by op and outcome.",
            labels=("op", "outcome"),
        )
        self._m_request_ms = registry.histogram(
            "repro_request_ms",
            "Wall time from frame receipt to response frame, ms.",
            labels=("op",),
        )
        self._m_stage_ms = registry.histogram(
            "repro_request_stage_ms",
            "Exclusive per-stage time within one request, ms.",
            labels=("stage",),
        )
        registry.register_provider("server", self.server_stats)
        # Duck-typed pools (tests) may lack register_metrics; expose
        # their stats() directly so the provider surface stays whole.
        if hasattr(self.pool, "register_metrics"):
            self.pool.register_metrics(registry)
        elif hasattr(self.pool, "stats"):
            registry.register_provider("pool", self.pool.stats)
        if self._request_log is not None:
            registry.register_provider(
                "request_log", self._request_log.stats
            )

    def server_stats(self) -> dict:
        """The transport-level stats block (``op: stats`` ``server``
        section and the registry's ``server`` provider)."""
        return {
            "max_pending": self.max_pending,
            "draining": self.draining,
            "client_states": len(self._clients),
            **self._counters,
            "frames_parsed": self._memo.parsed,
            "memo_hits": self._memo.hits,
        }

    @property
    def _observing(self) -> bool:
        return self.metrics is not None or self._request_log is not None

    def _observe(
        self,
        request: Optional[DecideRequest],
        frame: dict,
        line: bytes,
        peer: str,
        started: float,
        timer: Optional[StageTimer],
    ) -> None:
        """Account one finished request: histograms and the log line."""
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        op = request.op if request is not None else "invalid"
        failed = is_error_line(line)
        error = frame["error"] if failed else {}
        outcome = "error" if failed else "ok"
        stages = timer.as_millis() if timer is not None else {}
        if self.metrics is not None:
            self._m_requests.inc(op=op, outcome=outcome)
            self._m_request_ms.observe(elapsed_ms, op=op)
            for name, ms in stages.items():
                self._m_stage_ms.observe(ms, stage=name)
        if self._request_log is not None:
            self._request_log.log(
                peer=peer,
                op=op,
                id=frame.get("id"),
                fingerprint=frame.get("fingerprint") or None,
                outcome=outcome,
                error_type=error.get("type"),
                retryable=error.get("retryable"),
                retry_after_ms=error.get("retry_after_ms"),
                cached=frame.get("cached"),
                decision=frame.get("decision"),
                elapsed_ms=round(elapsed_ms, 3),
                stages_ms=stages or None,
            )

    # ------------------------------------------------------------------
    # Per-client quotas
    # ------------------------------------------------------------------
    def _client_state(self, peer: str) -> _ClientState:
        state = self._clients.get(peer)
        if state is None:
            now = self._clock()
            if len(self._clients) >= MAX_CLIENT_STATES:
                idle = [
                    k
                    for k, s in self._clients.items()
                    if s.idle(self.client_rate, self.client_burst, now)
                ]
                for key in idle:
                    del self._clients[key]
                self._counters["client_evictions"] += len(idle)
            if len(self._clients) >= MAX_CLIENT_STATES:
                # Every tracked peer is genuinely busy: hold the cap.
                # Untracked newcomers share one overflow bucket — they
                # still pay quota, just collectively, so a many-peer
                # churn storm cannot grow the table without bound.
                self._counters["client_overflow"] += 1
                if self._overflow_state is None:
                    self._overflow_state = _ClientState(
                        self.client_burst, now
                    )
                return self._overflow_state
            state = _ClientState(self.client_burst, now)
            self._clients[peer] = state
        return state

    def _admit(
        self, peer: str, state: Optional[_ClientState]
    ) -> Optional[ErrorFrame]:
        """Apply per-client quotas; an `ErrorFrame` means *shed*."""
        if state is None:
            return None
        if (
            self.max_inflight_per_client is not None
            and state.inflight >= self.max_inflight_per_client
        ):
            return ErrorFrame.from_exception(
                Overloaded(
                    f"client {peer} has {state.inflight} requests in "
                    "flight (limit "
                    f"{self.max_inflight_per_client})",
                    retry_after_ms=DEFAULT_RETRY_AFTER_MS,
                    scope="client",
                )
            )
        if self.client_rate is not None:
            retry_after = state.take(
                self.client_rate, self.client_burst, self._clock()
            )
            if retry_after is not None:
                return ErrorFrame.from_exception(
                    Overloaded(
                        f"client {peer} exceeds {self.client_rate:g} "
                        "requests/second",
                        retry_after_ms=retry_after,
                        scope="client",
                    )
                )
        return None

    # ------------------------------------------------------------------
    # Frame processing
    # ------------------------------------------------------------------
    def _process_line(self, line: bytes, peer: str = "?") -> Reply:
        """One request line in, its reply line out: as bytes when the
        loop can answer on the spot (malformed frame, introspection,
        quota shed, cache hit), else as a coroutine that decides on the
        executor."""
        started = time.perf_counter()
        timer = StageTimer() if self._observing else None
        self._counters["frames"] += 1
        request: Optional[DecideRequest] = None
        try:
            request, text_key = self._memo.parse(line)
        except Exception as error:
            self._counters["errors"] += 1
            snippet = line.decode("utf-8", "replace").strip()
            return self._reply(
                request,
                ErrorFrame.from_exception(error, line=snippet[:200]).to_dict(),
                peer,
                started,
                timer,
            )
        if request.op in ("ping", "stats", "metrics"):
            self._counters["responses"] += 1
            return self._reply(
                request,
                introspection_frame(
                    request,
                    self.pool,
                    metrics=self.metrics,
                    server=self.server_stats(),
                ),
                peer,
                started,
                timer,
            )
        state = self._client_state(peer) if self._quotas_on else None
        shed = self._admit(peer, state)
        if shed is not None:
            self._counters["errors"] += 1
            self._counters["overloaded"] += 1
            if request.id is not None:
                shed = dataclasses.replace(shed, id=request.id)
            return self._reply(
                request, shed.to_dict(), peer, started, timer
            )
        # The lookup's parse and durable read count toward this
        # request's stages, like the work on a decision thread.
        previous = activate(timer)
        try:
            found = self.pool.lookup(request, text_key)
        except Exception as error:
            self._counters["errors"] += 1
            frame = ErrorFrame.from_exception(error, id=request.id).to_dict()
            return self._reply(request, frame, peer, started, timer)
        finally:
            deactivate(previous)
        if found is None or isinstance(found, Miss):
            return self._decide(
                request, text_key, found, state, peer, started, timer
            )
        self._counters["loop_hits"] += 1
        self._counters["responses"] += 1
        return self._reply(request, found.to_dict(), peer, started, timer)

    def _reply(
        self,
        request: Optional[DecideRequest],
        frame: dict,
        peer: str,
        started: float,
        timer: Optional[StageTimer],
    ) -> bytes:
        line = encode_frame(frame)
        if self._observing:
            self._observe(request, frame, line, peer, started, timer)
        return line

    async def _decide(
        self,
        request: DecideRequest,
        text_key: Optional[str],
        miss: Optional[Miss],
        state: Optional[_ClientState],
        peer: str,
        started: float,
        timer: Optional[StageTimer],
    ) -> bytes:
        """The executor path: wait at the gate, then resolve ``miss``
        (or, when the loop could not route the request, process it
        whole) on an executor thread under the request's budget."""
        assert self._gate is not None and self._executor is not None
        acquired = False
        if self.shed_after_ms is not None:
            try:
                await asyncio.wait_for(
                    self._gate.acquire(), self.shed_after_ms / 1000.0
                )
                acquired = True
            except asyncio.TimeoutError:
                self._counters["errors"] += 1
                self._counters["overloaded"] += 1
                return self._reply(
                    request,
                    ErrorFrame.from_exception(
                        Overloaded(
                            f"server gate saturated ({self.max_pending} "
                            "requests pending)",
                            retry_after_ms=self.shed_after_ms,
                            scope="server",
                        ),
                        id=request.id,
                    ).to_dict(),
                    peer,
                    started,
                    timer,
                )
        else:
            await self._gate.acquire()  # backpressure: wait, don't shed
            acquired = True
        budget = self.pool.budget_for(request) or Budget()
        self._budgets.add(budget)
        if state is not None:
            state.inflight += 1
        self._counters["in_flight"] += 1
        submitted = time.perf_counter()

        def work() -> object:
            previous = None
            if timer is not None:
                timer.add("queue", time.perf_counter() - submitted)
                previous = activate(timer)
            try:
                return self.pool.process(
                    request, budget=budget, text_key=text_key, miss=miss
                )
            finally:
                if timer is not None:
                    deactivate(previous)

        try:
            response = await asyncio.get_running_loop().run_in_executor(
                self._executor, work
            )
        except Exception as error:
            self._counters["errors"] += 1
            if isinstance(error, DeadlineExceeded):
                self._counters["deadline_exceeded"] += 1
            frame = ErrorFrame.from_exception(error, id=request.id).to_dict()
        else:
            self._counters["responses"] += 1
            frame = response.to_dict()
        finally:
            self._counters["in_flight"] -= 1
            self._budgets.discard(budget)
            if state is not None:
                state.inflight -= 1
            if acquired:
                self._gate.release()
        return self._reply(request, frame, peer, started, timer)

    @property
    def _quotas_on(self) -> bool:
        return (
            self.client_rate is not None
            or self.max_inflight_per_client is not None
        )

    def __repr__(self) -> str:
        state = "listening" if self._lines.listening else "stopped"
        return f"DecideServer({self.host}:{self.port}, {state})"


async def run_server(
    pool: SessionPool,
    *,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    max_pending: int = DEFAULT_MAX_PENDING,
    client_rate: Optional[float] = None,
    client_burst: float = 8.0,
    max_inflight_per_client: Optional[int] = None,
    shed_after_ms: Optional[float] = None,
    drain_timeout: Optional[float] = None,
    ready: Optional[asyncio.Event] = None,
    metrics: Optional[MetricsRegistry] = None,
    request_log: Optional[RequestLogger] = None,
) -> None:
    """Start a `DecideServer` and serve until cancelled.

    ``ready`` (when given) is set once the socket is bound — test and
    benchmark harnesses wait on it instead of polling the port.
    Cancellation (or SIGTERM via the CLI) triggers a graceful drain
    bounded by ``drain_timeout``.
    """
    server = DecideServer(
        pool,
        host=host,
        port=port,
        max_pending=max_pending,
        client_rate=client_rate,
        client_burst=client_burst,
        max_inflight_per_client=max_inflight_per_client,
        shed_after_ms=shed_after_ms,
        metrics=metrics,
        request_log=request_log,
    )
    await server.start()
    if ready is not None:
        ready.set()
    try:
        await server.serve_forever()
    finally:
        await server.close(drain_timeout=drain_timeout)
