"""Per-fingerprint session pooling: the serving layer's routing core.

A `SessionPool` routes every request to a `Session` keyed by the
*content fingerprint* of its schema — the sharding design the service
layer was built for: `CompiledSchema` artifacts (classification,
simplifications, linearization, the rewrite engine, the matcher) are
immutable and thread-safe, so one per fingerprint serves every thread.

Routing is two-level, like the batch CLI it generalizes: the serialized
inline description skips recompilation for byte-identical spellings,
and the content fingerprint dedupes reordered spellings of the same
schema.  Each fingerprint owns exactly one thread-safe `Session` over
its `CompiledSchema`, so one schema's decisions share one cache.  Cold
fingerprints are evicted LRU once `max_fingerprints` distinct schemas
have been seen (the default schema, when configured, is pinned).

Eviction drops a fingerprint's entry, not its spellings: the spelling
map has its own LRU cap (8 × `max_fingerprints`).  A remembered
spelling whose fingerprint was evicted is *recalled*
(``fingerprints_recalled``, not ``schemas_compiled``): its new entry's
`CompiledSchema` carries the remembered fingerprint and parses the
description only on first need — a decide or plan request that
misses both the session cache and the durable store.  A returning schema
whose answers are all stored is thus served without being parsed,
fingerprinted or classified again; the query fit check reads the
arities of the description's ``relations`` section, validated when
that spelling was first parsed.

`process(request)` is the transport-independent request path shared by
the asyncio server, the WSGI adapter, and the batch CLI: route, decide
or plan, stamp the request id.  `lookup(request)` is its cache half for
the TCP server's event loop: it routes a known spelling (live or
recalled) without compiling or ever blocking on the pool lock, and runs
`Session.lookup` — exact text, then parse and canonical key, then the
session LRU, then the durable store.  A hit comes back served; a miss
comes back as the `repro.service.session.Miss` that
``process(request, miss=...)`` resolves (on the loop's slice, or on a
decision thread), so the query is parsed and looked up once.
`deciding` counts the `process` calls running from every caller, so
the server decides on its loop only while no decision runs anywhere.
`stats()` reports each fingerprint's session statistics plus the
pool's own routing counters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Union

from ..defaults import (
    DEFAULT_CHASE_FACTS,
    DEFAULT_CHASE_ROUNDS,
    DEFAULT_MAX_DISJUNCTS,
    DEFAULT_MAX_FINGERPRINTS,
)
from ..io import (
    DecideRequest,
    DecideResponse,
    PlanResponse,
    json_safe,
    schema_to_dict,
)
from ..obs.timing import stage
from ..runtime import Budget
from ..schema.schema import Schema
from ..service import CompiledSchema, Session, as_compiled
from ..service.session import Miss
from .lines import process_usage, text_key_of


@dataclass(frozen=True)
class SessionLimits:
    """The per-session resource limits a pool stamps on every session
    it creates (one place to configure, so every fingerprint's sessions
    behave identically)."""

    max_rounds: Optional[int] = DEFAULT_CHASE_ROUNDS
    max_facts: int = DEFAULT_CHASE_FACTS
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS
    cache_size: int = 1024
    #: Wall-clock deadline applied to every request that does not carry
    #: its own ``deadline_ms`` (None = unbounded).  A request deadline
    #: is capped at this value when both are set.
    deadline_ms: Optional[float] = None

    def make_session(
        self, compiled: CompiledSchema, *, store=None
    ) -> Session:
        return Session(
            compiled,
            max_rounds=self.max_rounds,
            max_facts=self.max_facts,
            max_disjuncts=self.max_disjuncts,
            cache_size=self.cache_size,
            store=store,
        )


class _Entry:
    """One fingerprint in the pool: the compiled schema and the one
    session over it."""

    __slots__ = ("compiled", "session", "requests")

    def __init__(self, compiled: CompiledSchema, session: Session) -> None:
        self.compiled = compiled
        self.session = session
        self.requests = 0

    def stats(self) -> dict:
        return {
            "fingerprint": self.compiled.fingerprint,
            "requests": self.requests,
            "sessions": 1,
            "cache": self.session.cache_info(),
            "compile_stats": dict(self.compiled.stats),
            "rewrite_engine": self.compiled.engine_stats(),
            "matching": self.compiled.matcher_stats(),
        }


SchemaLike = Union[None, dict, Schema, CompiledSchema]
Response = Union[DecideResponse, PlanResponse]


class SessionPool:
    """Fingerprint-routed, LRU-bounded pool of decision sessions.

    ::

        pool = SessionPool(default_schema=schema)
        response = pool.process(DecideRequest(query="R(x)"))
        pool.stats()["fingerprints"]

    Thread-safe: routing state is under one lock; the sessions handed
    out are themselves thread-safe, so `process` may be called from any
    number of threads concurrently.
    """

    def __init__(
        self,
        default_schema: SchemaLike = None,
        *,
        limits: Optional[SessionLimits] = None,
        max_fingerprints: int = DEFAULT_MAX_FINGERPRINTS,
        store=None,
    ) -> None:
        if max_fingerprints < 1:
            raise ValueError(
                f"max_fingerprints must be >= 1, got {max_fingerprints}"
            )
        self.limits = limits if limits is not None else SessionLimits()
        self.max_fingerprints = max_fingerprints
        #: Optional durable `repro.cache.ArtifactStore` shared by every
        #: session this pool creates; compiled fingerprints are
        #: recorded into the store's warm set so a restarted process
        #: can `warm_from_store()`.
        self.store = store
        self._lock = threading.RLock()
        #: fingerprint -> entry, in LRU order (hot end last).
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        #: serialized inline description -> fingerprint, LRU-capped at
        #: `_max_text_keys`; entries outlive their fingerprint's
        #: eviction, so a returning spelling is recalled.
        self._text_keys: OrderedDict[str, str] = OrderedDict()
        self._max_text_keys = 8 * max_fingerprints
        self._counters = {
            "requests": 0,
            "schemas_compiled": 0,
            "fingerprints_recalled": 0,
            "sessions_created": 0,
            "text_key_hits": 0,
            "fingerprint_hits": 0,
            "evictions": 0,
            "warmed": 0,
        }
        #: fingerprint -> {"requests", "cache_hits"}, LRU-bounded but
        #: *not* tied to entry eviction: shard heat stays observable
        #: even for fingerprints the pool has since evicted (the fleet
        #: dispatcher reads ring balance off this map).
        self._heat: OrderedDict[str, dict[str, int]] = OrderedDict()
        self._max_heat = 8 * max_fingerprints
        #: Fingerprints this pool has written to the store's warm set
        #: (LRU-bounded like ``_heat``).
        self._warm_recorded: OrderedDict[str, None] = OrderedDict()
        #: `process` calls running now, from every caller (server
        #: threads and loop, WSGI host threads, the batch CLI).
        self.deciding = 0
        self._deciding_lock = threading.Lock()
        self._default: Optional[_Entry] = None
        if default_schema is not None:
            self._default = self._new_entry(self._compile(default_schema))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @staticmethod
    def _build(schema: Union[dict, Schema, CompiledSchema]) -> CompiledSchema:
        """Counter-free compilation (`_compile` adds the accounting)."""
        if isinstance(schema, dict):
            return CompiledSchema.from_description(schema)
        return as_compiled(schema)

    def _record_warm(self, compiled: CompiledSchema) -> None:
        if self.store is None:
            return
        if compiled.fingerprint in self._warm_recorded:
            # A fingerprint's warm-set entry never changes, so a
            # recompile after eviction skips the write.
            self._warm_recorded.move_to_end(compiled.fingerprint)
            return
        from ..cache.bundle import record_warm_schema

        record_warm_schema(
            self.store, compiled.fingerprint, schema_to_dict(compiled.schema)
        )
        self._warm_recorded[compiled.fingerprint] = None
        while len(self._warm_recorded) > self._max_heat:
            self._warm_recorded.popitem(last=False)

    def _compile(self, schema: Union[dict, Schema, CompiledSchema]):
        with stage("compile"):
            compiled = self._build(schema)
        self._counters["schemas_compiled"] += 1
        self._record_warm(compiled)
        return compiled

    def _new_entry(self, compiled: CompiledSchema) -> _Entry:
        self._counters["sessions_created"] += 1
        return _Entry(
            compiled, self.limits.make_session(compiled, store=self.store)
        )

    def _remember_text_key(self, text_key: str, fingerprint: str) -> None:
        self._text_keys[text_key] = fingerprint
        self._text_keys.move_to_end(text_key)
        while len(self._text_keys) > self._max_text_keys:
            self._text_keys.popitem(last=False)

    def _known_entry(
        self, schema: SchemaLike, text_key: Optional[str]
    ) -> Optional[_Entry]:
        """The entry ``schema`` routes to without a compile (the
        default, or a live or recalled spelling ``text_key``, made
        hot), counted as routed; None when only a compile can route
        it."""
        if schema is None:
            if self._default is None:
                raise ValueError(
                    "request carries no schema and the pool has no default"
                )
            return self._default
        if text_key is None:
            return None
        fingerprint = self._text_keys.get(text_key)
        if fingerprint is None:
            return None
        self._text_keys.move_to_end(text_key)
        if (
            self._default is not None
            and fingerprint == self._default.compiled.fingerprint
        ):
            self._counters["text_key_hits"] += 1
            return self._default
        entry = self._entries.get(fingerprint)
        if entry is None:
            # A spelling whose fingerprint was evicted.
            self._counters["fingerprints_recalled"] += 1
            return self._admit(
                CompiledSchema.from_description(schema, fingerprint)
            )
        self._entries.move_to_end(fingerprint)
        self._counters["text_key_hits"] += 1
        return entry

    def _entry_for(
        self,
        schema: SchemaLike,
        text_key: Optional[str] = None,
    ) -> _Entry:
        if text_key is None:
            text_key = text_key_of(schema)
        entry = self._known_entry(schema, text_key)
        if entry is not None:
            return entry
        compiled = self._compile(schema)
        if text_key is not None:
            self._remember_text_key(text_key, compiled.fingerprint)
        if (
            self._default is not None
            and compiled.fingerprint == self._default.compiled.fingerprint
        ):
            # An inline spelling of the pinned default schema; the
            # remembered spelling skips recompilation next time.
            return self._default
        return self._admit(compiled)

    def _admit(self, compiled: CompiledSchema) -> _Entry:
        """The entry for ``compiled``'s fingerprint, made hot; creates
        it (evicting the coldest past `max_fingerprints`) if absent."""
        entry = self._entries.get(compiled.fingerprint)
        if entry is None:
            entry = self._new_entry(compiled)
            self._entries[compiled.fingerprint] = entry
        else:
            self._counters["fingerprint_hits"] += 1
        self._entries.move_to_end(compiled.fingerprint)
        while len(self._entries) > self.max_fingerprints:
            # The evicted fingerprint's spellings stay in `_text_keys`:
            # a returning spelling is recalled, not recompiled.
            self._entries.popitem(last=False)
            self._counters["evictions"] += 1
        return entry

    def session(
        self, schema: SchemaLike = None, text_key: Optional[str] = None
    ) -> Session:
        """Route to the fingerprint's session.

        ``schema`` may be None (the pinned default), an inline JSON
        description (dict), a `Schema`, or a `CompiledSchema`;
        ``text_key`` is a dict schema's `text_key_of`, when the caller
        already has it.
        """
        with self._lock:
            self._counters["requests"] += 1
            entry = self._entry_for(schema, text_key=text_key)
            entry.requests += 1
            return entry.session

    def warm(self, schema: SchemaLike) -> str:
        """Precompile ``schema`` into the pool without serving a
        request; returns the content fingerprint.

        The entry (compiled artifacts plus one ready session) is
        registered exactly as a first request would register it — same
        two-level routing, same LRU accounting — so the first real
        request on a warmed fingerprint is a plain ``text_key_hits`` /
        ``fingerprint_hits`` lookup with zero compile latency.  Workers
        warm their manifest before reporting ready (`--warm`); warmed
        schemas do not count as requests or shard heat.
        """
        if schema is None:
            raise ValueError("cannot warm None (the default is always hot)")
        with self._lock:
            entry = self._entry_for(schema)
            self._counters["warmed"] += 1
            return entry.compiled.fingerprint

    def warm_many(self, schemas: Iterable[SchemaLike]) -> list[str]:
        """`warm` each schema in order; returns their fingerprints."""
        schemas = list(schemas)
        if any(schema is None for schema in schemas):
            raise ValueError("cannot warm None (the default is always hot)")
        return [self.warm(schema) for schema in schemas]

    def warm_from_store(self) -> int:
        """Re-warm every schema in the bound store's warm set.

        The warm set is written as a side effect of compiling with a
        store bound, so a restarted process recovers its working set
        without any manifest.  Invalid/stale entries are skipped by the
        loader; returns the number of schemas warmed.
        """
        if self.store is None:
            return 0
        from ..cache.bundle import load_warm_set

        descriptions = load_warm_set(self.store)
        if not descriptions:
            return 0
        self.warm_many(descriptions)
        return len(descriptions)

    def _record_heat(self, fingerprint: str, *, cached: bool) -> None:
        with self._lock:
            heat = self._heat.get(fingerprint)
            if heat is None:
                heat = {"requests": 0, "cache_hits": 0}
                self._heat[fingerprint] = heat
            heat["requests"] += 1
            if cached:
                heat["cache_hits"] += 1
            self._heat.move_to_end(fingerprint)
            while len(self._heat) > self._max_heat:
                self._heat.popitem(last=False)

    # ------------------------------------------------------------------
    # The transport-independent request path
    # ------------------------------------------------------------------
    def budget_for(self, request: DecideRequest) -> Optional[Budget]:
        """The `Budget` governing one request, or None when unbounded.

        The effective deadline is the *tighter* of the request's own
        ``deadline_ms`` and the pool's configured default
        (``limits.deadline_ms``): clients may always ask for less time
        than the server allows, never more.
        """
        deadlines = [
            d
            for d in (request.deadline_ms, self.limits.deadline_ms)
            if d is not None
        ]
        if not deadlines:
            return None
        return Budget(min(deadlines))

    def process(
        self,
        request: DecideRequest,
        *,
        budget: Optional[Budget] = None,
        text_key: Optional[str] = None,
        miss: Optional[Miss] = None,
    ) -> Response:
        """Route and execute one request frame (op decide or plan).

        Raises on malformed input (bad schema, unparseable query, an op
        this layer does not handle) — transports turn exceptions into
        `ErrorFrame`s.  ``budget`` defaults to `budget_for(request)`;
        transports that need to cancel in-flight work (drain, client
        disconnect) construct the budget themselves and keep a handle.
        An exhausted budget raises `repro.runtime.DeadlineExceeded`.
        ``text_key`` is the request schema's `text_key_of`, when the
        transport already computed it.  ``miss`` is what `lookup`
        returned for this request: the request was routed and looked
        up already, so only the answer is computed.
        """
        if request.op not in ("decide", "plan"):
            raise ValueError(
                f"op {request.op!r} is not a session operation"
            )
        if budget is None:
            budget = self.budget_for(request)
        with self._deciding_lock:
            self.deciding += 1
        try:
            if miss is not None:
                response: Response = miss.session.resolve(miss, budget)
            else:
                session = self.session(request.schema, text_key)
                if request.op == "plan":
                    response = session.plan(request.query, budget=budget)
                else:
                    response = session.decide(
                        request.query, finite=request.finite, budget=budget
                    )
        finally:
            with self._deciding_lock:
                self.deciding -= 1
        return self._finish(request, response)

    def lookup(
        self, request: DecideRequest, text_key: Optional[str] = None
    ) -> Union[Response, Miss, None]:
        """The cache half of `process`, safe on an event loop.

        Routes without compiling (a live or recalled spelling, or the
        default) and runs `Session.lookup`: a hit comes back finished,
        a miss as the `Miss` for ``process(request, miss=...)``.  None
        means only `process` can take the request: a new spelling, an
        op other than decide/plan, no default, or a pool lock some
        thread holds (this never waits for it).  Accounting equals
        `process`'s either way; parse and fit errors raise as there.
        A hit is served even past the request's deadline.
        """
        if request.op not in ("decide", "plan"):
            return None
        if request.schema is None and self._default is None:
            return None
        if text_key is None:
            text_key = text_key_of(request.schema)
        if not self._lock.acquire(blocking=False):
            return None
        try:
            entry = self._known_entry(request.schema, text_key)
            if entry is None:
                return None
            self._counters["requests"] += 1
            entry.requests += 1
            # `Session.plan` passes False: plans key with False.
            finite = request.finite and request.op == "decide"
            found = entry.session.lookup(request.op, request.query, finite)
            if isinstance(found, Miss):
                return found
            # `_record_heat` re-enters the lock this thread holds.
            return self._finish(request, found)
        finally:
            self._lock.release()

    def _finish(self, request: DecideRequest, response: Response) -> Response:
        self._record_heat(response.fingerprint, cached=response.cached)
        if request.id is not None:
            # Sessions hand out their own copies, never a cache entry.
            response.id = request.id
        return response

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Pool-level routing counters plus per-fingerprint aggregated
        session statistics (hot fingerprints last, mirroring LRU
        order)."""
        with self._lock:
            entries = list(self._entries.values())
            if self._default is not None:
                entries.insert(0, self._default)
            payload = {
                "fingerprints": len(entries),
                "max_fingerprints": self.max_fingerprints,
                "counters": dict(self._counters),
                "limits": {
                    "max_rounds": self.limits.max_rounds,
                    "max_facts": self.limits.max_facts,
                    "max_disjuncts": self.limits.max_disjuncts,
                    "deadline_ms": self.limits.deadline_ms,
                },
                # Shard heat: per-fingerprint request/decision-cache-hit
                # counts (bounded, eviction-surviving, hot last) — what
                # the fleet aggregates to observe ring balance.
                "per_fingerprint": {
                    fingerprint: dict(heat)
                    for fingerprint, heat in self._heat.items()
                },
                "sessions": [entry.stats() for entry in entries],
            }
            if self.store is not None:
                # Per-tier hit/miss/write/invalid counters of the
                # durable artifact store (shared across fingerprints).
                payload["store"] = self.store.stats()
            return payload

    def register_metrics(self, registry: Any) -> None:
        """Register this pool's legacy `stats` as the ``pool`` provider
        of a `repro.obs.MetricsRegistry` (DESIGN.md §3c): every pool,
        session, matcher, engine, and store counter surfaces as
        ``repro_pool_*`` samples, equal to `stats` by construction."""
        registry.register_provider("pool", self.stats)

    def fingerprints(self) -> tuple[str, ...]:
        """Live fingerprints, cold to hot (default first when pinned)."""
        with self._lock:
            live = tuple(self._entries)
            if self._default is not None:
                return (self._default.compiled.fingerprint,) + live
            return live

    def __repr__(self) -> str:
        with self._lock:
            return f"SessionPool({len(self._entries)} fingerprints)"


def introspection_frame(
    request: DecideRequest,
    pool: SessionPool,
    *,
    metrics: Any = None,
    **sections: Any,
) -> dict:
    """The pong/stats/metrics frames, shared by every transport.

    The TCP server, the WSGI adapter, and the batch CLI all answer
    ``op: ping``/``op: stats``/``op: metrics`` through this one
    builder, so the frame shape cannot drift between front ends.
    ``sections`` adds transport-specific stats blocks (the TCP server
    passes ``server=...``) ahead of the pool's; a stats frame ends with
    the answering process's own ``process`` usage block
    (`repro.server.lines.process_usage`).

    ``op: metrics`` returns the `repro.obs.MetricsRegistry` snapshot
    (``metrics`` when the transport runs one, else an ad-hoc registry
    over this pool), stamped with the answering worker's pid so fleet
    aggregation can label per-worker series.  The frame is passed
    through `repro.io.json_safe`: introspection payloads must always
    serialize, whatever a provider returns.
    """
    if request.op == "ping":
        frame: dict = {"op": "pong"}
    elif request.op == "metrics":
        import os

        registry = metrics
        if registry is None:
            from ..obs.registry import MetricsRegistry

            registry = MetricsRegistry()
            if hasattr(pool, "register_metrics"):
                pool.register_metrics(registry)
            elif hasattr(pool, "stats"):
                registry.register_provider("pool", pool.stats)
        frame = {
            "op": "metrics",
            "pid": os.getpid(),
            "metrics": registry.snapshot(),
            **sections,
        }
    else:
        frame = {
            "op": "stats",
            **sections,
            "pool": pool.stats(),
            "process": process_usage(),
        }
    if request.id is not None:
        frame["id"] = request.id
    return json_safe(frame)
