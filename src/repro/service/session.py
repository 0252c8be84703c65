"""Sessions: the user-facing service facade.

A `Session` binds a `CompiledSchema` to per-session resource limits and
an LRU decision cache, and exposes the four service verbs:

* ``decide(query)`` — monotone answerability, as a `DecideResponse`;
* ``decide_many(queries)`` — the batch form, one response per query;
* ``plan(query)`` — static-plan extraction, as a `PlanResponse`;
* ``explain(query)`` — the decision plus compilation/cache diagnostics.

Queries may be `ConjunctiveQuery` objects or text in the
`repro.logic.parser` syntax; a query atom over a relation the schema
lacks, or with the wrong arity, raises `QuerySchemaError` before any
cache is consulted.  The cache key is the pair (schema
fingerprint, canonical query form): queries that differ only in
variable names or in the query name share an entry.  In front of it
sits an exact-text key: each entry remembers the last few query texts
that reached it, so a repeat of one is a dictionary lookup with no
parse at all.  `decide` and `plan` are `Session.lookup` (exact text,
then parse and canonical key, then the LRU, then the durable store)
plus `Session.resolve`, which computes what the lookup missed.
Responses are wire-ready (`to_dict`) and mark cache hits with
``cached=True``.

Resource limits (``max_rounds``, ``max_facts``) bound the semidecidable
chase routes, replacing the per-call keyword defaults of the free
functions; routes with their own termination guarantee (the FD chase,
the linearized-rewriting ID route) are unaffected by ``max_rounds``.
``max_disjuncts`` bounds the ID route's backward rewriting; exceeding
it yields UNKNOWN with a structured ``error`` on the response instead
of a traceback.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import replace
from types import MappingProxyType
from typing import Any, Iterable, NamedTuple, Optional, Union

from ..answerability.deciders import (
    DEFAULT_CHASE_FACTS,
    DEFAULT_CHASE_ROUNDS,
    AnswerabilityResult,
    decide_monotone_answerability,
)
from ..containment.rewriting import DEFAULT_MAX_DISJUNCTS
from ..answerability.finite import decide_finite_monotone_answerability
from ..answerability.plangen import PlanExtractionError, generate_static_plan
from ..io import DecideResponse, PlanResponse, json_safe
from ..logic.parser import parse_cq
from ..logic.queries import ConjunctiveQuery
from ..logic.terms import Constant, Variable
from ..obs.timing import stage
from ..runtime import Budget
from ..schema.schema import Schema
from .compiled import CompiledSchema, as_compiled

QueryLike = Union[str, ConjunctiveQuery]

#: How the durable store's payload of each op decodes.
_DECODERS = {
    "decide": DecideResponse.from_dict,
    "plan": PlanResponse.from_dict,
}

#: Exact query texts remembered per decision-cache entry (alpha
#: variants of one query share the entry, each under its own text).
MAX_TEXTS_PER_ENTRY = 4


def _frozen(value: Any) -> Any:
    """``value`` with every dict made a read-only mapping and every list
    a tuple, so a cache entry can be shared without copying it."""
    if isinstance(value, (dict, MappingProxyType)):
        return MappingProxyType({k: _frozen(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    return value


def _cacheable(response: Any) -> Any:
    """The copy of a response the decision cache keeps: a separate
    object (callers may assign the original's fields) whose containers
    are read-only, so hits can share them with callers."""
    if isinstance(response, DecideResponse):
        return replace(
            response,
            detail=_frozen(response.detail),
            error=_frozen(response.error),
        )
    return replace(response)


def canonical_query_key(query: ConjunctiveQuery) -> str:
    """A canonical text form of a CQ, stable under variable renaming.

    Variables are numbered by first occurrence (free variables keep
    their answer positions); constants carry their value.  Two queries
    with the same key are identical up to variable names and the query
    name, so a cached decision transfers.
    """
    renaming: dict[Variable, str] = {}

    def term_key(term: Any) -> str:
        if isinstance(term, Variable):
            if term not in renaming:
                renaming[term] = f"?{len(renaming)}"
            return renaming[term]
        if isinstance(term, Constant):
            return f"c:{term.value!r}"
        return f"t:{term!r}"

    atoms = ";".join(
        f"{atom.relation}({','.join(term_key(t) for t in atom.terms)})"
        for atom in query.atoms
    )
    free = ",".join(term_key(v) for v in query.free_variables)
    return f"{atoms}|{free}"


class Miss(NamedTuple):
    """A decision-cache miss as `Session.lookup` hands it on, so
    `Session.resolve` computes the answer without parsing or looking it
    up again: the parsed query and its repr, the LRU key ``(op,
    canonical form, finite)``, the exact-text key (None for a query
    object), the durable key (None without a store) and the seconds
    the lookup took."""

    session: "Session"
    query: ConjunctiveQuery
    shown: str
    key: tuple
    text: Optional[tuple]
    durable_key: Optional[str]
    spent: float


class Session:
    """A reusable decision session over one compiled schema.

    ::

        session = Session(schema, max_rounds=50)
        response = session.decide("Udirectory(i, a, p)")
        assert response.is_yes
        wire = response.to_dict()          # JSON-ready

    Thread-safe: the compiled artifacts freeze after first use and the
    decision cache takes a lock; concurrent `decide` calls are fine.
    """

    def __init__(
        self,
        schema: Union[Schema, CompiledSchema],
        *,
        max_rounds: Optional[int] = DEFAULT_CHASE_ROUNDS,
        max_facts: int = DEFAULT_CHASE_FACTS,
        max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
        cache_size: int = 1024,
        store=None,
    ) -> None:
        self.compiled = as_compiled(schema)
        self.max_rounds = max_rounds
        self.max_facts = max_facts
        self.max_disjuncts = max_disjuncts
        self.cache_size = cache_size
        #: The decision LRU: canonical key -> (response, texts), where
        #: ``texts`` are the last `MAX_TEXTS_PER_ENTRY` exact request
        #: texts ``(op, query text, finite)`` that reached the entry.
        #: ``_texts`` indexes them (text -> (canonical key, the text's
        #: parsed repr)), so an exact-text key lives and dies with its
        #: entry.
        self._cache: OrderedDict[tuple, tuple] = OrderedDict()
        self._texts: dict[tuple, tuple] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        #: Optional durable `repro.cache.ArtifactStore` behind the LRU,
        #: the only durable answer cache: decisions and plans are
        #: loaded through it on memory misses and written through on
        #: fresh computes (intermediate artifacts such as rewritings
        #: stay in memory).  A decision's durable key includes every
        #: limit that can change the answer, so two sessions only ever
        #: share entries they would have computed identically.
        self.store = store
        self.durable_hits = 0

    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self.compiled.schema

    @property
    def fingerprint(self) -> str:
        return self.compiled.fingerprint

    def _cache_get(self, key: tuple) -> Optional[Any]:
        with self._lock:
            slot = self._cache.get(key)
            if slot is None:
                self.misses += 1
                return None
            self._cache.move_to_end(key)
            self.hits += 1
            return slot[0]

    def _cache_put(
        self,
        key: tuple,
        value: Any,
        text: Optional[tuple] = None,
        query: str = "",
    ) -> None:
        if self.cache_size <= 0:
            return
        with self._lock:
            previous = self._cache.get(key)
            self._cache[key] = (value, previous[1] if previous else ())
            self._cache.move_to_end(key)
            self._link(key, text, query)
            while len(self._cache) > self.cache_size:
                __, (___, texts) = self._cache.popitem(last=False)
                for evicted in texts:
                    del self._texts[evicted]

    def _link(self, key: tuple, text: Optional[tuple], query: str) -> None:
        """Make ``text`` an exact-text key of the cached entry ``key``
        (the entry's oldest text makes room past the cap)."""
        if text is None:
            return
        with self._lock:
            slot = self._cache.get(key)
            if slot is None or text in self._texts:
                return
            texts = slot[1] + (text,)
            if len(texts) > MAX_TEXTS_PER_ENTRY:
                del self._texts[texts[0]]
                texts = texts[1:]
            self._cache[key] = (slot[0], texts)
            self._texts[text] = (key, query)

    @staticmethod
    def _served(hit: Any, query: str, started: float) -> Any:
        """A cache hit as handed out: a shallow copy of the entry, with
        ``detail`` a fresh dict over the entry's read-only values, so
        callers may assign fields or annotate ``detail`` without
        poisoning the entry, and nothing is deep-copied.
        ``elapsed_ms`` is this lookup's cost, not the original
        decision's."""
        served = object.__new__(type(hit))
        served.__dict__.update(hit.__dict__)
        served.cached = True
        served.query = query
        if isinstance(hit, DecideResponse):
            served.elapsed_ms = round(
                (time.perf_counter() - started) * 1000.0, 3
            )
            served.detail = dict(hit.detail)
        return served

    # ------------------------------------------------------------------
    # Durable tier (load-through / write-through around the LRU)
    # ------------------------------------------------------------------
    def _durable_key(self, op: str, canon: str, finite: bool = False) -> str:
        """Address of one decision in the durable store.

        Besides the operation and the canonical query form, the key
        folds in every session limit that can change the answer
        (``max_rounds``/``max_facts``/``max_disjuncts``) — sessions
        under different limits never share durable entries.
        """
        text = "|".join(
            (
                op,
                canon,
                str(bool(finite)),
                str(self.max_rounds),
                str(self.max_facts),
                str(self.max_disjuncts),
                # Was the subsumption flag; kept so existing stores still hit.
                "True",
            )
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def _durable_load(self, key_text: str, decode) -> Optional[Any]:
        with stage("persist"):
            payload = self.store.load(
                "decision",
                f"decision:{self.compiled.fingerprint}",
                key_text,
            )
        if not isinstance(payload, dict):
            return None
        try:
            response = decode(payload)
        except (KeyError, TypeError, ValueError):
            return None
        if response.fingerprint != self.compiled.fingerprint:
            return None
        self.durable_hits += 1
        return response

    def _durable_put(self, key_text: str, response: Any) -> None:
        with stage("persist"):
            self.store.store(
                "decision",
                f"decision:{self.compiled.fingerprint}",
                key_text,
                response.to_dict(),
            )

    # ------------------------------------------------------------------
    # Service verbs
    # ------------------------------------------------------------------
    def lookup(
        self, op: str, query: QueryLike, finite: bool = False
    ) -> Union[DecideResponse, PlanResponse, Miss]:
        """The one hit path of `decide` and `plan` (plans pass
        ``finite=False``): the cached response, or the `Miss` that
        `resolve` computes from.

        In order: the exact-text key (no parse); then parse, fit check
        (a misfit query raises `QuerySchemaError` before any cache is
        consulted) and canonical key; then the decision LRU; then the
        durable store, whose hit is promoted into the LRU.  Nothing
        here compiles or decides, so the TCP server runs it on its
        event loop (through `repro.server.SessionPool.lookup`).
        """
        started = time.perf_counter()
        text = None
        if isinstance(query, str):
            text = (op, query, finite)
            with self._lock:
                memo = self._texts.get(text)
                if memo is not None:
                    key, shown = memo
                    hit = self._cache[key][0]
                    self._cache.move_to_end(key)
                    self.hits += 1
            if memo is not None:
                return self._served(hit, shown, started)
        with stage("parse"):
            parsed = parse_cq(query) if text is not None else query
            self.compiled.check_query(parsed)
            shown = repr(parsed)
            key = (op, canonical_query_key(parsed), finite)
        hit = self._cache_get(key)
        durable_key: Optional[str] = None
        if hit is None and self.store is not None:
            durable_key = self._durable_key(*key)
            hit = self._durable_load(durable_key, _DECODERS[op])
            if hit is not None:
                hit = _cacheable(hit)
                self._cache_put(key, hit)
        if hit is not None:
            self._link(key, text, shown)
            return self._served(hit, shown, started)
        return Miss(
            self, parsed, shown, key, text, durable_key,
            time.perf_counter() - started,
        )

    def resolve(
        self, miss: Miss, budget: Optional[Budget] = None
    ) -> Union[DecideResponse, PlanResponse]:
        """Compute the answer a `lookup` missed, cache it (memory and
        durable store) and return it.  An exhausted ``budget`` raises
        `repro.runtime.DeadlineExceeded` and caches nothing; neither do
        structured errors (rewriting/chase budget hits) or failed plan
        extractions, which reflect limits, not the query."""
        if budget is not None:
            budget.check()
        if miss.key[0] == "plan":
            response, keep = self._plan_response(miss, budget)
        else:
            response, keep = self._decide_response(miss, budget)
        if keep:
            cacheable = _cacheable(response)
            self._cache_put(miss.key, cacheable, miss.text, miss.shown)
            if miss.durable_key is not None:
                self._durable_put(miss.durable_key, cacheable)
            if isinstance(response, DecideResponse):
                # The shape a hit has, so a miss and a hit compare equal.
                response.detail = dict(cacheable.detail)
        return response

    def decide(
        self,
        query: QueryLike,
        *,
        finite: bool = False,
        budget: Optional[Budget] = None,
    ) -> DecideResponse:
        """Decide monotone answerability; cached by canonical form.

        ``budget`` is threaded through the decision procedures
        (chase rounds, rewriting expansions, matcher backtracking all
        poll it); an exhausted budget raises
        `repro.runtime.DeadlineExceeded` out of this method *without*
        caching anything — a deadline abort is a property of the
        request, not of the query, so it must never masquerade as a
        decision on later lookups.  Cache hits are served even when the
        budget is already exhausted (they cost microseconds).
        """
        found = self.lookup("decide", query, finite)
        if isinstance(found, Miss):
            return self.resolve(found, budget)
        return found

    def _decide_response(
        self, miss: Miss, budget: Optional[Budget]
    ) -> tuple[DecideResponse, bool]:
        started = time.perf_counter() - miss.spent
        result = self._decide_result(
            miss.query, finite=miss.key[2], budget=budget
        )
        # Promote a structured error (e.g. RewritingBudgetExceeded) to
        # the top-level wire field; it leaves `detail` so the payload
        # carries it exactly once.
        detail = dict(result.decision.detail)
        structured_error = detail.get("error")
        if isinstance(structured_error, dict):
            del detail["error"]
        else:
            structured_error = None
        response = DecideResponse(
            query=miss.shown,
            decision=result.truth.value,
            reason=result.decision.reason,
            route=result.route,
            constraint_class=result.constraint_class.value,
            fingerprint=self.compiled.fingerprint,
            cached=False,
            elapsed_ms=round(
                (time.perf_counter() - started) * 1000.0, 3
            ),
            detail=json_safe(detail),
            error=json_safe(structured_error)
            if structured_error is not None
            else None,
        )
        return response, response.error is None

    def _decide_result(
        self,
        query: ConjunctiveQuery,
        *,
        finite: bool,
        budget: Optional[Budget] = None,
    ) -> AnswerabilityResult:
        if finite:
            return decide_finite_monotone_answerability(
                self.compiled,
                query,
                max_rounds=self.max_rounds,
                max_facts=self.max_facts,
                max_disjuncts=self.max_disjuncts,
                budget=budget,
            )
        return decide_monotone_answerability(
            self.compiled,
            query,
            max_rounds=self.max_rounds,
            max_facts=self.max_facts,
            max_disjuncts=self.max_disjuncts,
            budget=budget,
        )

    def decide_many(
        self,
        queries: Iterable[QueryLike],
        *,
        finite: bool = False,
        budget: Optional[Budget] = None,
    ) -> list[DecideResponse]:
        """Decide a batch of queries against the shared compiled schema."""
        return [
            self.decide(query, finite=finite, budget=budget)
            for query in queries
        ]

    def plan(
        self, query: QueryLike, *, budget: Optional[Budget] = None
    ) -> PlanResponse:
        """Extract a static plan (Boolean queries); cached like decide."""
        found = self.lookup("plan", query)
        if isinstance(found, Miss):
            return self.resolve(found, budget)
        return found

    def _plan_response(
        self, miss: Miss, budget: Optional[Budget]
    ) -> tuple[PlanResponse, bool]:
        shown = miss.shown
        try:
            plan = generate_static_plan(
                self.compiled,
                miss.query,
                max_rounds=self.max_rounds,
                max_facts=self.max_facts,
                max_disjuncts=self.max_disjuncts,
                budget=budget,
            )
        except PlanExtractionError as error:
            return PlanResponse(
                query=shown,
                answerable=False,
                reason=str(error),
                fingerprint=self.compiled.fingerprint,
            ), False
        if plan is None:
            return PlanResponse(
                query=shown,
                answerable=False,
                reason=(
                    "the query is not (provably) monotone answerable "
                    "through a chase certificate"
                ),
                fingerprint=self.compiled.fingerprint,
            ), True
        return PlanResponse(
            query=shown,
            answerable=True,
            plan=str(plan),
            fingerprint=self.compiled.fingerprint,
        ), True

    def explain(
        self,
        query: QueryLike,
        *,
        finite: bool = False,
        budget: Optional[Budget] = None,
    ) -> dict:
        """The decision plus session/compilation diagnostics, JSON-safe."""
        response = self.decide(query, finite=finite, budget=budget)
        report = response.to_dict()
        report["limits"] = {
            "max_rounds": self.max_rounds,
            "max_facts": self.max_facts,
            "max_disjuncts": self.max_disjuncts,
        }
        report["cache"] = self.cache_info()
        report["compile_stats"] = dict(self.compiled.stats)
        report["rewrite_engine"] = self.compiled.engine_stats()
        report["matching"] = self.compiled.matcher_stats()
        return report

    # ------------------------------------------------------------------
    def cache_info(self) -> dict:
        with self._lock:
            info = {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._cache),
                "capacity": self.cache_size,
            }
            if self.store is not None:
                info["durable_hits"] = self.durable_hits
            return info

    def stats(self) -> dict:
        """Session-wide diagnostics: decision cache, per-schema compile
        counters, and the cross-query cache traffic of the rewrite
        engine and the compiled matcher (plan-cache and check-cache
        hit counters).  With a durable store bound, its per-tier
        hit/miss/write/invalid counters appear under ``store``."""
        report = {
            "fingerprint": self.compiled.fingerprint,
            "cache": self.cache_info(),
            "compile_stats": dict(self.compiled.stats),
            "rewrite_engine": self.compiled.engine_stats(),
            "matching": self.compiled.matcher_stats(),
        }
        if self.store is not None:
            report["store"] = self.store.stats()
        return report

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()
            self._texts.clear()

    def __repr__(self) -> str:
        return (
            f"Session({self.compiled!r}, max_rounds={self.max_rounds}, "
            f"max_facts={self.max_facts})"
        )
