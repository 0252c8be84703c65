"""Unit tests for the per-fingerprint `SessionPool`."""

import sys
import threading

import pytest

from repro.cache import ArtifactStore, MemoryKVStore
from repro.io import DecideRequest, schema_from_dict, schema_to_dict
from repro.logic.terms import Constant
from repro.server import SessionLimits, SessionPool
from repro.service import QuerySchemaError, Session, compile_schema
from repro.workloads import (
    fd_determinacy_workload,
    id_chain_workload,
    id_width_workload,
    lookup_chain_workload,
    tgd_transfer_workload,
    uid_fd_workload,
    university_schema,
)

UNIVERSITY = {
    "relations": {"Prof": 3, "Udirectory": 3},
    "methods": [
        {"name": "pr", "relation": "Prof", "inputs": [1]},
        {
            "name": "ud",
            "relation": "Udirectory",
            "inputs": [],
            "result_bound": 100,
        },
    ],
    "constraints": ["Prof(i,n,s) -> Udirectory(i,a,p)"],
}


def reordered(description: dict) -> dict:
    """The same schema, spelled differently (methods reversed)."""
    spelled = dict(description)
    spelled["methods"] = list(reversed(description["methods"]))
    return spelled


class TestRouting:
    def test_default_schema_serves_schemaless_requests(self):
        pool = SessionPool(university_schema(ud_bound=100))
        response = pool.process(DecideRequest(query="Udirectory(i,a,p)"))
        assert response.is_yes

    def test_no_default_and_no_schema_is_an_error(self):
        pool = SessionPool()
        with pytest.raises(ValueError, match="no default"):
            pool.process(DecideRequest(query="R(x)"))

    def test_same_spelling_shares_a_session(self):
        pool = SessionPool()
        first = pool.session(UNIVERSITY)
        second = pool.session(UNIVERSITY)
        assert first.compiled is second.compiled
        assert pool.stats()["counters"]["schemas_compiled"] == 1
        assert pool.stats()["counters"]["text_key_hits"] == 1

    def test_reordered_spelling_shares_the_compiled_schema(self):
        pool = SessionPool()
        first = pool.session(UNIVERSITY)
        second = pool.session(reordered(UNIVERSITY))
        # Different spelling, same content fingerprint: recompiled once
        # to discover the fingerprint, then routed to the same entry.
        assert first.compiled is second.compiled
        assert first is second
        assert len(pool.fingerprints()) == 1

    def test_inline_spelling_of_the_default_routes_to_it(self):
        pool = SessionPool(schema_from_dict(UNIVERSITY))
        session = pool.session(UNIVERSITY)
        assert session is pool.session(None)
        # The default is pinned, not an LRU entry.
        stats = pool.stats()
        assert stats["fingerprints"] == 1

    def test_inline_default_spelling_is_cached_after_first_sight(self):
        pool = SessionPool(schema_from_dict(UNIVERSITY))
        pool.session(UNIVERSITY)  # learns the spelling
        compiled_before = pool.stats()["counters"]["schemas_compiled"]
        for __ in range(3):
            assert pool.session(UNIVERSITY) is pool.session(None)
        stats = pool.stats()["counters"]
        # The hot path: no re-parse/re-fingerprint per request.
        assert stats["schemas_compiled"] == compiled_before
        assert stats["text_key_hits"] >= 3

    def test_text_key_map_is_bounded(self):
        pool = SessionPool(max_fingerprints=2)
        # Many distinct spellings of one hot fingerprint: constraints
        # reordered (json.dumps sorts dict keys, not list items).
        base = {
            "relations": {"R": 1, "S": 1},
            "methods": [{"name": "m", "relation": "R", "inputs": []}],
            "constraints": ["R(x) -> S(x)", "S(x) -> R(x)"],
        }
        flipped = dict(base)
        flipped["constraints"] = list(reversed(base["constraints"]))
        for spelling in (base, flipped):
            pool.session(spelling)
        assert len(pool.fingerprints()) == 1
        assert len(pool._text_keys) <= pool._max_text_keys

    def test_compiled_schema_accepted_directly(self):
        compiled = compile_schema(schema_from_dict(UNIVERSITY))
        pool = SessionPool()
        assert pool.session(compiled).compiled is compiled


class TestOneSessionPerFingerprint:
    def test_every_request_on_a_fingerprint_gets_its_one_session(self):
        pool = SessionPool()
        sessions = {id(pool.session(UNIVERSITY)) for __ in range(7)}
        sessions.add(id(pool.session(reordered(UNIVERSITY))))
        assert len(sessions) == 1
        counters = pool.stats()["counters"]
        assert counters["sessions_created"] == 1
        assert counters["requests"] == 8

    def test_default_schema_session_is_built_with_the_pool(self):
        pool = SessionPool(university_schema(ud_bound=100))
        assert pool.stats()["counters"]["sessions_created"] == 1
        assert pool.session(None) is pool.session(None)
        assert pool.stats()["counters"]["sessions_created"] == 1

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            SessionPool(max_fingerprints=0)

    def test_removed_pool_size_is_gone(self):
        with pytest.raises(TypeError):
            SessionPool(pool_size=2)
        pool = SessionPool(university_schema(ud_bound=100))
        assert "pool_size" not in pool.stats()
        assert "pool_size" not in repr(pool)


class TestEviction:
    def _schemas(self, count: int):
        return [
            {
                "relations": {f"R{i}": 1},
                "methods": [
                    {"name": f"m{i}", "relation": f"R{i}", "inputs": []}
                ],
            }
            for i in range(count)
        ]

    def test_lru_evicts_the_coldest_fingerprint(self):
        pool = SessionPool(max_fingerprints=2)
        a, b, c = self._schemas(3)
        pool.session(a)
        pool.session(b)
        pool.session(a)  # refresh a: b is now coldest
        pool.session(c)  # evicts b
        fingerprints = pool.fingerprints()
        assert len(fingerprints) == 2
        assert pool.stats()["counters"]["evictions"] == 1
        # b returns: recalled through its remembered spelling, not
        # recompiled.
        before = pool.stats()["counters"]
        pool.session(b)
        after = pool.stats()["counters"]
        assert after["schemas_compiled"] == before["schemas_compiled"]
        assert (
            after["fingerprints_recalled"]
            == before["fingerprints_recalled"] + 1
        )

    def test_default_is_never_evicted(self):
        pool = SessionPool(
            university_schema(ud_bound=100),
            max_fingerprints=1,
        )
        for description in self._schemas(3):
            pool.session(description)
        response = pool.process(DecideRequest(query="Udirectory(i,a,p)"))
        assert response.is_yes


class TestProcess:
    def test_decide_and_plan_and_id_stamping(self):
        pool = SessionPool(university_schema(ud_bound=100))
        decided = pool.process(
            DecideRequest(query="Udirectory(i,a,p)", id=7)
        )
        assert decided.is_yes and decided.id == 7
        planned = pool.process(
            DecideRequest(query="Udirectory(i,a,p)", op="plan", id="p")
        )
        assert planned.answerable and planned.id == "p"
        assert "<= ud <=" in planned.plan

    def test_cached_response_does_not_leak_ids(self):
        pool = SessionPool(university_schema(ud_bound=100))
        pool.process(DecideRequest(query="Udirectory(i,a,p)", id="one"))
        again = pool.process(DecideRequest(query="Udirectory(x,y,z)"))
        assert again.cached is True
        assert again.id is None

    def test_non_session_ops_are_rejected(self):
        pool = SessionPool(university_schema(ud_bound=100))
        with pytest.raises(ValueError, match="not a session operation"):
            pool.process(DecideRequest(op="stats"))

    def test_limits_reach_the_sessions(self):
        pool = SessionPool(
            university_schema(ud_bound=100),
            limits=SessionLimits(max_disjuncts=1),
        )
        response = pool.process(DecideRequest(query="Udirectory(i,a,p)"))
        assert response.is_unknown
        assert response.error["type"] == "RewritingBudgetExceeded"

    def test_budget_for_takes_the_tighter_deadline(self):
        schema = university_schema(ud_bound=100)
        unbounded = SessionPool(schema)
        assert unbounded.budget_for(DecideRequest(query="Q()")) is None
        assert (
            unbounded.budget_for(
                DecideRequest(query="Q()", deadline_ms=40.0)
            ).deadline_ms
            == 40.0
        )
        capped = SessionPool(
            schema, limits=SessionLimits(deadline_ms=25.0)
        )
        assert (
            capped.budget_for(DecideRequest(query="Q()")).deadline_ms
            == 25.0
        )
        # min(request, pool) wins in both directions.
        assert (
            capped.budget_for(
                DecideRequest(query="Q()", deadline_ms=10.0)
            ).deadline_ms
            == 10.0
        )
        assert (
            capped.budget_for(
                DecideRequest(query="Q()", deadline_ms=60_000.0)
            ).deadline_ms
            == 25.0
        )
        assert capped.stats()["limits"]["deadline_ms"] == 25.0

    def test_pool_decides_through_the_pruning_engine(self):
        # One pruning engine per fingerprint; the raw rewriting over
        # the same Σ^Lin rules is the oracle for the pool's answers.
        from repro.answerability.axioms import prime_query
        from repro.containment.rewriting import RewriteEngine
        from repro.logic.parser import parse_cq

        pool = SessionPool(lookup_chain_workload(3).schema)
        compiled = pool.session(None).compiled
        raw = RewriteEngine(compiled.linearization().rules, subsumption=False)
        for query in ("L0(x, y)", "L0(x, y), L1(x, z)"):
            parsed = parse_cq(query)
            start = compiled.linearization().initial_instance(parsed)
            holds = any(
                compiled.matcher().has(d.atoms, start)
                for d in raw.rewrite(prime_query(parsed)).disjuncts
            )
            response = pool.process(DecideRequest(query=query))
            assert response.decision == ("yes" if holds else "no")
        assert compiled.rewrite_engine().subsumption is True
        assert compiled.stats["rewrite-engine"] == 1
        assert "subsumption" not in pool.stats()["limits"]

    def test_deciding_counts_every_running_process_call(self, monkeypatch):
        # More threads than cores, switching every microsecond: a lost
        # update to the count would leave it off zero, or let it run
        # past the number of callers.
        pool = SessionPool(university_schema(ud_bound=100))
        callers, rounds = 8, 40
        seen: list[int] = []
        process = Session.resolve

        def watched(session, miss, budget=None):
            seen.append(pool.deciding)
            return process(session, miss, budget)

        start = threading.Barrier(callers)

        def caller(k: int) -> None:
            start.wait(timeout=30)
            for n in range(rounds):
                pool.process(
                    DecideRequest(query=f"Prof(i, n, {k * rounds + n})")
                )

        monkeypatch.setattr(Session, "resolve", watched)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=caller, args=(k,))
                for k in range(callers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert pool.deciding == 0
        assert len(seen) == callers * rounds
        assert all(1 <= count <= callers for count in seen)


class TestStats:
    def test_aggregation_shape_and_counts(self):
        pool = SessionPool(university_schema(ud_bound=100))
        for __ in range(4):
            pool.process(DecideRequest(query="Udirectory(i,a,p)"))
        stats = pool.stats()
        assert stats["counters"]["requests"] == 4
        [entry] = stats["sessions"]
        assert entry["requests"] == 4
        cache = entry["cache"]
        # The one session decides once, then hits its own cache.
        assert cache["misses"] == 1
        assert cache["hits"] == 3
        assert entry["rewrite_engine"]["rewrites"] >= 1
        assert entry["matching"]["checks"] >= 1


def schema_dict(arity: int = 2) -> dict:
    """A tiny schema; distinct ``arity`` -> distinct fingerprint."""
    return {
        "relations": {"L0": arity},
        "methods": [{"name": "dump", "relation": "L0", "inputs": []}],
        "constraints": [],
    }


class TestWarm:
    """`warm()` — manifest-driven precompilation (the fleet's
    ``--warm`` path rides on this)."""

    def test_warm_compiles_and_registers_without_a_request(self):
        pool = SessionPool(None)
        schema = schema_dict()
        fingerprint = pool.warm(schema)
        stats = pool.stats()
        assert stats["counters"]["warmed"] == 1
        assert stats["counters"]["schemas_compiled"] == 1
        assert stats["counters"]["sessions_created"] == 1
        assert stats["counters"]["requests"] == 0
        assert stats["per_fingerprint"] == {}  # warmth is not heat
        assert fingerprint in pool.fingerprints()

    def test_first_request_on_a_warmed_schema_compiles_nothing(self):
        pool = SessionPool(None)
        schema = schema_dict()
        fingerprint = pool.warm(schema)
        response = pool.process(
            DecideRequest(query="L0(x, y)", schema=schema)
        )
        assert response.fingerprint == fingerprint
        stats = pool.stats()
        assert stats["counters"]["schemas_compiled"] == 1  # unchanged
        assert stats["counters"]["text_key_hits"] == 1

    def test_rewarming_is_cheap(self):
        pool = SessionPool(None)
        schema = schema_dict()
        assert pool.warm(schema) == pool.warm(schema)
        stats = pool.stats()
        assert stats["counters"]["warmed"] == 2
        assert stats["counters"]["schemas_compiled"] == 1

    def test_warming_none_is_rejected(self):
        pool = SessionPool(university_schema(ud_bound=100))
        with pytest.raises(ValueError):
            pool.warm(None)


class TestShardHeat:
    """`stats()["per_fingerprint"]` — the bounded per-fingerprint
    hit/request breakdown the fleet dispatcher aggregates as shard
    heat."""

    def test_requests_and_cache_hits_per_fingerprint(self):
        pool = SessionPool(university_schema(ud_bound=100))
        for __ in range(3):
            pool.process(DecideRequest(query="Udirectory(i,a,p)"))
        heat = pool.stats()["per_fingerprint"]
        [(fingerprint, entry)] = heat.items()
        assert entry["requests"] == 3
        assert entry["cache_hits"] == 2  # first decides, rest hit

    def test_hot_fingerprints_sort_last(self):
        pool = SessionPool(university_schema(ud_bound=100))
        chain = schema_dict()
        pool.process(DecideRequest(query="Udirectory(i,a,p)"))
        pool.process(DecideRequest(query="L0(x, y)", schema=chain))
        pool.process(DecideRequest(query="Udirectory(i,a,p)"))
        heat = pool.stats()["per_fingerprint"]
        assert len(heat) == 2
        hottest = list(heat)[-1]
        assert heat[hottest]["requests"] == 2

    def test_heat_survives_fingerprint_eviction(self):
        pool = SessionPool(None, max_fingerprints=1)
        first = schema_dict()
        second = schema_dict(arity=3)
        pool.process(DecideRequest(query="L0(x, y)", schema=first))
        pool.process(
            DecideRequest(query="L0(x, y, z)", schema=second)
        )
        stats = pool.stats()
        assert stats["counters"]["evictions"] == 1
        assert stats["fingerprints"] == 1
        # the evicted shard's heat is still visible
        assert len(stats["per_fingerprint"]) == 2

    def test_heat_table_is_bounded(self):
        pool = SessionPool(None, max_fingerprints=1)
        for arity in range(2, 14):
            query = "L0(" + ", ".join(f"x{i}" for i in range(arity)) + ")"
            pool.process(
                DecideRequest(query=query, schema=schema_dict(arity=arity))
            )
        heat = pool.stats()["per_fingerprint"]
        assert len(heat) == 8  # 8 * max_fingerprints


class TestQueryValidation:
    @pytest.mark.parametrize("op", ["decide", "plan"])
    @pytest.mark.parametrize(
        "query", ["Udirectory(i, a)", "Prof(i, n)", "Nope(x)"]
    )
    def test_misfit_query_raises_on_default_and_inline_schemas(
        self, op, query
    ):
        pool = SessionPool(university_schema(ud_bound=100))
        with pytest.raises(QuerySchemaError):
            pool.process(DecideRequest(query=query, op=op))
        with pytest.raises(QuerySchemaError):
            pool.process(
                DecideRequest(query=query, op=op, schema=UNIVERSITY)
            )

    @pytest.mark.parametrize("op", ["decide", "plan"])
    @pytest.mark.parametrize(
        "query", ["Udirectory(i, a)", "Prof(i, n)", "Nope(x)"]
    )
    def test_misfit_query_raises_on_a_recalled_schema_before_any_cache(
        self, op, query
    ):
        store = ArtifactStore(MemoryKVStore())
        pool = SessionPool(max_fingerprints=1, store=store)
        pool.warm(UNIVERSITY)
        pool.warm(schema_dict())  # evicts UNIVERSITY
        tiers = store.stats()["tiers"]
        with pytest.raises(QuerySchemaError):
            pool.process(
                DecideRequest(query=query, op=op, schema=UNIVERSITY)
            )
        assert pool.stats()["counters"]["fingerprints_recalled"] == 1
        [entry] = pool._entries.values()
        assert entry.session.cache_info()["misses"] == 0
        assert store.stats()["tiers"] == tiers
        assert "schema" not in entry.compiled.stats


def query_text(query) -> str:
    """The parser's text form of a Boolean CQ (constants quoted)."""

    def term(value) -> str:
        if not isinstance(value, Constant):
            return value.name
        if isinstance(value.value, str):
            return f"'{value.value}'"
        return str(value.value)

    return ", ".join(
        f"{atom.relation}({', '.join(term(t) for t in atom.terms)})"
        for atom in query.atoms
    )


#: A few schemas of every generator family the Table 1 routes cover.
RECALL_WORKLOADS = [
    fd_determinacy_workload(1),
    fd_determinacy_workload(3, bound=2, ask_undetermined=True),
    fd_determinacy_workload(5, bound=4),
    uid_fd_workload(1),
    uid_fd_workload(3, with_fd=False, bound=2),
    uid_fd_workload(4, bound=3),
    lookup_chain_workload(1),
    lookup_chain_workload(3, dump_bound=2, query_length=2),
    lookup_chain_workload(4, query_length=4),
    id_chain_workload(1),
    id_chain_workload(4, query_index=2),
    id_chain_workload(8, query_index=5),
    id_width_workload(1),
    id_width_workload(2, bounded=False),
    id_width_workload(3),
    tgd_transfer_workload(1),
    tgd_transfer_workload(3),
]


def recalled(pool: SessionPool, description: dict) -> Session:
    """Route ``description`` once, evict it, and route it again: the
    session of its recalled entry."""
    pool.warm(description)
    pool.warm(schema_dict(arity=7))  # evicts ``description``
    recalled_before = pool.stats()["counters"]["fingerprints_recalled"]
    session = pool.session(description)
    counters = pool.stats()["counters"]
    assert counters["fingerprints_recalled"] == recalled_before + 1
    return session


class TestRecall:
    """A spelling outlives its fingerprint's eviction: the returning
    schema is recalled, and parsed only when a decision misses."""

    @pytest.mark.parametrize(
        "workload", RECALL_WORKLOADS, ids=lambda w: w.name
    )
    def test_recalled_decision_equals_a_freshly_compiled_session(
        self, workload
    ):
        description = schema_to_dict(workload.schema)
        pool = SessionPool(
            max_fingerprints=1, store=ArtifactStore(MemoryKVStore())
        )
        session = recalled(pool, description)
        assert "schema" not in session.compiled.stats
        text = query_text(workload.query)
        got = pool.process(DecideRequest(query=text, schema=description))
        want = Session(compile_schema(workload.schema)).decide(text)
        assert session.compiled.stats["schema"] == 1
        got, want = got.to_dict(), want.to_dict()
        got.pop("elapsed_ms")
        want.pop("elapsed_ms")
        assert got == want
        assert got["decision"] == (
            "yes" if workload.expected_answerable else "no"
        )
        assert pool.stats()["counters"]["schemas_compiled"] == 2

    def test_a_durable_hit_never_parses_the_recalled_schema(self):
        description = schema_to_dict(university_schema(ud_bound=100))
        pool = SessionPool(
            max_fingerprints=1, store=ArtifactStore(MemoryKVStore())
        )
        request = DecideRequest(
            query="Udirectory(i, a, p)", schema=description
        )
        assert pool.process(request).is_yes
        session = recalled(pool, description)
        again = pool.process(request)
        assert again.is_yes and again.cached
        assert session.durable_hits == 1
        assert session.compiled.stats == {}

    def test_concurrent_misses_parse_a_recalled_schema_once(self):
        workload = lookup_chain_workload(4, query_length=1)
        description = schema_to_dict(workload.schema)
        session = recalled(SessionPool(max_fingerprints=1), description)
        start = threading.Barrier(8)
        answers = []

        def decide(index: int) -> None:
            start.wait()
            answers.append(session.decide(f"L{index % 4}(x, y)").decision)

        threads = [
            threading.Thread(target=decide, args=(index,))
            for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert answers == ["yes"] * 8
        assert session.compiled.stats["schema"] == 1

    def test_spelling_map_stays_capped_while_it_outlives_evictions(self):
        pool = SessionPool(max_fingerprints=2)
        for arity in range(1, 10 * pool._max_text_keys + 1):
            pool.session(schema_dict(arity))
            assert len(pool._text_keys) <= pool._max_text_keys
