"""Sessions: caching, limits, batch agreement with the free functions."""

from dataclasses import replace

import pytest

from repro.answerability import decide_monotone_answerability
from repro.logic.atoms import atom
from repro.logic.parser import parse_cq
from repro.logic.queries import boolean_cq
from repro.service import (
    QuerySchemaError,
    Session,
    canonical_query_key,
    compile_schema,
)
from repro.workloads import (
    example_6_1_schema,
    fd_determinacy_workload,
    id_width_workload,
    lookup_chain_workload,
    query_example_6_1,
    query_q1_boolean,
    query_q2,
    query_q3_boolean,
    tgd_transfer_workload,
    uid_fd_workload,
    university_schema,
)

#: One workload per Table-1 row family (schema, queries to decide).
TABLE1_CASES = [
    ("fds", fd_determinacy_workload(3)),
    ("fds-undet", fd_determinacy_workload(3, ask_undetermined=True)),
    ("ids", lookup_chain_workload(3, dump_bound=None)),
    ("ids-bounded", lookup_chain_workload(3, dump_bound=5)),
    ("bounded-width", id_width_workload(2)),
    ("uids-fds", uid_fd_workload(3)),
    ("uids-nofd", uid_fd_workload(3, with_fd=False)),
    ("tgds", tgd_transfer_workload(3)),
]


class TestCanonicalKey:
    def test_alpha_equivalent_queries_share_keys(self):
        q1 = boolean_cq([atom("R", "x", "y"), atom("S", "y")], name="A")
        q2 = boolean_cq([atom("R", "u", "v"), atom("S", "v")], name="B")
        assert canonical_query_key(q1) == canonical_query_key(q2)

    def test_different_join_shapes_differ(self):
        q1 = boolean_cq([atom("R", "x", "x")])
        q2 = boolean_cq([atom("R", "x", "y")])
        assert canonical_query_key(q1) != canonical_query_key(q2)

    def test_free_variables_distinguish(self):
        x = atom("R", "x", "y")
        boolean = boolean_cq([x])
        from repro.logic.queries import cq
        from repro.logic.terms import Variable

        non_boolean = cq([x], free=[Variable("x")])
        assert canonical_query_key(boolean) != canonical_query_key(
            non_boolean
        )


class TestDecide:
    def test_matches_legacy_on_university(self):
        schema = university_schema(ud_bound=100, with_ud2=True, with_fd=True)
        session = Session(schema)
        for query in (query_q1_boolean(), query_q2(), query_q3_boolean()):
            legacy = decide_monotone_answerability(schema, query)
            assert session.decide(query).decision == legacy.truth.value

    @pytest.mark.parametrize(
        "label,workload", TABLE1_CASES, ids=[c[0] for c in TABLE1_CASES]
    )
    def test_decide_many_agrees_with_legacy(self, label, workload):
        session = Session(compile_schema(workload.schema))
        responses = session.decide_many([workload.query] * 2)
        legacy = decide_monotone_answerability(
            workload.schema, workload.query
        )
        for response in responses:
            assert response.decision == legacy.truth.value
        if workload.expected_answerable is not None:
            assert responses[0].is_yes == workload.expected_answerable

    def test_accepts_query_text(self):
        session = Session(university_schema(ud_bound=100))
        assert session.decide("Udirectory(i, a, p)").is_yes

    def test_response_is_wire_ready(self):
        import json

        session = Session(university_schema(ud_bound=100))
        payload = session.decide(query_q2()).to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["decision"] == "yes"
        assert payload["fingerprint"] == session.fingerprint


class TestCache:
    def test_repeat_hits_cache(self):
        session = Session(university_schema(ud_bound=100))
        first = session.decide(query_q2())
        second = session.decide(query_q2())
        assert not first.cached
        assert second.cached
        assert second.decision == first.decision
        assert session.cache_info()["hits"] == 1

    def test_alpha_variant_hits_cache(self):
        session = Session(university_schema(ud_bound=100))
        session.decide("Udirectory(i, a, p)")
        response = session.decide("Udirectory(x, y, z)")
        assert response.cached

    def test_eviction_respects_capacity(self):
        session = Session(
            university_schema(ud_bound=100), cache_size=1
        )
        session.decide(query_q2())
        session.decide(query_q1_boolean())  # evicts q2
        assert session.cache_info()["size"] == 1
        assert not session.decide(query_q2()).cached

    def test_zero_capacity_disables_caching(self):
        session = Session(university_schema(ud_bound=100), cache_size=0)
        session.decide(query_q2())
        assert not session.decide(query_q2()).cached

    def test_caller_mutation_cannot_poison_the_cache(self):
        session = Session(university_schema(ud_bound=100))
        first = session.decide(query_q2())
        first.id = "request-1"
        first.detail["annotation"] = "mine"
        second = session.decide(query_q2())
        assert second.id is None
        assert "annotation" not in second.detail
        second.detail["annotation"] = "other"
        assert "annotation" not in session.decide(query_q2()).detail

    def test_mutating_a_served_hit_cannot_change_the_next_hit(self):
        session = Session(university_schema(ud_bound=100))
        session.decide(query_q2())
        hit = session.decide(query_q2())
        assert hit.cached
        expected = hit.to_dict()
        hit.query = "changed"
        hit.decision = "no"
        hit.detail.clear()
        hit.detail["annotation"] = "mine"
        again = session.decide(query_q2())
        assert again is not hit
        assert {**again.to_dict(), "elapsed_ms": None} == {
            **expected,
            "elapsed_ms": None,
        }
        # The cache entry's nested values are shared with hits, so
        # they are read-only rather than copied.
        entry = next(iter(session._cache.values()))[0]
        with pytest.raises(TypeError):
            entry.detail["annotation"] = "mine"

    def test_a_miss_and_its_hit_differ_only_in_cached_and_elapsed(
        self, monkeypatch
    ):
        session = Session(university_schema(ud_bound=100))
        decide_result = session._decide_result

        def with_nested_detail(*args, **kwargs):
            result = decide_result(*args, **kwargs)
            result.decision.detail["trail"] = [["a", {"b": [1]}]]
            return result

        monkeypatch.setattr(session, "_decide_result", with_nested_detail)
        miss = session.decide(query_q2())
        hit = session.decide(query_q2())
        assert (miss.cached, hit.cached) == (False, True)
        assert replace(miss, cached=True, elapsed_ms=0.0) == replace(
            hit, elapsed_ms=0.0
        )
        assert miss.to_dict()["detail"]["trail"] == [["a", {"b": [1]}]]

    def test_clear_cache(self):
        session = Session(university_schema(ud_bound=100))
        session.decide(query_q2())
        session.clear_cache()
        assert session.cache_info()["size"] == 0


class TestLimitsAndExplain:
    def test_max_rounds_limits_semidecidable_routes(self):
        # Example 6.1 decides YES via the choice-simplification chase in
        # a few rounds; max_rounds=1 must stop short with UNKNOWN.
        schema = example_6_1_schema()
        strict = Session(schema, max_rounds=1)
        relaxed = Session(schema)
        assert strict.decide(query_example_6_1()).is_unknown
        assert relaxed.decide(query_example_6_1()).is_yes

    def test_max_facts_is_threaded(self):
        schema = example_6_1_schema()
        strict = Session(schema, max_facts=2)
        assert strict.decide(query_example_6_1()).is_unknown

    def test_there_is_no_subsumption_switch(self):
        # The ID route always prunes; the limits report no such key.
        with pytest.raises(TypeError):
            Session(university_schema(ud_bound=100), subsumption=False)
        report = Session(university_schema(ud_bound=100)).explain(query_q2())
        assert "subsumption" not in report["limits"]

    def test_explain_reports_diagnostics(self):
        session = Session(university_schema(ud_bound=100), max_rounds=7)
        report = session.explain(query_q2())
        assert report["decision"] == "yes"
        assert report["limits"]["max_rounds"] == 7
        assert report["compile_stats"].get("linearization") == 1
        assert report["cache"]["misses"] >= 1

    def test_explain_reports_rewrite_engine_stats(self):
        # The ID route decides through the compiled schema's engine, so
        # explain must surface its cache counters.
        session = Session(university_schema(ud_bound=100))
        report = session.explain(query_q2())
        assert report["rewrite_engine"]["rewrites"] >= 1
        assert report["limits"]["max_disjuncts"] > 0

    def test_stats_shows_cross_query_engine_reuse(self):
        from repro.workloads import id_chain_workload

        session = Session(id_chain_workload(5).schema)
        for i in range(6):
            assert session.decide(f"R{i}(x)").is_yes
        engine = session.stats()["rewrite_engine"]
        assert engine["rewrites"] == 6
        assert engine["expansions_reused"] > 0

    def test_stats_shows_matcher_cache_traffic(self):
        # The ID route probes every rewriting disjunct through the
        # compiled schema's matcher; a batch of queries must show plan
        # reuse in the session stats.
        from repro.workloads import id_chain_workload

        session = Session(id_chain_workload(5).schema)
        for i in range(6):
            assert session.decide(f"R{i}(x)").is_yes
        matching = session.stats()["matching"]
        assert matching["strategy"] == "planned"
        assert matching["plans_compiled"] >= 1
        assert matching["plan_hits"] > 0
        assert session.explain("R0(x)")["matching"]["plan_hits"] > 0

    def test_rewriting_budget_surfaces_structured_error(self):
        from repro.workloads import id_chain_workload

        session = Session(id_chain_workload(4).schema, max_disjuncts=2)
        response = session.decide("R4(x)")
        assert response.is_unknown
        assert response.error["type"] == "RewritingBudgetExceeded"
        assert response.error["max_disjuncts"] == 2
        payload = response.to_dict()
        assert payload["error"]["type"] == "RewritingBudgetExceeded"
        # Promoted to the top level exactly once, not repeated in detail.
        assert "error" not in payload.get("detail", {})
        from repro.io import DecideResponse

        assert DecideResponse.from_dict(payload).error == payload["error"]

    def test_budget_failures_are_not_cached_as_decisions(self):
        # A request that failed under tight limits must not
        # short-circuit a later request with looser limits: structured
        # budget errors bypass the decision LRU entirely.
        from repro.workloads import id_chain_workload

        session = Session(id_chain_workload(4).schema, max_disjuncts=2)
        first = session.decide("R4(x)")
        assert first.is_unknown
        assert first.error["type"] == "RewritingBudgetExceeded"
        first.error["note"] = "mine"  # callers can't poison anything
        second = session.decide("R4(x)")
        assert not second.cached
        assert "note" not in second.error
        # Loosening the limits now succeeds instead of replaying the
        # stale budget failure from the cache.
        session.max_disjuncts = 50_000
        third = session.decide("R4(x)")
        assert not third.cached
        assert third.is_yes
        # ... and the successful decision *is* cached.
        assert session.decide("R4(x)").cached

    def test_plan_threads_the_rewriting_budget(self):
        # The ID-route plan gate must run under the session's budget,
        # not the module default (a starved gate degrades to the chase
        # route instead of spending the full 50k-disjunct allowance).
        from repro.answerability.plangen import generate_static_plan
        from repro.workloads import lookup_chain_workload

        workload = lookup_chain_workload(2, dump_bound=None)
        assert (
            generate_static_plan(
                workload.schema, workload.query, max_disjuncts=50_000
            )
            is not None
        )
        session = Session(workload.schema, max_disjuncts=1)
        assert session.plan(workload.query).answerable


class TestPlan:
    def test_plan_for_answerable_query(self):
        session = Session(university_schema(ud_bound=100))
        response = session.plan(query_q2())
        assert response.answerable
        assert "<= ud <=" in response.plan
        assert session.plan(query_q2()).cached

    def test_plan_refused_for_unanswerable_query(self):
        session = Session(university_schema(ud_bound=100))
        response = session.plan(query_q1_boolean())
        assert not response.answerable
        assert response.plan is None

    def test_plan_honors_session_limits(self):
        # The Example 6.1 certificate needs several chase rounds; a
        # one-round session must refuse where the default extracts.
        schema = example_6_1_schema()
        assert Session(schema).plan(query_example_6_1()).answerable
        strict = Session(schema, max_rounds=1)
        assert not strict.plan(query_example_6_1()).answerable

    def test_plan_refused_for_non_boolean_query(self):
        from repro.workloads import query_q1

        session = Session(university_schema(ud_bound=100))
        response = session.plan(query_q1())
        assert not response.answerable
        assert "Boolean" in response.reason


class TestFinite:
    def test_finite_variant_cached_separately(self):
        schema = university_schema(ud_bound=100)
        session = Session(schema)
        unrestricted = session.decide(query_q2())
        finite = session.decide(query_q2(), finite=True)
        assert unrestricted.decision == finite.decision
        # Distinct cache keys: the second finite call is the hit.
        assert not finite.cached
        assert session.decide(query_q2(), finite=True).cached


#: Queries over `university_schema` (Udirectory/3, Prof/3) that do not
#: fit it: wrong arities and an undeclared relation.
MISFITS = [
    "Udirectory(i, a)",
    "Udirectory(i, a, p, q)",
    "Prof(i, n)",
    "Nope(x)",
    "Udirectory(i, a, p), Prof(i, n)",
]


class TestQueryValidation:
    @pytest.mark.parametrize("query", MISFITS)
    @pytest.mark.parametrize("op", ["decide", "plan"])
    def test_misfit_query_raises_a_typed_error(self, op, query):
        session = Session(university_schema(ud_bound=100))
        with pytest.raises(QuerySchemaError):
            getattr(session, op)(query)
        # Rejected before any cache lookup: nothing counted, nothing kept.
        assert session.cache_info()["misses"] == 0
        assert session.cache_info()["size"] == 0

    def test_parsed_queries_are_checked_too(self):
        session = Session(university_schema(ud_bound=100))
        with pytest.raises(QuerySchemaError, match="arity 3"):
            session.decide(boolean_cq([atom("Prof", "i", "n")]))

    def test_checked_before_the_durable_tier(self):
        from repro.cache import ArtifactStore, MemoryKVStore

        store = ArtifactStore(MemoryKVStore())
        session = Session(university_schema(ud_bound=100), store=store)
        with pytest.raises(QuerySchemaError):
            session.decide("Nope(x)")
        assert "decision" not in store.stats()["tiers"]


class TestDurableAddresses:
    """Durable-store addresses are pinned byte for byte, so a cache
    directory written by an earlier build keeps serving hits."""

    def test_decision_keys_are_stable(self):
        session = Session(university_schema(ud_bound=100))
        canon = canonical_query_key(parse_cq("Udirectory(i, a, p)"))
        fingerprint = (
            "9829492cf9f71e45223296e510783bf5bc70a212b324211b30c18bc6529a9ece"
        )
        assert canon == "Udirectory(?0,?1,?2)|"
        assert session.compiled.fingerprint == fingerprint
        assert session._durable_key("decide", canon) == (
            "d97cb77595ec2e17576056050430709a5c23724c0740a5b599ed4b1a9cebdbf5"
        )
        assert session._durable_key("decide", canon, True) == (
            "99a923d4e9fbf3e6aa46f64d63c2f50a733c9bb7f6003ef15b953559fa603319"
        )
        assert session._durable_key("plan", canon) == (
            "f3923247d9be0f52208c7c1628131f2b57e14ddd2a31963b1cd95dd032791d2b"
        )
