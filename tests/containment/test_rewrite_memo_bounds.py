"""The `RewriteEngine` memos are bounded LRU tables.

Distinct-query traffic must not grow an engine without bound: the
canonical-state expansion memo and the whole-result memo are capped at
`MAX_CACHED_STATES` / `MAX_CACHED_RESULTS`.  Eviction may cost
recomputation but never changes an answer: output at a tiny cap (so
entries are evicted in the middle of a rewrite) equals fresh output, and
a rewrite that overflows its disjunct budget leaves at most the cap
behind.
"""

import gc
import itertools
import random
import tracemalloc

import pytest

from repro.answerability.axioms import prime_query
from repro.containment import RewriteEngine, RewritingBudgetExceeded
from repro.containment import rewriting
from repro.logic import atom, boolean_cq
from repro.matching import Matcher
from repro.service import Session, compile_schema
from repro.workloads import (
    id_chain_workload,
    lookup_chain_workload,
    university_schema,
)

from test_rewrite_engine import _random_linear_rules, _random_query


def _reprs(ucq):
    return [repr(d.atoms) for d in ucq.disjuncts]


def _lookup_joins(lookups: int, size: int):
    """Distinct primed lookup joins: every ``size``-subset of L0..Ln-1
    joined on a shared key (no two share a canonical form)."""
    return [
        prime_query(
            boolean_cq(
                [atom(f"L{i}", "x", f"y{i}") for i in subset], name="Q"
            )
        )
        for subset in itertools.combinations(range(lookups), size)
    ]


def _lookup_rules(lookups: int):
    schema = lookup_chain_workload(lookups, dump_bound=None).schema
    return compile_schema(schema).linearization().rules


def _caps(monkeypatch, states: int, results: int) -> None:
    monkeypatch.setattr(rewriting, "MAX_CACHED_STATES", states)
    monkeypatch.setattr(rewriting, "MAX_CACHED_RESULTS", results)


class TestSoak:
    def test_traced_memory_is_flat_over_a_distinct_stream(
        self, monkeypatch
    ):
        _caps(monkeypatch, states=64, results=4)
        queries = _lookup_joins(8, 3)
        engine = RewriteEngine(_lookup_rules(8), matcher=Matcher())
        half = len(queries) // 2
        for query in queries[:half]:
            engine.rewrite(query)
        # Traced from the midpoint on: what the second half leaves
        # alive.  With unbounded memos this grows by ~80 KB a query.
        gc.collect()
        tracemalloc.start()
        try:
            samples = []
            for index, query in enumerate(queries[half:]):
                engine.rewrite(query)
                if index % 7 == 6:
                    gc.collect()
                    samples.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        settled = samples[len(samples) // 2:]
        assert max(settled) - settled[0] < 64 * 1024, samples
        stats = engine.stats()
        assert stats["cached_states"] <= 64
        assert stats["cached_results"] <= 4
        assert stats["state_evictions"] > 0
        assert stats["result_evictions"] > 0


class TestEvictionNeverChangesOutput:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_linear_schemas_at_a_tiny_cap(self, monkeypatch, seed):
        rng = random.Random(seed)
        rules = _random_linear_rules(rng, 4)
        queries = [_random_query(rng, f"q{seed}_{i}") for i in range(6)]
        fresh = [_reprs(RewriteEngine(rules).rewrite(q)) for q in queries]
        _caps(monkeypatch, states=8, results=2)
        engine = RewriteEngine(rules)
        # Twice through: the second pass runs on evicted results.
        for __ in range(2):
            for query, expected in zip(queries, fresh):
                assert _reprs(engine.rewrite(query)) == expected
        assert engine.stats()["cached_states"] <= 8
        assert engine.stats()["cached_results"] <= 2

    def test_lookup_joins_evict_mid_rewrite(self, monkeypatch):
        rules = _lookup_rules(4)
        queries = _lookup_joins(4, 2) + _lookup_joins(4, 3)
        fresh = [_reprs(RewriteEngine(rules).rewrite(q)) for q in queries]
        _caps(monkeypatch, states=8, results=2)
        engine = RewriteEngine(rules)
        for query, expected in zip(queries + queries, fresh + fresh):
            assert _reprs(engine.rewrite(query)) == expected
        stats = engine.stats()
        # Each frontier is larger than the cap, so eviction happened
        # inside single rewrites, and the replay missed the result memo.
        assert min(len(f) for f in fresh) > 8
        assert stats["state_evictions"] > 0
        assert stats["result_evictions"] >= len(queries)
        assert stats["result_hits"] == 0


class TestBudgetOverflow:
    def test_overflowing_rewrite_leaves_at_most_the_cap(self, monkeypatch):
        _caps(monkeypatch, states=16, results=4)
        engine = RewriteEngine(_lookup_rules(8))
        [query] = _lookup_joins(8, 8)
        with pytest.raises(RewritingBudgetExceeded):
            engine.rewrite(query, max_disjuncts=200)
        stats = engine.stats()
        assert stats["cached_states"] <= 16
        assert stats["state_evictions"] > 0
        assert stats["cached_results"] == 0


class TestDefaultCaps:
    def test_id_chain_reuse_fits_the_default_caps(self):
        # The BENCH_rewriting id-chain-32 batch: every state built once
        # and reused afterwards; nothing is evicted at the defaults.
        compiled = compile_schema(id_chain_workload(32).schema)
        engine = RewriteEngine(compiled.linearization().rules)
        for i in range(33):
            engine.rewrite(
                prime_query(boolean_cq([atom(f"R{i}", "x")], name="Q"))
            )
        stats = engine.stats()
        assert stats["expansions_built"] == 99
        assert stats["expansions_reused"] == 1584
        assert stats["state_evictions"] == 0
        assert stats["result_evictions"] == 0

    def test_eviction_counters_reach_session_stats(self):
        session = Session(university_schema(ud_bound=100))
        session.decide("Udirectory(i, a, p)")
        engine = session.stats()["rewrite_engine"]
        assert engine["state_evictions"] == 0
        assert engine["result_evictions"] == 0
