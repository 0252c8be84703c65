"""Subsumption pruning on the ID route, checked against the raw rewriting.

The ID route decides through `CompiledSchema.rewrite_engine()`, which
drops rewriting disjuncts hom-implied by smaller kept ones before the
canonical-database probes.  The oracle is the raw isomorphism-
deduplicated rewriting of `RewriteEngine(rules, subsumption=False)`
over the same Σ^Lin rules.  Across the paper/generator ID corpus and a
`random_id_workload` sample, for every query:

* every kept disjunct is (up to renaming) a raw one — pruning only
  removes;
* every raw disjunct hom-maps from some kept one, so the union is
  logically unchanged;
* `decide_with_ids` answers exactly as the raw UCQ's probe against the
  saturated canonical database does.

A seeded tier-1 sample runs on every push; the randomized sweep
carries the ``slow`` marker and runs nightly.
"""

import random

import pytest

from repro.answerability.axioms import prime_query
from repro.answerability.deciders import (
    decide_with_ids,
    freeze_free_variables,
)
from repro.containment.decision import Truth
from repro.containment.rewriting import RewriteEngine
from repro.logic.parser import parse_cq
from repro.matching.matcher import Matcher
from repro.service import compile_schema
from repro.workloads import (
    id_chain_workload,
    id_width_workload,
    lookup_chain_workload,
    random_id_workload,
    university_schema,
)

ID_CLASSES = (
    "inclusion dependencies",
    "bounded-width inclusion dependencies",
)


def id_corpus():
    """(schema, queries) pairs that dispatch to the ID route."""
    chain = lookup_chain_workload(3)
    bounded = lookup_chain_workload(3, dump_bound=5)
    id_chain = id_chain_workload(6)
    return [
        (
            university_schema(ud_bound=100),
            ["Udirectory(i, a, p)", "Prof(i, n, 10000)",
             "Prof(i, n, s), Udirectory(i, a, p)"],
        ),
        (chain.schema, ["L0(x, y)", "L0(x, y), L1(x, z)"]),
        (bounded.schema, ["L0(x, y)", "L0(x, y), L2(x, z)"]),
        (id_chain.schema, [f"R{i}(x)" for i in range(7)]),
        (id_width_workload(2).schema,
         ["A(x0, x1), B(x0, x1, z)"]),
    ]


class RawOracle:
    """The unpruned rewriting over one compiled schema's Σ^Lin."""

    def __init__(self, compiled) -> None:
        self.compiled = compiled
        self.engine = RewriteEngine(
            compiled.linearization().rules, subsumption=False
        )
        self.matcher = Matcher()

    def check(self, query) -> None:
        parsed = parse_cq(query) if isinstance(query, str) else query
        if parsed.free_variables:
            parsed, __ = freeze_free_variables(parsed)
        target = prime_query(parsed)
        kept = [
            d.atoms
            for d in self.compiled.rewrite_engine().rewrite(target).disjuncts
        ]
        raw = [d.atoms for d in self.engine.rewrite(target).disjuncts]
        matcher = self.matcher
        for atoms in kept:
            assert any(matcher.is_isomorphic(atoms, r) for r in raw), (
                f"{query!r}: kept disjunct is not a raw one: {atoms}"
            )
        for atoms in raw:
            assert any(matcher.subsumes(k, atoms) for k in kept), (
                f"{query!r}: dropped disjunct not implied: {atoms}"
            )
        start = self.compiled.linearization().initial_instance(parsed)
        raw_holds = any(matcher.has(atoms, start) for atoms in raw)
        decision = decide_with_ids(self.compiled, parsed)
        expected = Truth.YES if raw_holds else Truth.NO
        assert decision.truth is expected, (
            f"{query!r}: decided {decision.truth}, raw UCQ says {expected}"
        )


class TestPrunedAgainstRaw:
    def test_corpus(self):
        for schema, queries in id_corpus():
            oracle = RawOracle(compile_schema(schema))
            for query in queries:
                oracle.check(query)

    def test_random_id_schemas_sample(self):
        checked = 0
        for seed in range(25):
            workload = random_id_workload(seed, bound=None)
            compiled = compile_schema(workload.schema)
            if compiled.constraint_class.value not in ID_CLASSES:
                continue
            RawOracle(compiled).check(workload.query)
            checked += 1
        assert checked > 0

    @pytest.mark.slow
    def test_random_id_schemas_sweep(self):
        rng = random.Random(515)
        checked = 0
        for __ in range(250):
            seed = rng.randrange(100_000)
            workload = random_id_workload(
                seed,
                relations=rng.randint(2, 6),
                ids=rng.randint(1, 7),
                bound=None,
            )
            compiled = compile_schema(workload.schema)
            if compiled.constraint_class.value not in ID_CLASSES:
                continue
            RawOracle(compiled).check(workload.query)
            checked += 1
        assert checked > 50  # the sweep actually exercised the route
