"""The piece-wise ID route, checked against the raw whole-query rewriting.

`decide_with_ids` decides through `RewriteEngine.entails`: the primed
query is split into pieces at its rigid variables, each piece is
rewritten with its join variables held by the reserved answer atom,
and the piece answers are joined over the saturated canonical database.
The oracle is the whole-query UCQ of ``RewriteEngine(rules,
subsumption=False)`` probed over the same start instance.  For every
query:

* the decision equals the oracle's;
* a YES certificate holds on the start instance, and its canonical
  database satisfies some raw disjunct (it entails the target).

Families: `random_id_workload` schemas (arity 2 and 3; bounds 1, 5 and
None), random CQs with repeated variables and constants over random ID
schemas, and `lookup_chain_workload` star joins with k = 2..5 under a
bounded and an exact dump.  Each sample must contain multi-piece
queries, or the join is never exercised.  A seeded tier-1 sample runs
on every push; the randomized sweep carries the ``slow`` marker.
"""

import random

import pytest

from repro.answerability.axioms import prime_query
from repro.answerability.deciders import decide_with_ids
from repro.containment.rewriting import RewriteEngine
from repro.logic.atoms import Atom
from repro.logic.queries import boolean_cq
from repro.logic.terms import Constant, Variable
from repro.matching.matcher import Matcher
from repro.service import compile_schema
from repro.workloads import lookup_chain_workload, random_id_workload

ID_CLASSES = (
    "inclusion dependencies",
    "bounded-width inclusion dependencies",
)

#: The oracle's disjunct budget: far above anything these families
#: produce, so the oracle never gives up.
ORACLE_DISJUNCTS = 20_000


class Differential:
    """Checks queries against the raw oracle and counts what it saw."""

    def __init__(self) -> None:
        self.matcher = Matcher()
        self.checked = 0
        self.multi_piece = 0
        self.yes = 0

    def check(self, compiled, query) -> None:
        if compiled.constraint_class.value not in ID_CLASSES:
            return
        system = compiled.linearization()
        target = prime_query(query)
        start = system.initial_instance(query)
        raw = RewriteEngine(system.rules, subsumption=False).rewrite(
            target, max_disjuncts=ORACLE_DISJUNCTS
        )
        matcher = self.matcher
        expected = any(matcher.has(d.atoms, start) for d in raw.disjuncts)
        decision = decide_with_ids(compiled, query)
        assert not decision.is_unknown, (query, decision)
        assert decision.is_yes == expected, (
            f"{query!r}: piece-wise {decision.truth}, raw UCQ says "
            f"{'yes' if expected else 'no'}"
        )
        pieces = compiled.rewrite_engine().pieces(target)
        assert decision.detail["pieces"] == len(pieces)
        if decision.is_yes:
            certificate = decision.certificate
            assert matcher.has(certificate.atoms, start), certificate
            canonical, __ = certificate.canonical_instance()
            assert any(
                matcher.has(d.atoms, canonical) for d in raw.disjuncts
            ), f"{query!r}: certificate does not entail the target"
            self.yes += 1
        self.checked += 1
        self.multi_piece += len(pieces) > 1


def random_query(rng: random.Random, schema, arity: int):
    """A CQ of 1-4 atoms over a small variable pool plus two constants,
    so variables repeat within and across atoms."""
    names = list(schema.arities())
    pool = [Variable(f"v{i}") for i in range(rng.randint(1, 4))]
    pool += [Constant("a"), Constant("b")]
    atoms = [
        Atom(
            rng.choice(names),
            tuple(rng.choice(pool) for __ in range(arity)),
        )
        for __ in range(rng.randint(1, 4))
    ]
    return boolean_cq(atoms, name="Qrandom")


def run_random_workloads(seeds) -> Differential:
    differential = Differential()
    for seed in seeds:
        for arity in (2, 3):
            for bound in (1, 5, None):
                workload = random_id_workload(
                    seed, arity=arity, bound=bound
                )
                differential.check(
                    compile_schema(workload.schema), workload.query
                )
    return differential


def run_random_queries(seeds, rng: random.Random) -> Differential:
    differential = Differential()
    for seed in seeds:
        arity = rng.choice((1, 2, 3))
        workload = random_id_workload(
            seed,
            arity=arity,
            bound=rng.choice((1, 5, None)),
            relations=rng.randint(2, 5),
            ids=rng.randint(1, 7),
        )
        differential.check(
            compile_schema(workload.schema),
            random_query(rng, workload.schema, arity),
        )
    return differential


class TestPiecewiseAgainstRaw:
    def test_random_id_workloads_sample(self):
        differential = run_random_workloads(range(25))
        assert differential.checked > 30
        assert differential.multi_piece > 0
        assert 0 < differential.yes < differential.checked

    def test_random_queries_sample(self):
        differential = run_random_queries(range(120), random.Random(11))
        assert differential.checked > 60
        assert differential.multi_piece > 0
        assert 0 < differential.yes < differential.checked

    @pytest.mark.parametrize("bound", [None, 5])
    def test_star_joins(self, bound):
        differential = Differential()
        for k in range(2, 6):
            workload = lookup_chain_workload(k, dump_bound=bound)
            differential.check(
                compile_schema(workload.schema), workload.query
            )
            assert (
                differential.yes == differential.checked
                if bound is None
                else differential.yes == 0
            )
        assert differential.multi_piece == 4

    @pytest.mark.slow
    def test_random_id_workloads_sweep(self):
        differential = run_random_workloads(range(25, 225))
        assert differential.multi_piece > 50

    @pytest.mark.slow
    def test_random_queries_sweep(self):
        differential = run_random_queries(range(1000), random.Random(515))
        assert differential.multi_piece > 250
