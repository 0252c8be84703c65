"""The incremental `RewriteEngine`: memoization ≡ fresh rewriting.

The engine's contract is that sharing rule indexes, per-atom rewrite
steps, and canonical frontier states across queries changes *nothing*
about any individual rewriting: every output must equal a fresh
`rewrite()` call, deterministically.  The randomized suites generate
linear schemas and query batches and assert exactly that; the unit
tests pin the cache behavior (hits actually happen), the deterministic
emission order, the isomorphism dedup, and the typed budget error.
"""

import random

import pytest

from repro.answerability.axioms import prime_query
from repro.containment import (
    RewriteEngine,
    RewritingBudgetExceeded,
    RewritingError,
    linear_contains,
    rewrite,
)
from repro.answerability.deciders import decide_with_ids
from repro.containment.rewriting import ANSWER, _isomorphic, canonical_state
from repro.constraints.tgd import TGD, tgd
from repro.data.instance import Instance
from repro.logic import Variable, atom, boolean_cq
from repro.logic.atoms import Atom
from repro.logic.terms import Constant
from repro.service import compile_schema
from repro.workloads import (
    id_chain_workload,
    lookup_chain_workload,
    lookup_fanout_workload,
)


def _disjunct_reprs(ucq):
    return [repr(d.atoms) for d in ucq.disjuncts]


# ----------------------------------------------------------------------
# Cache behavior
# ----------------------------------------------------------------------
class TestMemoization:
    def test_distinct_query_batch_reuses_frontier_states(self):
        # The id-chain queries have nested rewriting frontiers: by the
        # time the deepest query runs, every state below it is cached.
        compiled = compile_schema(id_chain_workload(6).schema)
        engine = RewriteEngine(compiled.linearization().rules)
        queries = [
            prime_query(boolean_cq([atom(f"R{i}", "x")], name=f"Q{i}"))
            for i in range(7)
        ]
        for query in queries:
            engine.rewrite(query)
        stats = engine.stats()
        assert stats["rewrites"] == 7
        assert stats["expansions_reused"] > 0
        assert stats["expansions_built"] < stats["states"]

    def test_atom_steps_shared_across_join_queries(self):
        # Join queries over disjoint relations share no frontier states,
        # but every atom pattern (and so every unification) is shared.
        compiled = compile_schema(
            lookup_chain_workload(4, dump_bound=None).schema
        )
        engine = RewriteEngine(compiled.linearization().rules)
        for length in (1, 2, 3):
            engine.rewrite(
                prime_query(
                    boolean_cq(
                        [atom(f"L{i}", "x", f"y{i}") for i in range(length)],
                        name=f"Q{length}",
                    )
                )
            )
        stats = engine.stats()
        assert stats["atom_pattern_hits"] > 0

    def test_repeated_query_served_from_result_memo(self):
        rules = [TGD((atom("S", "x"),), (atom("R", "x"),))]
        engine = RewriteEngine(rules)
        q = boolean_cq([atom("R", "u")])
        first = engine.rewrite(q)
        second = engine.rewrite(q)
        assert _disjunct_reprs(first) == _disjunct_reprs(second)
        assert engine.stats()["result_hits"] == 1

    def test_alpha_variant_hits_the_result_memo(self):
        rules = [TGD((atom("S", "x"),), (atom("R", "x"),))]
        engine = RewriteEngine(rules)
        engine.rewrite(boolean_cq([atom("R", "u"), atom("T", "u", "v")]))
        engine.rewrite(boolean_cq([atom("R", "a"), atom("T", "a", "b")]))
        assert engine.stats()["result_hits"] == 1


class TestExistentialClasses:
    """A backward step may not unify two distinct existential head
    variables: the chase gives them two distinct fresh nulls."""

    @staticmethod
    def steps_for(head, query_atom):
        engine = RewriteEngine([TGD((atom("S", "x"),), (head,))])
        local_of = {
            term: index
            for index, term in enumerate(dict.fromkeys(query_atom.terms))
        }
        return engine._atom_steps(query_atom, frozenset(), local_of)

    def test_two_existentials_in_one_class_give_no_step(self):
        assert self.steps_for(atom("R", "z0", "z1"), atom("R", "u", "u")) == ()

    def test_a_repeated_existential_still_steps(self):
        [step] = self.steps_for(atom("R", "z", "z"), atom("R", "u", "u"))
        assert step is not None

    def test_linear_contains_never_identifies_two_nulls(self):
        source = boolean_cq([atom("S", "a")])
        target = boolean_cq([atom("R", "u", "u")])
        apart = [tgd("S(x) -> R(z0, z1)")]
        together = [tgd("S(x) -> R(z, z)")]
        assert linear_contains(source, target, apart).is_no
        assert linear_contains(source, target, together).is_yes


class TestDeterminism:
    def test_two_engines_emit_identical_output(self):
        compiled = compile_schema(
            lookup_chain_workload(3, dump_bound=None).schema
        )
        rules = compiled.linearization().rules
        query = prime_query(
            boolean_cq(
                [atom("L0", "x", "y0"), atom("L1", "x", "y1")], name="Q"
            )
        )
        left = RewriteEngine(rules).rewrite(query)
        right = RewriteEngine(rules).rewrite(query)
        assert _disjunct_reprs(left) == _disjunct_reprs(right)

    def test_disjuncts_sorted_smallest_first(self):
        rules = [TGD((atom("S", "x"),), (atom("R", "x", "z"),))]
        q = boolean_cq([atom("R", "u", "v"), atom("R", "u", "w")])
        result = rewrite(q, rules)
        sizes = [len(d.atoms) for d in result.disjuncts]
        assert sizes == sorted(sizes)

    def test_no_isomorphic_disjunct_pairs(self):
        compiled = compile_schema(
            lookup_chain_workload(3, dump_bound=None).schema
        )
        query = prime_query(
            boolean_cq(
                [atom("L0", "x", "y0"), atom("L1", "x", "y1")], name="Q"
            )
        )
        result = RewriteEngine(compiled.linearization().rules).rewrite(query)
        states = [d.atoms for d in result.disjuncts]
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                assert not _isomorphic(states[i], states[j])


class TestCanonicalState:
    def test_alpha_equivalent_bodies_share_a_state(self):
        left = canonical_state((atom("R", "x", "y"), atom("S", "y")))
        right = canonical_state((atom("R", "u", "v"), atom("S", "v")))
        assert left == right

    def test_join_shape_distinguishes(self):
        assert canonical_state((atom("R", "x", "x"),)) != canonical_state(
            (atom("R", "x", "y"),)
        )

    def test_duplicates_dropped(self):
        state = canonical_state((atom("R", "x"), atom("R", "x")))
        assert len(state) == 1

    def test_isomorphism_checker(self):
        a = canonical_state((atom("R", "x", "y"), atom("R", "y", "x")))
        b = canonical_state((atom("R", "u", "v"), atom("R", "v", "u")))
        assert _isomorphic(a, b)
        c = canonical_state((atom("R", "x", "y"), atom("R", "y", "z")))
        assert not _isomorphic(a, c)

    def test_isomorphism_backtracks_failed_partial_matches(self):
        # Matching R(x,y) against R(a,a) fails mid-atom; the stale
        # x->a constraint must not block the correct pairing.
        left = (atom("R", "x", "y"), atom("R", "z", "z"))
        right = (atom("R", "a", "a"), atom("R", "b", "c"))
        assert _isomorphic(left, right)


class TestBudget:
    def test_typed_error_with_fields(self):
        compiled = compile_schema(id_chain_workload(4).schema)
        engine = RewriteEngine(compiled.linearization().rules)
        query = prime_query(boolean_cq([atom("R4", "x")], name="Q"))
        with pytest.raises(RewritingBudgetExceeded) as caught:
            engine.rewrite(query, max_disjuncts=2)
        error = caught.value
        assert isinstance(error, RewritingError)  # back-compat handlers
        assert error.max_disjuncts == 2
        assert error.reached > 2
        detail = error.as_detail()
        assert detail["type"] == "RewritingBudgetExceeded"
        assert detail["max_disjuncts"] == 2

    def test_budget_enforced_on_memoized_results(self):
        compiled = compile_schema(id_chain_workload(4).schema)
        engine = RewriteEngine(compiled.linearization().rules)
        query = prime_query(boolean_cq([atom("R4", "x")], name="Q"))
        engine.rewrite(query)  # populate the result memo
        with pytest.raises(RewritingBudgetExceeded):
            engine.rewrite(query, max_disjuncts=2)

    def test_budget_error_identical_cold_and_warm(self):
        # The structured error must not leak cache warmth: a memoized
        # overflow reports the same `reached` as a live one.
        compiled = compile_schema(id_chain_workload(4).schema)
        query = prime_query(boolean_cq([atom("R4", "x")], name="Q"))
        cold = RewriteEngine(compiled.linearization().rules)
        with pytest.raises(RewritingBudgetExceeded) as cold_caught:
            cold.rewrite(query, max_disjuncts=2)
        warm = RewriteEngine(compiled.linearization().rules)
        warm.rewrite(query)
        with pytest.raises(RewritingBudgetExceeded) as warm_caught:
            warm.rewrite(query, max_disjuncts=2)
        assert cold_caught.value.as_detail() == warm_caught.value.as_detail()
        assert cold_caught.value.reached == 3

    @pytest.mark.parametrize("limit", [0, -3])
    def test_budget_below_one_is_a_value_error(self, limit):
        # Not an overflow: a single-state rewriting would otherwise
        # pass live but overflow from the memo.  Rejected the same way
        # at construction and per call, on cold and warm engines alike.
        compiled = compile_schema(id_chain_workload(4).schema)
        rules = compiled.linearization().rules
        query = boolean_cq([atom("R0", "x")], name="Q")
        with pytest.raises(ValueError, match="max_disjuncts") as caught:
            RewriteEngine(rules, max_disjuncts=limit)
        assert not isinstance(caught.value, RewritingError)
        cold = RewriteEngine(rules)
        warm = RewriteEngine(rules)
        assert len(warm.rewrite(query).disjuncts) == 1
        for engine in (cold, warm):
            with pytest.raises(ValueError, match="max_disjuncts") as caught:
                engine.rewrite(query, max_disjuncts=limit)
            assert not isinstance(caught.value, RewritingError)


# ----------------------------------------------------------------------
# Subsumption pruning (optional): drop hom-implied disjuncts
# ----------------------------------------------------------------------
class TestPieces:
    def test_star_join_splits_at_its_rigid_join_variable(self):
        workload = lookup_chain_workload(3)
        engine = compile_schema(workload.schema).rewrite_engine()
        pieces = engine.pieces(prime_query(workload.query))
        assert [len(atoms) for atoms, __ in pieces] == [1, 1, 1]
        assert all(answer == (Variable("x"),) for __, answer in pieces)

    def test_join_variable_at_affected_positions_only_stays_one_piece(self):
        workload = lookup_fanout_workload(3)
        engine = compile_schema(workload.schema).rewrite_engine()
        [(atoms, answer)] = engine.pieces(prime_query(workload.query))
        assert len(atoms) == 3 and answer == ()

    def test_max_disjuncts_caps_each_piece_not_the_product(self):
        # The whole-query UCQ of an exact 3-star has 4^3 disjuncts;
        # each piece has 4, so a cap of 8 now decides it.
        workload = lookup_chain_workload(3)
        compiled = compile_schema(workload.schema)
        with pytest.raises(RewritingBudgetExceeded):
            compiled.rewrite_engine().rewrite(
                prime_query(workload.query), max_disjuncts=8
            )
        decision = decide_with_ids(compiled, workload.query, max_disjuncts=8)
        assert decision.is_yes
        assert decision.detail["pieces"] == 3
        assert decision.detail["disjuncts"] == 12

    def test_factorized_join_variables_shape_the_certificate(self):
        # Under S(x, y) -> exists z. T(x, z), T's second position is
        # affected: the pieces are {T(u, w), T(v, w)} joined with
        # R(u, v) on u and v.  The start instance satisfies the query
        # only with u = v, which the certificate must keep.
        rules = [tgd("S(x, y) -> T(x, z)")]
        engine = RewriteEngine(rules)
        query = boolean_cq(
            [atom("R", "u", "v"), atom("T", "u", "w"), atom("T", "v", "w")]
        )
        assert len(engine.pieces(query)) == 2
        start = Instance(
            [Atom("R", (Constant(1), Constant(1))),
             Atom("S", (Constant(1), Constant(2)))]
        )
        decision = engine.entails(start, query)
        assert decision.is_yes
        certificate = decision.certificate
        relations = sorted(a.relation for a in certificate.atoms)
        assert relations == ["R", "S"]
        [r_atom] = [a for a in certificate.atoms if a.relation == "R"]
        assert r_atom.terms[0] == r_atom.terms[1]
        no_loop = Instance(
            [Atom("R", (Constant(1), Constant(2))),
             Atom("S", (Constant(1), Constant(3))),
             Atom("S", (Constant(2), Constant(3)))]
        )
        assert engine.entails(no_loop, query).is_no

    def test_answer_relation_is_reserved(self):
        x = Variable("x")
        with pytest.raises(RewritingError):
            RewriteEngine([TGD((Atom("S", (x,)),), (Atom(ANSWER, (x,)),))])
        engine = RewriteEngine([tgd("S(x) -> T(x)")])
        with pytest.raises(RewritingError):
            engine.entails(Instance(), boolean_cq([Atom(ANSWER, (x,))]))


class TestSubsumptionPruning:
    def _rules(self):
        return [
            TGD(
                (atom("S", "x"),),
                (atom("R", "x"),),
                "s_to_r",
            )
        ]

    def test_hom_implied_disjuncts_dropped(self):
        # Full rewriting of R(x) ∧ S(y): {S}, {R,S}, {S,S'}; the single-
        # atom {S} hom-maps into both larger disjuncts, so only it
        # survives pruning.
        query = boolean_cq([atom("R", "x"), atom("S", "y")], name="Q")
        plain = RewriteEngine(self._rules()).rewrite(query)
        pruned_engine = RewriteEngine(self._rules(), subsumption=True)
        pruned = pruned_engine.rewrite(query)
        assert len(plain.disjuncts) == 3
        assert len(pruned.disjuncts) == 1
        assert {a.relation for a in pruned.disjuncts[0].atoms} == {"S"}
        stats = pruned_engine.stats()
        assert stats["disjuncts_subsumed"] == 2
        assert stats["subsumption_checks"] >= 2

    def test_off_by_default(self):
        query = boolean_cq([atom("R", "x"), atom("S", "y")], name="Q")
        engine = RewriteEngine(self._rules())
        assert engine.subsumption is False
        assert engine.stats()["disjuncts_subsumed"] == 0
        assert len(engine.rewrite(query).disjuncts) == 3

    def test_free_function_option(self):
        query = boolean_cq([atom("R", "x"), atom("S", "y")], name="Q")
        assert len(rewrite(query, self._rules()).disjuncts) == 3
        assert (
            len(
                rewrite(
                    query, self._rules(), subsumption=True
                ).disjuncts
            )
            == 1
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_pruned_output_is_hom_covered_subset(self, seed):
        """Every dropped disjunct is hom-implied by a kept smaller one
        (so the pruned UCQ is logically equivalent to the full one)."""
        from repro.matching import default_matcher

        rng = random.Random(seed)
        rules = _random_linear_rules(rng, 4)
        plain = RewriteEngine(rules)
        pruned = RewriteEngine(rules, subsumption=True)
        matcher = default_matcher()
        for index in range(5):
            query = _random_query(rng, f"q{seed}_{index}")
            full = [d.atoms for d in plain.rewrite(query).disjuncts]
            kept = [d.atoms for d in pruned.rewrite(query).disjuncts]
            kept_reprs = {repr(k) for k in kept}
            assert kept_reprs <= {repr(d) for d in full}
            for disjunct in full:
                if repr(disjunct) in kept_reprs:
                    continue
                assert any(
                    len(k) <= len(disjunct)
                    and matcher.subsumes(k, disjunct)
                    for k in kept
                ), f"dropped disjunct not covered: {disjunct}"


# ----------------------------------------------------------------------
# Randomized equivalence: memoized engine ≡ fresh rewrite()
# ----------------------------------------------------------------------
_RELATIONS = [("R", 2), ("S", 1), ("T", 2), ("U", 3)]


def _random_atom(rng, variables, *, allow_constants=True):
    name, arity = rng.choice(_RELATIONS)
    terms = []
    for __ in range(arity):
        if allow_constants and rng.random() < 0.15:
            terms.append(Constant(rng.randint(0, 2)))
        else:
            terms.append(rng.choice(variables))
    return Atom(name, tuple(terms))


def _random_linear_rules(rng, count):
    rules = []
    for index in range(count):
        body_vars = [Variable(f"b{index}_{i}") for i in range(3)]
        body = _random_atom(rng, body_vars, allow_constants=False)
        head_pool = list(body.variables()) + [
            Variable(f"e{index}_{i}") for i in range(2)
        ]
        head = _random_atom(rng, head_pool, allow_constants=False)
        rules.append(TGD((body,), (head,), f"rule{index}"))
    return rules


def _random_query(rng, name):
    variables = [Variable(v) for v in ("x", "y", "z")]
    atoms = tuple(
        _random_atom(rng, variables) for __ in range(rng.randint(1, 3))
    )
    return boolean_cq(atoms, name=name)


def _check_batch(seed: int, rule_count: int, batch: int) -> None:
    rng = random.Random(seed)
    rules = _random_linear_rules(rng, rule_count)
    engine = RewriteEngine(rules)
    for index in range(batch):
        query = _random_query(rng, f"q{seed}_{index}")
        fresh = rewrite(query, rules)
        memoized = engine.rewrite(query)
        assert _disjunct_reprs(fresh) == _disjunct_reprs(memoized), (
            f"seed={seed} query={query}: memoized engine diverged from "
            "fresh rewriting"
        )


@pytest.mark.parametrize("seed", range(8))
def test_random_linear_schemas_memoized_equals_fresh(seed):
    _check_batch(seed, rule_count=4, batch=6)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(60))
def test_random_linear_schemas_memoized_equals_fresh_sweep(seed):
    _check_batch(seed, rule_count=6, batch=12)
