"""Unit tests for the compiled matching core (`repro.matching`)."""

from repro.data import Instance
from repro.logic import Atom, Constant, Null, Variable, atom
from repro.matching import Matcher, NaiveMatcher, freeze_atoms


def _ground(relation, *values):
    return Atom(relation, tuple(Constant(v) for v in values))


class TestPlanCache:
    def test_same_shape_hits_one_plan(self):
        matcher = Matcher()
        inst = Instance([_ground("R", 1, 2), _ground("R", 2, 3)])
        body = (atom("R", "x", "y"), atom("R", "y", "z"))
        assert matcher.find(body, inst) is not None
        assert matcher.find(body, inst) is not None
        stats = matcher.stats()
        assert stats["plans_compiled"] == 1
        assert stats["plan_hits"] == 1

    def test_structurally_equal_atoms_share_a_plan(self):
        matcher = Matcher()
        inst = Instance([_ground("R", 1, 2)])
        matcher.find((atom("R", "x", "y"),), inst)
        # A distinct tuple object spelling the same atoms.
        matcher.find((atom("R", "x", "y"),), inst)
        assert matcher.stats()["plans_compiled"] == 1

    def test_seed_shape_gets_its_own_plan(self):
        matcher = Matcher()
        inst = Instance([_ground("R", 1, 2)])
        body = (atom("R", "x", "y"),)
        x = Variable("x")
        matcher.find(body, inst)
        matcher.find(body, inst, seed={x: Constant(1)})
        assert matcher.stats()["plans_compiled"] == 2

    def test_lru_eviction(self):
        matcher = Matcher(plan_cache_size=2)
        inst = Instance([_ground("R", 1, 2)])
        for name in ("A", "B", "C"):
            matcher.find((atom(name, "x"),), inst)
        stats = matcher.stats()
        assert stats["plans_compiled"] == 3
        assert stats["plan_evictions"] == 1
        assert stats["plans_cached"] == 2


class TestEnumeration:
    def test_matches_naive_on_a_join(self):
        inst = Instance(
            [_ground("R", 1, 2), _ground("R", 2, 3), _ground("R", 3, 1)]
        )
        body = (atom("R", "x", "y"), atom("R", "y", "z"))
        planned = Matcher()
        naive = NaiveMatcher()
        as_set = lambda hs: {frozenset(h.items()) for h in hs}
        assert as_set(planned.homomorphisms(body, inst)) == as_set(
            naive.homomorphisms(body, inst)
        )

    def test_empty_atom_list_yields_seed(self):
        matcher = Matcher()
        x = Variable("x")
        seed = {x: Constant(7)}
        results = list(matcher.homomorphisms((), Instance(), seed=seed))
        assert results == [seed]
        assert matcher.has((), Instance())

    def test_rigid_vs_flexible_nulls(self):
        matcher = Matcher()
        inst = Instance([Atom("R", (Constant(1),))])
        null_atom = (Atom("R", (Null("n"),)),)
        assert not matcher.has(null_atom, inst)
        assert matcher.has(null_atom, inst, flexible_nulls=True)

    def test_repeated_variable(self):
        matcher = Matcher()
        inst = Instance([_ground("R", 1, 2)])
        assert matcher.find((atom("R", "x", "x"),), inst) is None
        inst.add(_ground("R", 5, 5))
        found = matcher.find((atom("R", "x", "x"),), inst)
        assert found == {Variable("x"): Constant(5)}


class TestCheckCache:
    def _setup(self):
        matcher = Matcher()
        inst = Instance([_ground("E", 1, 2)])
        # Existential shape: x seeded, y free — not a ground probe, so
        # the result goes through the generation-checked cache.
        head = (atom("E", "x", "y"),)
        seed = {Variable("x"): Constant(1)}
        return matcher, inst, head, seed

    def test_hit_while_untouched(self):
        matcher, inst, head, seed = self._setup()
        assert matcher.has(head, inst, seed=seed)
        assert matcher.has(head, inst, seed=seed)
        stats = matcher.stats()
        assert stats["check_misses"] == 1
        assert stats["check_hits"] == 1

    def test_invalidated_by_relevant_add(self):
        matcher, inst, head, seed = self._setup()
        seed2 = {Variable("x"): Constant(9)}
        assert not matcher.has(head, inst, seed=seed2)
        inst.add(_ground("E", 9, 1))
        assert matcher.has(head, inst, seed=seed2)
        assert matcher.stats()["check_misses"] == 2

    def test_invalidated_by_discard(self):
        matcher, inst, head, seed = self._setup()
        assert matcher.has(head, inst, seed=seed)
        inst.discard(_ground("E", 1, 2))
        assert not matcher.has(head, inst, seed=seed)

    def test_unrelated_relation_keeps_entry(self):
        matcher, inst, head, seed = self._setup()
        assert matcher.has(head, inst, seed=seed)
        inst.add(_ground("Other", 1))
        assert matcher.has(head, inst, seed=seed)
        stats = matcher.stats()
        assert stats["check_hits"] == 1
        assert stats["check_misses"] == 1

    def test_negative_results_cached_too(self):
        matcher, inst, head, seed = self._setup()
        absent = {Variable("x"): Constant(42)}
        assert not matcher.has(head, inst, seed=absent)
        assert not matcher.has(head, inst, seed=absent)
        assert matcher.stats()["check_hits"] == 1

    def test_eviction_clears_and_recomputes(self):
        matcher = Matcher(check_cache_limit=2)
        inst = Instance([_ground("E", i, i + 1) for i in range(4)])
        head = (atom("E", "x", "y"),)
        for i in range(4):
            assert matcher.has(
                head, inst, seed={Variable("x"): Constant(i)}
            )
        assert matcher.stats()["check_evictions"] >= 1
        # Correctness after eviction.
        assert matcher.has(head, inst, seed={Variable("x"): Constant(0)})

    def test_ground_probe_skips_cache(self):
        matcher = Matcher()
        inst = Instance([_ground("T", 1, 2)])
        head = (atom("T", "x", "y"),)
        seed = {Variable("x"): Constant(1), Variable("y"): Constant(2)}
        assert matcher.has(head, inst, seed=seed)
        inst.discard(_ground("T", 1, 2))
        assert not matcher.has(head, inst, seed=seed)
        stats = matcher.stats()
        assert stats["ground_probe_checks"] == 2
        assert stats["check_misses"] == 0


class TestIsomorphism:
    def test_renaming_is_isomorphic(self):
        matcher = Matcher()
        a = (atom("R", "x", "y"), atom("S", "y"))
        b = (atom("R", "u", "v"), atom("S", "v"))
        assert matcher.is_isomorphic(a, b)

    def test_repeated_variable_distinguished(self):
        matcher = Matcher()
        assert not matcher.is_isomorphic(
            (atom("R", "x", "x"),), (atom("R", "x", "y"),)
        )

    def test_swapped_cycle_isomorphic(self):
        matcher = Matcher()
        a = (atom("R", "x", "y"), atom("R", "y", "x"))
        b = (atom("R", "u", "v"), atom("R", "v", "u"))
        assert matcher.is_isomorphic(a, b)
        c = (atom("R", "x", "y"), atom("R", "y", "z"))
        assert not matcher.is_isomorphic(a, c)

    def test_variable_constant_mismatch(self):
        matcher = Matcher()
        assert not matcher.is_isomorphic(
            (atom("R", "x", Constant(1)),), (atom("R", "x", "y"),)
        )
        assert matcher.is_isomorphic(
            (atom("R", "x", Constant(1)),), (atom("R", "z", Constant(1)),)
        )

    def test_duplicate_atoms_compared_as_sets(self):
        # Duplicates must not inflate the size comparison: with them
        # counted, (R(x,y), R(x,y), S(y)) would false-positive against
        # a genuinely 3-atom body.
        matcher = Matcher()
        left = (atom("R", "x", "y"), atom("R", "x", "y"), atom("S", "y"))
        right = (atom("R", "u", "v"), atom("S", "v"), atom("S", "u"))
        assert not matcher.is_isomorphic(left, right)
        assert not NaiveMatcher().is_isomorphic(left, right)
        assert matcher.is_isomorphic(
            left, (atom("R", "a", "b"), atom("S", "b"))
        )

    def test_naive_matcher_agrees(self):
        naive = NaiveMatcher()
        assert naive.is_isomorphic(
            (atom("R", "x", "y"), atom("R", "y", "x")),
            (atom("R", "u", "v"), atom("R", "v", "u")),
        )
        assert not naive.is_isomorphic(
            (atom("R", "x", "x"),), (atom("R", "x", "y"),)
        )
        assert naive.subsumes(
            (atom("R", "x", "y"),), (atom("R", "u", "v"), atom("S", "v"))
        )

    def test_no_collapse_onto_smaller_image(self):
        # {R(x,c), R(x,d)} maps homomorphically into {R(y,c), R(y,d)}
        # many ways; isomorphism must still hold exactly and reject the
        # pair against a different shape multiset.
        matcher = Matcher()
        a = (atom("R", "x", Constant("c")), atom("R", "x", Constant("d")))
        b = (atom("R", "y", Constant("c")), atom("R", "y", Constant("d")))
        c = (atom("R", "y", Constant("c")), atom("R", "z", Constant("d")))
        assert matcher.is_isomorphic(a, b)
        assert not matcher.is_isomorphic(a, c)


class TestSubsumption:
    def test_smaller_subsumes_larger(self):
        matcher = Matcher()
        small = (atom("R", "x", "y"),)
        large = (atom("R", "u", "v"), atom("S", "v"))
        assert matcher.subsumes(small, large)
        assert not matcher.subsumes(large, small)

    def test_constants_must_match(self):
        matcher = Matcher()
        small = (atom("R", "x", Constant(1)),)
        assert matcher.subsumes(small, (atom("R", "y", Constant(1)),))
        assert not matcher.subsumes(small, (atom("R", "y", Constant(2)),))

    def test_freeze_atoms_roundtrip(self):
        frozen, targets = freeze_atoms(
            (atom("R", "x", "y"), atom("S", "y"))
        )
        assert len(frozen) == 2
        assert len(targets) == 2
        assert all(isinstance(t, Null) for t in targets)

    def test_rigid_nulls_cannot_alias_frozen_variables(self):
        # A null in the left-hand atoms must never match the null a
        # right-hand variable was frozen into, whatever its label.
        matcher = Matcher()
        __, targets = freeze_atoms((atom("R", "x"),))
        frozen_label = next(iter(targets)).label
        probe = (Atom("R", (Null(frozen_label),)),)
        assert not matcher.subsumes(probe, (atom("R", "x"),))
        assert not matcher.is_isomorphic(
            (Atom("R", (Null(frozen_label),)), atom("S", "w")),
            (atom("R", "y"), atom("S", "y")),
        )


class TestInstanceGenerations:
    def test_add_bumps_only_its_relation(self):
        inst = Instance()
        assert inst.generation_of("R") == 0
        inst.add(_ground("R", 1))
        assert inst.generation_of("R") == 1
        assert inst.generation_of("S") == 0

    def test_duplicate_add_does_not_bump(self):
        inst = Instance([_ground("R", 1)])
        before = inst.generation_of("R")
        assert not inst.add(_ground("R", 1))
        assert inst.generation_of("R") == before

    def test_discard_bumps(self):
        inst = Instance([_ground("R", 1)])
        before = inst.generation_of("R")
        assert inst.discard(_ground("R", 1))
        assert inst.generation_of("R") == before + 1
        assert not inst.discard(_ground("R", 1))
        assert inst.generation_of("R") == before + 1

    def test_generations_tuple_aligned(self):
        inst = Instance([_ground("R", 1), _ground("S", 1), _ground("S", 2)])
        assert inst.generations(("R", "S", "T")) == (1, 2, 0)
