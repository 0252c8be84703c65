"""Tests for the chase engine."""

import pytest

from repro.chase import ChaseOutcome, chase, satisfies
from repro.constraints import EGD, fd, tgd
from repro.data import Instance
from repro.logic import Constant, Null, atom, ground_atom, boolean_cq, holds


class TestTGDChase:
    def test_full_tgd_fixpoint(self):
        inst = Instance([ground_atom("R", 1), ground_atom("R", 2)])
        result = chase(inst, [tgd("R(x) -> S(x)")])
        assert result.outcome is ChaseOutcome.FIXPOINT
        assert ground_atom("S", 1) in result.instance
        assert ground_atom("S", 2) in result.instance

    def test_existential_creates_null(self):
        inst = Instance([ground_atom("R", 1)])
        result = chase(inst, [tgd("R(x) -> S(x, z)")])
        assert result.outcome is ChaseOutcome.FIXPOINT
        s_facts = result.instance.facts_of("S")
        assert len(s_facts) == 1
        fact = next(iter(s_facts))
        assert fact.terms[0] == Constant(1)
        assert isinstance(fact.terms[1], Null)

    def test_restricted_does_not_fire_satisfied(self):
        inst = Instance([ground_atom("R", 1), ground_atom("S", 1, 7)])
        result = chase(inst, [tgd("R(x) -> S(x, z)")])
        assert result.outcome is ChaseOutcome.FIXPOINT
        assert len(result.instance.facts_of("S")) == 1  # no new null

    def test_divergent_chase_hits_bound(self):
        inst = Instance([ground_atom("R", 1, 2)])
        result = chase(inst, [tgd("R(x, y) -> R(y, z)")], max_rounds=4)
        assert result.outcome is ChaseOutcome.BOUND_REACHED
        assert result.rounds == 4

    def test_max_facts_bound(self):
        inst = Instance([ground_atom("R", 1, 2)])
        result = chase(
            inst, [tgd("R(x, y) -> R(y, z)")], max_rounds=100, max_facts=5
        )
        assert result.outcome is ChaseOutcome.BOUND_REACHED

    def test_result_satisfies_constraints(self):
        rules = [tgd("R(x) -> S(x, z)"), tgd("S(x, y) -> T(y)")]
        inst = Instance([ground_atom("R", 1)])
        result = chase(inst, rules)
        assert result.outcome is ChaseOutcome.FIXPOINT
        assert satisfies(result.instance, rules)

    def test_input_not_mutated(self):
        inst = Instance([ground_atom("R", 1)])
        chase(inst, [tgd("R(x) -> S(x)")])
        assert len(inst) == 1

    def test_steps_recorded(self):
        inst = Instance([ground_atom("R", 1)])
        result = chase(inst, [tgd("R(x) -> S(x)")], record_steps=True)
        assert len(result.steps) == 1
        assert result.steps[0].produced == (ground_atom("S", 1),)


class TestFDChase:
    def test_merge_nulls(self):
        inst = Instance(
            [ground_atom("R", 1, Null("a")), ground_atom("R", 1, Null("b"))]
        )
        result = chase(inst, [fd("R", [0], 1)])
        assert result.outcome is ChaseOutcome.FIXPOINT
        assert len(result.instance) == 1

    def test_merge_prefers_constant(self):
        inst = Instance(
            [ground_atom("R", 1, Null("a")), ground_atom("R", 1, "c")]
        )
        result = chase(inst, [fd("R", [0], 1)])
        assert ground_atom("R", 1, "c") in result.instance
        assert result.substitution.get(Null("a")) == Constant("c")

    def test_constant_clash_fails(self):
        inst = Instance(
            [ground_atom("R", 1, "a"), ground_atom("R", 1, "b")]
        )
        result = chase(inst, [fd("R", [0], 1)])
        assert result.outcome is ChaseOutcome.FAILED

    def test_merge_cascades(self):
        # Merging at position 1 creates a new violation at position 0.
        inst = Instance(
            [
                ground_atom("R", Null("x"), 1),
                ground_atom("R", Null("x"), 2),
            ]
        )
        # FD 0 -> 1 merges 1 and 2? No: constants clash -> FAILED.
        result = chase(inst, [fd("R", [0], 1)])
        assert result.outcome is ChaseOutcome.FAILED

    def test_egd_generic(self):
        rule = EGD(
            (atom("R", "x", "y"), atom("R", "y", "x")),
            atom("R", "x", "y").terms[0],
            atom("R", "x", "y").terms[1],
        )
        inst = Instance(
            [ground_atom("R", Null("a"), Null("b")),
             ground_atom("R", Null("b"), Null("a"))]
        )
        result = chase(inst, [rule])
        assert result.outcome is ChaseOutcome.FIXPOINT
        assert len(result.instance.facts_of("R")) == 1  # collapsed to loop


class TestInteraction:
    def test_tgd_then_fd(self):
        # R(x) -> S(x, z); FD on S forces all z to merge with existing.
        inst = Instance([ground_atom("R", 1), ground_atom("S", 1, "known")])
        rules = [tgd("R(x) -> S(x, z)"), fd("S", [0], 1)]
        result = chase(inst, rules)
        assert result.outcome is ChaseOutcome.FIXPOINT
        assert result.instance.facts_of("S") == frozenset(
            {ground_atom("S", 1, "known")}
        )

    def test_stop_when(self):
        rules = [tgd("R(x, y) -> R(y, z)")]
        inst = Instance([ground_atom("R", 0, 1)])
        target = boolean_cq(
            [atom("R", "a", "b"), atom("R", "b", "c"), atom("R", "c", "d")]
        )
        result = chase(
            inst, rules, max_rounds=50,
            stop_when=lambda i: holds(target, i),
        )
        assert result.outcome is ChaseOutcome.EARLY_STOP
        assert result.rounds <= 3


class TestEngineSelection:
    """The `engine=` knob: delta is the default, naive is the reference."""

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown chase engine"):
            chase(Instance(), [], engine="turbo")

    def test_there_is_no_policy_keyword(self):
        # The restricted chase is the only policy.
        with pytest.raises(TypeError):
            chase(Instance(), [], policy="restricted")

    @pytest.mark.parametrize("engine", ["delta", "naive"])
    def test_basic_scenarios_per_engine(self, engine):
        inst = Instance([ground_atom("R", 1), ground_atom("S", 1, 7)])
        rules = [tgd("R(x) -> S(x, z)"), fd("S", [0], 1)]
        result = chase(inst, rules, engine=engine)
        assert result.outcome is ChaseOutcome.FIXPOINT
        assert result.instance.facts_of("S") == frozenset(
            {ground_atom("S", 1, 7)}
        )
        assert satisfies(result.instance, rules)

    @pytest.mark.parametrize("engine", ["delta", "naive"])
    def test_stats_populated(self, engine):
        inst = Instance([ground_atom("R", 1)])
        result = chase(inst, [tgd("R(x) -> S(x)")], engine=engine)
        assert result.stats.triggers_enumerated >= 1
        assert result.stats.searches >= result.stats.triggers_enumerated


class TestDeterministicMerges:
    """Null-null merges keep a deterministic representative."""

    @pytest.mark.parametrize("engine", ["delta", "naive"])
    def test_older_null_kept(self, engine):
        # n2 is older than n10 by creation order (numeric index parse).
        inst = Instance(
            [ground_atom("R", 1, Null("n10")), ground_atom("R", 1, Null("n2"))]
        )
        result = chase(inst, [fd("R", [0], 1)], engine=engine)
        assert result.substitution == {Null("n10"): Null("n2")}
        assert ground_atom("R", 1, Null("n2")) in result.instance

    @pytest.mark.parametrize("engine", ["delta", "naive"])
    def test_constant_still_beats_age(self, engine):
        inst = Instance(
            [ground_atom("R", 1, Null("n0")), ground_atom("R", 1, "v")]
        )
        result = chase(inst, [fd("R", [0], 1)], engine=engine)
        assert result.substitution == {Null("n0"): Constant("v")}

    @pytest.mark.parametrize("engine", ["delta", "naive"])
    def test_unnumbered_labels_ordered_lexicographically(self, engine):
        inst = Instance(
            [ground_atom("R", 1, Null("beta")), ground_atom("R", 1, Null("alpha"))]
        )
        result = chase(inst, [fd("R", [0], 1)], engine=engine)
        assert result.substitution == {Null("beta"): Null("alpha")}


class TestRestrictedAfterMerges:
    """The restricted chase checks each trigger's head against the
    instance *after* EGD merges, so a merge that renames a frontier term
    never makes a satisfied rule fire again.  Both engines agree."""

    @pytest.mark.parametrize("engine", ["delta", "naive"])
    def test_renamed_frontier_does_not_refire(self, engine):
        # Round 1 fires both TGDs on S(n5); R(1, n5) then violates the
        # FD against R(1, n0), and the merge keeps n0 (older), rewriting
        # S(n5) to S(n0) and T(n5, w) to T(n0, w).  In round 2 the
        # rewritten trigger S(n0) already has its T witness.
        inst = Instance(
            [
                ground_atom("R", 1, Null("n0")),
                ground_atom("S", Null("n5")),
            ]
        )
        rules = [
            tgd("S(x) -> T(x, w)"),
            tgd("S(x) -> R(1, x)"),
            fd("R", [0], 1),
        ]
        result = chase(inst, rules, max_rounds=6, engine=engine)
        assert result.outcome is ChaseOutcome.FIXPOINT
        assert result.substitution == {Null("n5"): Null("n0")}
        t_facts = result.instance.facts_of("T")
        assert len(t_facts) == 1
        assert next(iter(t_facts)).terms[0] == Null("n0")
        assert satisfies(result.instance, rules)

    @pytest.mark.parametrize("engine", ["delta", "naive"])
    def test_existential_rule_fires_once_per_frontier(self, engine):
        inst = Instance([ground_atom("R", 1)])
        result = chase(
            inst, [tgd("R(x) -> S(x, z)")], max_rounds=10, engine=engine
        )
        assert result.outcome is ChaseOutcome.FIXPOINT
        assert result.rounds == 2
        assert len(result.instance.facts_of("S")) == 1
