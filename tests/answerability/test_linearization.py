"""Tests for the linearization pipeline (Prop 5.5 / App E.3)."""

import random

import pytest

from repro.answerability import linearize, saturate_truncated_axioms
from repro.answerability.linearization import (
    IDShape,
    _subsets_up_to,
    acc_relation,
)
from repro.answerability import decide_with_ids, primed
from repro.constraints import inclusion_dependency, tgd
from repro.logic import atom, boolean_cq, Constant
from repro.schema import Schema
from repro.workloads import id_chain_workload, random_id_workload
from repro.workloads.paperschemas import university_schema, query_q2


def simple_schema():
    """R(a,b) with R[1] ⊆ S[0]; method on R by position 0, method on S
    input-free."""
    schema = Schema()
    schema.add_relation("R", 2)
    schema.add_relation("S", 1)
    schema.add_method("mr", "R", inputs=[0])
    schema.add_method("ms", "S", inputs=[])
    schema.add_constraint(
        inclusion_dependency("R", (1,), "S", (0,), 2, 1)
    )
    return schema


class TestIDShape:
    def test_decomposition(self):
        shape = IDShape.of(tgd("R(x, y) -> S(y, z)"))
        assert shape.body_relation == "R"
        assert shape.head_relation == "S"
        assert shape.exported == ((1, 0),)

    def test_rejects_non_id(self):
        with pytest.raises(ValueError):
            IDShape.of(tgd("R(x), S(x) -> T(x)"))


class TestSaturation:
    def test_access_rule(self):
        schema = simple_schema()
        saturation = saturate_truncated_axioms(
            [c for c in schema.constraints],
            [m for m in schema.methods],
            schema.arities(),
            width=1,
        )
        # With position 0 of R accessible, the method mr exposes all of R.
        assert saturation[("R", frozenset({0}))] == {0, 1}
        # Input-free ms exposes S entirely, from the empty set.
        assert saturation[("S", frozenset())] == {0}

    def test_id_rule_pullback(self):
        # S is fully accessible from nothing (input-free dump), and the
        # ID R[1] ⊆ S[0] puts every R-fact's position-1 value inside S:
        # the derived axiom (R, ∅) ⊢ acc(position 1) holds.  Position 0
        # stays inaccessible (nothing exposes it).
        schema = simple_schema()
        saturation = saturate_truncated_axioms(
            list(schema.constraints),
            list(schema.methods),
            schema.arities(),
            width=1,
        )
        assert saturation[("R", frozenset())] == {1}

    def test_id_rule_through_child_method(self):
        # T(a) with T[0] ⊆ U[0], and a method on U by position 0 that
        # returns position 1... then accessibility flows down, not up:
        # derived axiom on T: {0} stays {0} unless U's method helps a
        # *head* position that is exported back.
        schema = Schema()
        schema.add_relation("T", 2)
        schema.add_relation("U", 2)
        schema.add_method("mu", "U", inputs=[0])
        schema.add_constraint(
            inclusion_dependency("T", (0, 1), "U", (0, 1), 2, 2)
        )
        saturation = saturate_truncated_axioms(
            list(schema.constraints),
            list(schema.methods),
            schema.arities(),
            width=2,
        )
        # acc(T.0) -> child U(x0, x1) has acc(0); method mu exposes U
        # fully; position 1 is exported back to T: so T.1 accessible.
        assert saturation[("T", frozenset({0}))] == {0, 1}


def saturate_by_rounds(ids, exact_methods, arities, width):
    """The reference fixpoint: rerun every closure rule over the whole
    state until a round changes nothing."""
    shapes = [IDShape.of(dependency) for dependency in ids]
    state = {}
    for relation, arity in arities.items():
        for subset in _subsets_up_to(range(arity), width):
            state[(relation, frozenset(subset))] = set(subset)
    methods_by_relation = {}
    for method in exact_methods:
        methods_by_relation.setdefault(method.relation.name, []).append(
            method
        )
    changed = True
    while changed:
        changed = False
        for (relation, __), closure in state.items():
            for method in methods_by_relation.get(relation, ()):
                if method.input_positions <= closure:
                    full = set(range(arities[relation]))
                    if not full <= closure:
                        closure.update(full)
                        changed = True
        for shape in shapes:
            body_of_head = {h: b for b, h in shape.exported}
            exported_heads = frozenset(body_of_head)
            for head_subset in _subsets_up_to(exported_heads, width):
                targets = state.get(
                    (shape.head_relation, frozenset(head_subset))
                )
                if targets is None:
                    continue
                body_closure = state.get(
                    (
                        shape.body_relation,
                        frozenset(body_of_head[h] for h in head_subset),
                    )
                )
                if body_closure is None:
                    continue
                for target in targets & exported_heads:
                    if body_of_head[target] not in body_closure:
                        body_closure.add(body_of_head[target])
                        changed = True
        for (relation, __), closure in state.items():
            for (relation2, premise), targets in state.items():
                if relation2 != relation or not premise <= closure:
                    continue
                if not targets <= closure:
                    closure.update(targets)
                    changed = True
    return state


def random_wide_id_schema(rng: random.Random) -> Schema:
    """Relations of arity 1–4, IDs exporting up to three positions
    (self-IDs and swapped positions included), exact and bounded
    methods with up to two inputs."""
    schema = Schema()
    arities = {f"N{i}": rng.randint(1, 4) for i in range(rng.randint(1, 4))}
    for name, arity in arities.items():
        schema.add_relation(name, arity)
    names = list(arities)
    for __ in range(rng.randint(1, 6)):
        source, target = rng.choice(names), rng.choice(names)
        k = rng.randint(1, min(3, arities[source], arities[target]))
        schema.add_constraint(
            inclusion_dependency(
                source,
                tuple(rng.sample(range(arities[source]), k)),
                target,
                tuple(rng.sample(range(arities[target]), k)),
                arities[source],
                arities[target],
            )
        )
    for i in range(rng.randint(0, 4)):
        relation = rng.choice(names)
        arity = arities[relation]
        schema.add_method(
            f"m{i}",
            relation,
            inputs=rng.sample(range(arity), rng.randint(0, min(2, arity))),
            result_bound=rng.choice([None, None, 3]),
        )
    return schema


def saturations(schema: Schema):
    """The reference fixpoint, then the worklist's with the relations
    in declared and in reversed order (the worklist's visiting order
    follows them)."""
    ids = list(schema.constraints)
    exact = [m for m in schema.methods if m.effective_bound() is None]
    width = max((d.width for d in ids), default=1)
    arities = schema.arities()
    return [saturate_by_rounds(ids, exact, arities, width)] + [
        saturate_truncated_axioms(ids, exact, order, width)
        for order in (arities, dict(reversed(arities.items())))
    ]


class TestSaturationOracle:
    def test_worklist_matches_the_round_fixpoint_on_random_id_schemas(self):
        schemas = [
            random_id_workload(seed, arity=arity, relations=4, ids=6).schema
            for seed in range(60)
            for arity in (2, 3, 4)
        ]
        rng = random.Random(11)
        schemas += [random_wide_id_schema(rng) for __ in range(300)]
        schemas += [id_chain_workload(n).schema for n in (1, 5, 12)]
        grown = 0
        for schema in schemas:
            rounds, worklist, reversed_order = saturations(schema)
            assert list(worklist) == list(rounds)
            assert worklist == rounds, schema
            assert reversed_order == rounds, schema
            grown += any(
                closure != set(premise)
                for (__, premise), closure in rounds.items()
            )
        # The sample exercises the rules, not just the initial state.
        assert grown > len(schemas) // 2


class TestLinearizedRules:
    def test_all_rules_linear_single_head(self):
        schema = university_schema(ud_bound=100)
        system = linearize(schema)
        for rule in system.rules:
            assert len(rule.body) == 1
            assert len(rule.head) == 1

    def test_transfer_rule_present(self):
        schema = simple_schema()
        system = linearize(schema)
        transfer_heads = {
            rule.head[0].relation
            for rule in system.rules
            if rule.is_full()
        }
        assert primed("R") in transfer_heads
        assert primed("S") in transfer_heads

    def test_rb_transfer_for_bounded(self):
        schema = university_schema(ud_bound=100)
        system = linearize(schema)
        rb = [r for r in system.rules if r.name.startswith("rb_transfer")]
        assert rb, "result-bounded ud should produce RB transfer rules"
        # Input-free ud: the head is fully existential.
        assert all(r.existential_variables() for r in rb)

    def test_rejects_non_ids(self):
        schema = Schema()
        schema.add_relation("R", 1)
        schema.add_relation("S", 1)
        schema.add_method("m", "R")
        schema.add_constraint(tgd("R(x), S(x) -> S(x)"))
        with pytest.raises(ValueError):
            linearize(schema)


class TestInitialInstance:
    def test_constants_accessible_drive_subscripts(self):
        schema = simple_schema()
        system = linearize(schema)
        q = boolean_cq([atom("R", Constant("c"), "y")])
        start = system.initial_instance(q)
        # Position 0 holds the accessible constant c; mr then exposes
        # position 1, and S is reachable: expect R_{0} and R_{0,1}? width
        # is 1 so subsets of size <= 1: R_{}, R_{0}, R_{1}.
        rels = set(start.relations())
        assert acc_relation("R", frozenset({0})) in rels
        assert acc_relation("R", frozenset({1})) in rels
        assert acc_relation("R", frozenset()) in rels

    def test_exact_transfer_on_initial_fact(self):
        schema = simple_schema()
        system = linearize(schema)
        q = boolean_cq([atom("R", Constant("c"), "y")])
        start = system.initial_instance(q)
        # mr's input (position 0) is accessible: R' present directly.
        assert start.facts_of(primed("R"))

    def test_no_accessible_values_no_transfer(self):
        schema = Schema()
        schema.add_relation("R", 2)
        schema.add_method("m", "R", inputs=[0])
        system = linearize(schema)
        q = boolean_cq([atom("R", "x", "y")])  # no constants
        start = system.initial_instance(q)
        assert not start.facts_of(primed("R"))


class TestEndToEnd:
    def test_wide_ids(self):
        """Width-2 IDs exercised end to end."""
        schema = Schema()
        schema.add_relation("A", 2)
        schema.add_relation("B", 3)
        schema.add_method("ma", "A", inputs=[])
        schema.add_method("mb", "B", inputs=[0, 1])
        schema.add_constraint(
            inclusion_dependency("A", (0, 1), "B", (0, 1), 2, 3)
        )
        q = boolean_cq([atom("B", "x", "y", "z")])
        # A dump gives pairs; mb fetches the B-facts the ID promises.
        assert decide_with_ids(schema, q).is_yes is False or True
        decision = decide_with_ids(schema, q)
        # Q = ∃B: not answerable — B facts unrelated to A are invisible.
        assert decision.is_no
        q2 = boolean_cq([atom("A", "x", "y"), atom("B", "x", "y", "z")])
        assert decide_with_ids(schema, q2).is_yes

    def test_cyclic_ids_terminate(self):
        schema = Schema()
        schema.add_relation("R", 2)
        schema.add_method("m", "R", inputs=[0])
        schema.add_constraint(tgd("R(x, y) -> R(y, z)"))
        q = boolean_cq([atom("R", Constant(1), "y")])
        decision = decide_with_ids(schema, q)
        assert not decision.is_unknown  # rewriting terminates
