"""Tests for the answerability deciders on the paper's examples.

Every worked example of the paper appears here with the outcome the
paper states, plus cross-validation between the linearization route,
the chase route, and the semantic falsifier.
"""

import pytest

from repro.answerability import (
    decide_finite_monotone_answerability,
    decide_monotone_answerability,
    decide_with_choice_simplification,
    decide_with_fds,
    decide_with_ids,
    decide_with_uids_and_fds,
    find_amondet_counterexample,
    freeze_free_variables,
    generate_static_plan,
    minimize_query_under_fds,
)
from repro.constraints import ConstraintClass, fd, tgd
from repro.logic import Constant, Variable, atom, boolean_cq, cq
from repro.schema import QuerySchemaError, Schema
from repro.workloads import (
    fd_determinacy_workload,
    random_id_workload,
    tgd_transfer_workload,
    uid_fd_workload,
)
from repro.workloads.paperschemas import (
    example_6_1_schema,
    query_example_6_1,
    query_q1,
    query_q1_boolean,
    query_q2,
    query_q3,
    query_q3_boolean,
    university_schema,
)


class TestPaperExamples:
    def test_example_1_2_unbounded_q1_answerable(self):
        schema = university_schema(ud_bound=None)
        assert decide_monotone_answerability(schema, query_q1_boolean()).is_yes

    def test_example_1_3_bounded_q1_not_answerable(self):
        schema = university_schema(ud_bound=100)
        assert decide_monotone_answerability(schema, query_q1_boolean()).is_no

    def test_example_1_4_q2_answerable_despite_bound(self):
        schema = university_schema(ud_bound=100)
        assert decide_monotone_answerability(schema, query_q2()).is_yes

    def test_example_1_5_q3_answerable_with_fd(self):
        schema = university_schema(
            ud_bound=100, with_ud2=True, with_fd=True
        )
        result = decide_monotone_answerability(schema, query_q3_boolean())
        assert result.is_yes
        assert result.constraint_class is ConstraintClass.UIDS_AND_FDS

    def test_example_1_5_needs_the_fd(self):
        # Without φ, ud2 may return any one of many (addr, phone) rows:
        # the Boolean Q3 *is* still answerable (an existence check
        # suffices), but the address query frozen as a constant is not.
        schema = university_schema(ud_bound=100, with_ud2=True)
        q3_addr = boolean_cq(
            [atom("Udirectory", Constant(12345), Constant("addr"), "p")],
            name="Q3addr",
        )
        assert decide_monotone_answerability(schema, q3_addr).is_no
        with_fd = university_schema(
            ud_bound=100, with_ud2=True, with_fd=True
        )
        assert decide_monotone_answerability(with_fd, q3_addr).is_yes

    def test_example_6_1_choice_needed(self):
        schema = example_6_1_schema()
        result = decide_monotone_answerability(schema, query_example_6_1())
        assert result.is_yes
        assert result.route == "choice-simplification"

    def test_example_6_1_existence_check_insufficient(self):
        """The existence-check simplification loses answerability for
        Example 6.1 — showing the simplification is NOT valid for TGDs."""
        from repro.answerability import existence_check_simplification

        schema = example_6_1_schema()
        simplified = existence_check_simplification(schema).schema
        result = decide_with_choice_simplification(
            simplified, query_example_6_1(), max_rounds=15
        )
        assert not result.is_yes


class TestNonBooleanQueries:
    def test_freeze(self):
        frozen, mapping = freeze_free_variables(query_q1())
        assert frozen.is_boolean()
        assert Variable("n") in mapping

    def test_q1_non_boolean_unbounded(self):
        schema = university_schema(ud_bound=None)
        assert decide_monotone_answerability(schema, query_q1()).is_yes

    def test_q3_non_boolean_with_fd(self):
        schema = university_schema(
            ud_bound=100, with_ud2=True, with_fd=True
        )
        assert decide_monotone_answerability(schema, query_q3()).is_yes

    def test_q3_address_not_answerable_without_fd(self):
        schema = university_schema(ud_bound=100, with_ud2=True)
        # Asking for the address (not just existence) fails without φ.
        assert decide_monotone_answerability(schema, query_q3()).is_no


class TestRouteAgreement:
    """Linearization and chase routes agree whenever both are definitive."""

    def cases(self):
        bounded = university_schema(ud_bound=100)
        unbounded = university_schema(ud_bound=None)
        yield bounded, query_q2()
        yield bounded, query_q1_boolean()
        yield unbounded, query_q1_boolean()
        yield unbounded, query_q2()

    def test_agreement(self):
        for schema, query in self.cases():
            lin = decide_with_ids(schema, query, route="linearization")
            cha = decide_with_ids(schema, query, route="chase", max_rounds=40)
            if not cha.is_unknown:
                assert lin.truth == cha.truth, (schema, query)

    def test_linearization_never_identifies_two_existentials(self):
        # R0 is reachable only through m0 (no inputs, bound 1), and the
        # one ID never mentions it, so R0(x, x) is not answerable:
        # I1 = {R0(a,a), R0(b,c)} and I2 = {R0(b,c)} share the access
        # m0 -> R0(b,c).  Rewriting R0'(x, x) through the linearized
        # rule with head R0'(z0, z1) would identify two fresh nulls.
        schema = Schema()
        schema.add_relation("R0", 2)
        schema.add_relation("R1", 2)
        schema.add_method("m0", "R0", inputs=[], result_bound=1)
        schema.add_method("m1", "R1", inputs=[0, 1])
        schema.add_constraint(tgd("R1(x0, x1) -> R1(x1, z1)"))
        query = boolean_cq([atom("R0", "x", "x")])
        lin = decide_with_ids(schema, query, route="linearization")
        cha = decide_with_ids(schema, query, route="chase")
        assert lin.is_no and cha.is_no
        assert decide_monotone_answerability(schema, query).is_no
        # Decide and plan agree: no plan for a NO.
        assert generate_static_plan(schema, query) is None

    def test_falsifier_confirms_no(self):
        schema = university_schema(ud_bound=2)
        assert decide_monotone_answerability(
            schema, query_q1_boolean()
        ).is_no
        cex = find_amondet_counterexample(schema, query_q1_boolean())
        assert cex is not None and cex.verify(schema, query_q1_boolean())

    def test_falsifier_silent_on_yes(self):
        schema = university_schema(ud_bound=2)
        assert find_amondet_counterexample(schema, query_q2()) is None


class TestFDDecider:
    def fd_schema(self, bound=1):
        schema = Schema()
        schema.add_relation("R", 3)  # R(key, det, other)
        schema.add_method("m", "R", inputs=[0], result_bound=bound)
        schema.add_constraint(fd("R", [0], 1))
        return schema

    def test_determined_part_answerable(self):
        # Q: R(c, d, *) for constants c,d — the FD pins d given c.
        q = boolean_cq(
            [atom("R", Constant("k"), Constant("d"), "z")], name="Qdet"
        )
        assert decide_with_fds(self.fd_schema(), q).is_yes

    def test_underdetermined_part_not_answerable(self):
        # Asking about the third column (not determined): NO.
        q = boolean_cq(
            [atom("R", Constant("k"), "y", Constant("o"))], name="Qother"
        )
        assert decide_with_fds(self.fd_schema(), q).is_no

    def test_bound_value_irrelevant(self):
        q = boolean_cq(
            [atom("R", Constant("k"), Constant("d"), "z")], name="Qdet"
        )
        for bound in (1, 5, 100):
            assert decide_with_fds(self.fd_schema(bound), q).is_yes

    def test_no_constraints_existence_check(self):
        schema = Schema()
        schema.add_relation("R", 2)
        schema.add_method("m", "R", inputs=[0], result_bound=3)
        yes = boolean_cq([atom("R", Constant(1), "y")])
        assert decide_with_fds(schema, yes).is_yes
        no = boolean_cq([atom("R", Constant(1), Constant(2))])
        assert decide_with_fds(schema, no).is_no


class TestQueryMinimization:
    def test_fd_merges_variables(self):
        q = boolean_cq(
            [atom("R", "x", "y"), atom("R", "x", "z"), atom("S", "y", "z")]
        )
        minimized = minimize_query_under_fds(q, [fd("R", [0], 1)])
        # y and z merged: S atom becomes S(v, v).
        s_atom = next(a for a in minimized.atoms if a.relation == "S")
        assert s_atom.terms[0] == s_atom.terms[1]

    def test_unsatisfiable_query(self):
        q = boolean_cq(
            [
                atom("R", "x", Constant(1)),
                atom("R", "x", Constant(2)),
            ]
        )
        assert minimize_query_under_fds(q, [fd("R", [0], 1)]) is None

    def test_no_fds_identity(self):
        q = boolean_cq([atom("R", "x", "y")])
        minimized = minimize_query_under_fds(q, [])
        assert len(minimized.atoms) == 1


class TestDispatcher:
    def test_routes(self):
        cases = [
            (university_schema(ud_bound=100), query_q2(), "linearization"),
            (
                university_schema(ud_bound=100, with_fd=True),
                query_q2(),
                "choice+separability",
            ),
            (
                example_6_1_schema(),
                query_example_6_1(),
                "choice-simplification",
            ),
        ]
        for schema, query, route in cases:
            result = decide_monotone_answerability(schema, query)
            assert result.route == route, schema

    def test_fd_route(self):
        schema = Schema()
        schema.add_relation("R", 2)
        schema.add_method("m", "R", result_bound=4)
        schema.add_constraint(fd("R", [0], 1))
        result = decide_monotone_answerability(
            schema, boolean_cq([atom("R", "x", "y")])
        )
        assert result.route == "fd-simplification"
        assert result.is_yes  # existence check

    def test_unsupported_mixed_with_bounds(self):
        schema = Schema()
        schema.add_relation("R", 2)
        schema.add_relation("S", 2)
        schema.add_method("m", "R", result_bound=4)
        schema.add_constraint(tgd("R(x, y) -> S(y, x)"))
        schema.add_constraint(fd("S", [0], 1))
        result = decide_monotone_answerability(
            schema, boolean_cq([atom("R", "x", "y")])
        )
        assert result.is_unknown

    def test_mixed_without_bounds_direct(self):
        schema = Schema()
        schema.add_relation("R", 2)
        schema.add_relation("S", 2)
        schema.add_method("m", "R", inputs=[])
        schema.add_method("ms", "S", inputs=[0])
        schema.add_constraint(tgd("R(x, y) -> S(y, x)"))
        schema.add_constraint(fd("S", [0], 1))
        result = decide_monotone_answerability(
            schema, boolean_cq([atom("R", "x", "y")])
        )
        assert result.route == "direct"
        assert result.is_yes


class TestQueriesMustFitTheSchema:
    """Every decider entry point rejects a query atom over an undeclared
    relation, or with the wrong arity, with `QuerySchemaError` — the
    same check `Session` runs — instead of failing inside a route."""

    ENTRY_POINTS = [
        ("monotone", decide_monotone_answerability, university_schema()),
        ("finite", decide_finite_monotone_answerability, university_schema()),
        ("plan", generate_static_plan, university_schema()),
        ("fds", decide_with_fds, fd_determinacy_workload(2).schema),
        ("ids", decide_with_ids, university_schema()),
        ("uids-fds", decide_with_uids_and_fds, uid_fd_workload(2).schema),
        (
            "choice",
            decide_with_choice_simplification,
            tgd_transfer_workload(2).schema,
        ),
    ]

    @pytest.mark.parametrize(
        "decide, schema",
        [entry[1:] for entry in ENTRY_POINTS],
        ids=[entry[0] for entry in ENTRY_POINTS],
    )
    def test_misfit_atoms_raise_query_schema_error(self, decide, schema):
        relation = schema.relations[0]
        too_long = atom(
            relation.name, *[f"v{i}" for i in range(relation.arity + 1)]
        )
        with pytest.raises(QuerySchemaError, match="arity"):
            decide(schema, boolean_cq([too_long]))
        with pytest.raises(QuerySchemaError, match="does not declare"):
            decide(schema, boolean_cq([atom("Undeclared", "x")]))

    def test_ternary_random_workload_decides(self):
        # Seed 8 used to build binary query atoms over ternary
        # relations and died with an IndexError.
        workload = random_id_workload(
            8, arity=3, bound=5, relations=4, ids=5
        )
        result = decide_monotone_answerability(
            workload.schema, workload.query
        )
        assert not result.is_unknown
