"""Tests for relations, access methods, and schemas."""

import pytest

from repro.constraints import EGD, ConstraintClass, fd, tgd
from repro.logic import Atom, Variable
from repro.schema import AccessMethod, Relation, Schema, SchemaError
from repro.workloads.paperschemas import university_schema


class TestRelation:
    def test_attributes_checked(self):
        with pytest.raises(ValueError):
            Relation("R", 2, ("only_one",))

    def test_attribute_name_fallback(self):
        assert Relation("R", 2).attribute_name(0) == "#1"
        assert Relation("R", 2, ("a", "b")).attribute_name(1) == "b"


class TestAccessMethod:
    def relation(self):
        return Relation("R", 3)

    def test_positions_validated(self):
        with pytest.raises(ValueError):
            AccessMethod("m", self.relation(), frozenset({5}))

    def test_both_bounds_rejected(self):
        with pytest.raises(ValueError):
            AccessMethod("m", self.relation(), frozenset(), 2, 3)

    def test_bound_positive(self):
        with pytest.raises(ValueError):
            AccessMethod("m", self.relation(), frozenset(), 0)

    def test_kinds(self):
        rel = self.relation()
        free = AccessMethod("f", rel, frozenset())
        assert free.is_input_free() and not free.is_boolean()
        boolean = AccessMethod("b", rel, frozenset({0, 1, 2}))
        assert boolean.is_boolean()

    def test_output_positions(self):
        method = AccessMethod("m", self.relation(), frozenset({1}))
        assert method.output_positions == (0, 2)

    def test_bound_conversions(self):
        method = AccessMethod("m", self.relation(), frozenset(), 7)
        assert method.is_result_bounded()
        lower = method.with_lower_bound(7)
        assert lower.has_lower_bound_only()
        assert lower.effective_bound() == 7
        exact = method.with_result_bound(None)
        assert exact.effective_bound() is None


class TestSchema:
    def test_university_schema_builds(self):
        schema = university_schema(with_ud2=True, with_fd=True)
        assert {r.name for r in schema.relations} == {"Prof", "Udirectory"}
        assert schema.method("ud").result_bound == 100
        assert schema.method("ud2").result_bound == 1
        assert len(schema.constraints) == 2

    def test_unknown_relation_in_method(self):
        schema = Schema()
        with pytest.raises(SchemaError):
            schema.add_method("m", "Nope", inputs=[])

    def test_constraint_unknown_relation(self):
        schema = Schema()
        schema.add_relation("R", 1)
        with pytest.raises(SchemaError):
            schema.add_constraint(tgd("R(x) -> S(x)"))

    @pytest.mark.parametrize(
        "constraint",
        [
            tgd("R(x,y) -> R(y,z,w)"),
            tgd("R(x) -> R(x,y)"),
            EGD(
                (Atom("R", (Variable("x"), Variable("y"), Variable("z"))),),
                Variable("x"),
                Variable("y"),
            ),
            fd("R", [0], 6),
            fd("R", [2], 1),
        ],
        ids=["tgd-head", "tgd-body", "egd", "fd-determined", "fd-determiner"],
    )
    def test_constraint_must_fit_declared_arities(self, constraint):
        schema = Schema()
        schema.add_relation("R", 2)
        with pytest.raises(SchemaError, match="arities"):
            schema.add_constraint(constraint)
        assert schema.constraints == ()

    def test_constraints_fitting_the_arities_are_accepted(self):
        schema = Schema()
        schema.add_relation("R", 2)
        schema.add_constraint(tgd("R(x,y) -> R(y,z)"))
        schema.add_constraint(
            EGD(
                (Atom("R", (Variable("x"), Variable("y"))),),
                Variable("x"),
                Variable("y"),
            )
        )
        schema.add_constraint(fd("R", [0], 1))
        assert len(schema.constraints) == 3

    def test_duplicate_method(self):
        schema = Schema()
        schema.add_relation("R", 1)
        schema.add_method("m", "R")
        with pytest.raises(SchemaError):
            schema.add_method("m", "R")

    def test_methods_on(self):
        schema = university_schema(with_ud2=True)
        assert {m.name for m in schema.methods_on("Udirectory")} == {
            "ud", "ud2"
        }

    def test_result_bounded_methods(self):
        schema = university_schema()
        assert {m.name for m in schema.result_bounded_methods()} == {"ud"}
        assert schema.has_result_bounds()

    def test_constraint_class(self):
        schema = university_schema()
        assert schema.constraint_class() is ConstraintClass.BOUNDED_WIDTH_IDS
        schema2 = university_schema(with_fd=True)
        # τ is a UID (width 1) and φ an FD.
        assert schema2.constraint_class() is ConstraintClass.UIDS_AND_FDS

    def test_replace_methods(self):
        schema = university_schema()
        stripped = schema.replace_methods([])
        assert not stripped.methods
        assert len(stripped.constraints) == len(schema.constraints)

    def test_satisfied_by(self):
        from repro.workloads.paperschemas import university_instance

        schema = university_schema(with_fd=True)
        assert schema.satisfied_by(university_instance())
