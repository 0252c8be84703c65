"""Service schemas: signature + integrity constraints + access methods.

A `Schema` packages the three components of the paper's query-and-access
model (§2).  It offers a fluent builder API::

    schema = Schema()
    schema.add_relation("Prof", 3, attributes=("id", "name", "salary"))
    schema.add_relation("Udirectory", 3, attributes=("id", "addr", "phone"))
    schema.add_method("pr", "Prof", inputs=[0])
    schema.add_method("ud", "Udirectory", inputs=[], result_bound=100)
    schema.add_constraint(tgd("Prof(i,n,s) -> Udirectory(i,a,p)"))
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from ..constraints.analysis import (
    ClassifiedConstraints,
    ConstraintClass,
    classify,
)
from ..constraints.egd import EGD
from ..constraints.fd import FunctionalDependency
from ..constraints.tgd import TGD
from ..data.instance import Instance
from .access import AccessMethod
from .relation import Relation

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..logic.queries import ConjunctiveQuery

Dependency = Union[TGD, EGD, FunctionalDependency]


class SchemaError(ValueError):
    """Raised on inconsistent schema definitions."""


class QuerySchemaError(ValueError):
    """A query atom names a relation the schema lacks, or has the
    wrong arity for it."""


def check_query_fits(
    query: "ConjunctiveQuery", arities: Mapping[str, int]
) -> None:
    """Raise `QuerySchemaError` unless every atom of ``query`` names a
    relation of ``arities`` (relation name -> arity) and has its arity:
    the one fit check, whether the arities come from a `Schema` or from
    a validated description's ``relations`` section."""
    for a in query.atoms:
        arity = arities.get(a.relation)
        if arity is None:
            raise QuerySchemaError(
                f"query atom {a} names relation {a.relation!r}, "
                "which the schema does not declare"
            )
        if arity != a.arity:
            raise QuerySchemaError(
                f"query atom {a} has {a.arity} terms, but relation "
                f"{a.relation!r} has arity {arity}"
            )


class Schema:
    """A service schema: relations, constraints, and access methods."""

    def __init__(
        self,
        relations: Iterable[Relation] = (),
        constraints: Iterable[Dependency] = (),
        methods: Iterable[AccessMethod] = (),
    ) -> None:
        self._relations: dict[str, Relation] = {}
        self._constraints: list[Dependency] = []
        self._methods: dict[str, AccessMethod] = {}
        for relation in relations:
            self.add(relation)
        for constraint in constraints:
            self.add_constraint(constraint)
        for method in methods:
            self.add(method)

    # ------------------------------------------------------------------
    # Builder API
    # ------------------------------------------------------------------
    def add(self, item: Union[Relation, AccessMethod, Dependency]) -> None:
        if isinstance(item, Relation):
            existing = self._relations.get(item.name)
            if existing is not None and existing != item:
                raise SchemaError(f"conflicting relation {item.name}")
            self._relations[item.name] = item
        elif isinstance(item, AccessMethod):
            self.add(item.relation)
            if item.name in self._methods:
                raise SchemaError(f"duplicate method name {item.name}")
            self._methods[item.name] = item
        else:
            self.add_constraint(item)

    def add_relation(
        self,
        name: str,
        arity: int,
        attributes: Optional[Sequence[str]] = None,
    ) -> Relation:
        relation = Relation(
            name, arity, tuple(attributes) if attributes else None
        )
        self.add(relation)
        return relation

    def add_method(
        self,
        name: str,
        relation: str,
        inputs: Iterable[int] = (),
        *,
        result_bound: Optional[int] = None,
        result_lower_bound: Optional[int] = None,
    ) -> AccessMethod:
        if relation not in self._relations:
            raise SchemaError(f"unknown relation {relation}")
        method = AccessMethod(
            name,
            self._relations[relation],
            frozenset(inputs),
            result_bound,
            result_lower_bound,
        )
        self.add(method)
        return method

    def add_constraint(self, constraint: Dependency) -> None:
        if isinstance(constraint, FunctionalDependency):
            arity = self._relation_of(constraint.relation, constraint).arity
            positions = (*constraint.determiner, constraint.determined)
            fits = all(0 <= position < arity for position in positions)
        else:
            atoms = (*constraint.body, *getattr(constraint, "head", ()))
            fits = all(
                self._relation_of(atom.relation, constraint).arity
                == len(atom.terms)
                for atom in atoms
            )
        if not fits:
            raise SchemaError(
                f"constraint does not fit the declared arities: {constraint}"
            )
        self._constraints.append(constraint)

    def _relation_of(self, name: str, constraint: Dependency) -> Relation:
        relation = self._relations.get(name)
        if relation is None:
            raise SchemaError(
                f"constraint mentions unknown relation {name}: {constraint}"
            )
        return relation

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def relations(self) -> tuple[Relation, ...]:
        return tuple(self._relations.values())

    @property
    def constraints(self) -> tuple[Dependency, ...]:
        return tuple(self._constraints)

    @property
    def methods(self) -> tuple[AccessMethod, ...]:
        return tuple(self._methods.values())

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name}") from None

    def method(self, name: str) -> AccessMethod:
        try:
            return self._methods[name]
        except KeyError:
            raise SchemaError(f"unknown method {name}") from None

    def methods_on(self, relation: str) -> tuple[AccessMethod, ...]:
        return tuple(
            m for m in self._methods.values() if m.relation.name == relation
        )

    def arities(self) -> dict[str, int]:
        return {name: rel.arity for name, rel in self._relations.items()}

    def check_query(self, query: "ConjunctiveQuery") -> None:
        """Raise `QuerySchemaError` unless every atom of ``query`` names
        a declared relation and has its arity."""
        check_query_fits(query, self.arities())

    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def result_bounded_methods(self) -> tuple[AccessMethod, ...]:
        return tuple(
            m
            for m in self._methods.values()
            if m.is_result_bounded() or m.has_lower_bound_only()
        )

    def has_result_bounds(self) -> bool:
        return bool(self.result_bounded_methods())

    def classified_constraints(
        self, *, width_bound: Optional[int] = 2
    ) -> ClassifiedConstraints:
        return classify(self._constraints, width_bound=width_bound)

    def constraint_class(
        self, *, width_bound: Optional[int] = 2
    ) -> ConstraintClass:
        return self.classified_constraints(width_bound=width_bound).fragment

    def satisfied_by(self, instance: Instance) -> bool:
        """True iff the instance satisfies every constraint."""
        return all(c.satisfied_by(instance) for c in self._constraints)

    # ------------------------------------------------------------------
    def copy(self) -> "Schema":
        return Schema(self.relations, self.constraints, self.methods)

    def replace_methods(self, methods: Iterable[AccessMethod]) -> "Schema":
        """A copy of the schema with a different method set."""
        return Schema(self.relations, self.constraints, methods)

    def __repr__(self) -> str:
        lines = ["Schema:"]
        lines.extend(f"  relation {r!r}" for r in self.relations)
        lines.extend(f"  method {m!r}" for m in self.methods)
        lines.extend(f"  constraint {c!r}" for c in self.constraints)
        return "\n".join(lines)
