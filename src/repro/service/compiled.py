"""Compiled schemas: per-schema analysis amortized across queries.

The deciders in `repro.answerability` derive several expensive,
*query-independent* artifacts from a schema:

* the detected constraint class (Table-1 dispatch);
* the §4/§6 schema simplifications (existence-check, FD, choice);
* the AMonDet constraint set Γ of Prop 3.4, per simplification;
* the linearized system Σ^Lin of Prop 5.5 (truncated-accessibility
  saturation — the dominant cost of the ID route);
* the separability axioms of Thm 7.2 and the finite closure Σ* of
  Cor 7.3.

A `CompiledSchema` is an immutable artifact bundling the source schema
with a content fingerprint and a lazily-computed-then-frozen cache of
those outputs, so a `Session` (or any caller deciding many queries
against one schema) runs each analysis exactly once.  The `stats`
counters record how many times each artifact was actually built — the
test suite asserts they stay at one across repeated decisions.
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from ..constraints.analysis import ClassifiedConstraints, ConstraintClass
from ..constraints.fd import FunctionalDependency
from ..constraints.tgd import TGD
from ..obs.timing import stage
from ..io import schema_from_dict, schema_to_dict
from ..runtime import forbid_build
from ..schema.access import AccessMethod
from ..schema.schema import Schema, check_query_fits

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..answerability.linearization import LinearizedSystem
    from ..answerability.simplification import SimplificationResult
    from ..containment.rewriting import RewriteEngine
    from ..logic.queries import ConjunctiveQuery
    from ..matching.matcher import Matcher

#: Simplification kinds a compiled schema can hold.
SIMPLIFICATION_KINDS = ("existence-check", "fd", "choice")

#: `CompiledSchema._artifact`'s marker for an artifact not built yet.
_MISSING = object()


def schema_fingerprint(schema: Schema) -> str:
    """A content fingerprint of the schema (order-insensitive).

    Two schemas with the same relations, attributes, methods (including
    bounds), and constraints — in any declaration order — get the same
    fingerprint; any semantic difference changes it.
    """
    description = schema_to_dict(schema)
    description["methods"] = sorted(
        description["methods"], key=lambda entry: entry["name"]
    )
    description["constraints"] = sorted(description["constraints"])
    blob = json.dumps(description, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class CompiledSchema:
    """An immutable schema plus its frozen per-schema analysis outputs.

    Build one with `compile_schema` (or `from_description` for an
    inline JSON description); every decider accepts it in place of a
    raw `Schema`.  Only the content ``fingerprint`` and the relation
    arities the query fit check reads are computed up front.  Every
    other artifact — the constraint classification and the
    result-bounded methods included — is computed on first use and
    frozen; `stats` counts how often each was built (at most once).

    A *recalled* schema (`from_description` with the ``fingerprint`` a
    parse of the same spelling produced before) does not even parse
    its description up front: the parse is the ``schema`` artifact,
    built on first need — a decision-cache miss, a plan, `schema` or
    `repr` — so answering from the decision caches never parses it.
    """

    def __init__(self, schema: Schema) -> None:
        # Private copy: later mutation of the caller's Schema must not
        # invalidate the fingerprint or the frozen artifacts.
        self._start(schema.copy())

    @classmethod
    def from_description(
        cls, description: dict, fingerprint: Optional[str] = None
    ) -> "CompiledSchema":
        """Compile an inline JSON description (`repro.io` format).

        The parse belongs to the compiled schema alone, so it is not
        copied.  ``fingerprint``, when given, must be the fingerprint
        an earlier parse of this exact spelling produced (the
        description's ``relations`` section was validated by that
        parse): the description is then parsed only on first need.
        The caller must not mutate ``description`` afterwards.
        """
        if fingerprint is None:
            return cls._owned(schema_from_dict(description))
        compiled = cls.__new__(cls)
        compiled._start(
            None, fingerprint=fingerprint, description=description
        )
        return compiled

    @classmethod
    def _owned(cls, schema: Schema) -> "CompiledSchema":
        """Compile a schema nobody else holds, without copying it."""
        compiled = cls.__new__(cls)
        compiled._start(schema)
        return compiled

    def _start(
        self,
        schema: Optional[Schema],
        fingerprint: Optional[str] = None,
        description: Optional[dict] = None,
    ) -> None:
        """Take ownership of ``schema``, or (recalled) of a fingerprint
        and the description to parse on first need."""
        self.stats: dict[str, int] = {}
        self._artifacts: dict[str, Any] = {}
        self._lock = threading.RLock()
        self._description = description
        if schema is None:
            self.fingerprint: str = fingerprint
            self._arities: dict[str, int] = dict(description["relations"])
        else:
            self._artifacts["schema"] = schema
            self.fingerprint = schema_fingerprint(schema)
            self._arities = schema.arities()

    @property
    def _schema(self) -> Schema:
        """The compiled schema itself (parsed on first use if recalled)."""
        return self._artifact(
            "schema", lambda: schema_from_dict(self._description)
        )

    @property
    def schema(self) -> Schema:
        """A copy of the compiled schema (mutating it cannot desync the
        fingerprint or the frozen artifacts)."""
        return self._schema.copy()

    @property
    def classified(self) -> ClassifiedConstraints:
        """The Table 1 classification of the constraints."""
        return self._artifact(
            "classified", lambda: self._schema.classified_constraints()
        )

    @property
    def constraint_class(self) -> ConstraintClass:
        return self.classified.fragment

    @property
    def result_bounded_methods(self) -> tuple[AccessMethod, ...]:
        return self._artifact(
            "result-bounded-methods",
            lambda: self._schema.result_bounded_methods(),
        )

    @property
    def has_result_bounds(self) -> bool:
        return bool(self.result_bounded_methods)

    def check_query(self, query: "ConjunctiveQuery") -> None:
        """Raise `QuerySchemaError` unless the query fits the schema
        (the one check every decider and `Session` runs; it reads the
        relation arities only, so it never parses a recalled schema)."""
        check_query_fits(query, self._arities)

    # ------------------------------------------------------------------
    def _artifact(self, key: str, build: Callable[[], Any]) -> Any:
        """Build-once storage: the first caller computes, the rest read
        (a built artifact is read without the lock).  On a serve loop's
        slice nothing is built: `forbid_build` hands the request to a
        decision thread first."""
        artifact = self._artifacts.get(key, _MISSING)
        if artifact is not _MISSING:
            return artifact
        forbid_build(f"artifact {key!r}")
        with self._lock:
            if key not in self._artifacts:
                self.stats[key] = self.stats.get(key, 0) + 1
                # First-use artifact builds inside a request are
                # compile work, not decide work — attribute them so.
                with stage("compile"):
                    self._artifacts[key] = build()
            return self._artifacts[key]

    # ------------------------------------------------------------------
    # Frozen artifacts
    # ------------------------------------------------------------------
    def elimub(self) -> Schema:
        """ElimUB(Sch): result bounds turned into lower bounds (Prop 3.3)."""
        from ..answerability.elimub import elim_ub

        return self._artifact("elimub", lambda: elim_ub(self._schema))

    def simplification(self, kind: str) -> "SimplificationResult":
        """The §4/§6 simplification of ElimUB(Sch) for ``kind`` (one of
        ``existence-check`` / ``fd`` / ``choice``)."""
        from ..answerability.simplification import (
            choice_simplification,
            existence_check_simplification,
            fd_simplification,
        )

        transforms = {
            "existence-check": existence_check_simplification,
            "fd": fd_simplification,
            "choice": choice_simplification,
        }
        if kind not in transforms:
            raise ValueError(f"unknown simplification kind {kind!r}")
        return self._artifact(
            f"simplification:{kind}", lambda: transforms[kind](self.elimub())
        )

    def amondet(self, kind: str) -> tuple:
        """Γ for the AMonDet containment over the ``kind``-simplified
        schema (``direct`` builds it over the original schema — only
        legal when the schema carries no result bounds)."""
        from ..answerability.axioms import amondet_constraints

        if kind == "direct":
            build = lambda: tuple(amondet_constraints(self._schema))
        else:
            build = lambda: tuple(
                amondet_constraints(self.simplification(kind).schema)
            )
        return self._artifact(f"amondet:{kind}", build)

    def linearization(self) -> "LinearizedSystem":
        """Σ^Lin of Prop 5.5 over ElimUB(Sch) (ID constraints only)."""
        from ..answerability.linearization import linearize

        return self._artifact(
            "linearization", lambda: linearize(self.elimub())
        )

    def rewrite_engine(self) -> "RewriteEngine":
        """The incremental backward-rewriting engine over Σ^Lin.

        One subsumption-pruning engine per fingerprint: every query
        decided on the ID route through this compiled schema shares its
        memoized rule index, per-atom rewrite steps, and canonical
        frontier states, and it searches with this schema's matcher.
        """
        from ..containment.rewriting import RewriteEngine

        return self._artifact(
            "rewrite-engine",
            lambda: RewriteEngine(
                self.linearization().rules,
                subsumption=True,
                matcher=self.matcher(),
            ),
        )

    def engine_stats(self) -> dict:
        """Cache counters of the rewrite engine ({} until it is built)."""
        with self._lock:
            engine = self._artifacts.get("rewrite-engine")
        return engine.stats() if engine is not None else {}

    def matcher(self) -> "Matcher":
        """The compiled homomorphism matcher owned by this fingerprint.

        Every decision routed through this schema shares its memoized
        match plans (join orders, instruction tuples) and its
        generation-invalidated check caches — chase trigger search,
        activeness checks, containment probes, and the rewrite engine's
        isomorphism dedup all run on this one matcher.
        """
        from ..matching.matcher import Matcher

        return self._artifact("matcher", lambda: Matcher())

    def matcher_stats(self) -> dict:
        """Plan/check cache counters ({} until the matcher is built)."""
        with self._lock:
            matcher = self._artifacts.get("matcher")
        return matcher.stats() if matcher is not None else {}

    def uids_fds(self) -> tuple[tuple[FunctionalDependency, ...], tuple]:
        """The Thm 7.2 artifacts: the FDs of the choice-simplified
        schema, plus the full constraint set for its GTGD containment
        (UIDs, their primed copies, and the separability axioms)."""

        def build() -> tuple[tuple[FunctionalDependency, ...], tuple]:
            from ..answerability.axioms import prime_constraint
            from ..answerability.deciders import _separability_axioms

            working = self.simplification("choice").schema
            fds = tuple(
                c
                for c in working.constraints
                if isinstance(c, FunctionalDependency)
            )
            uids = tuple(
                c for c in working.constraints if isinstance(c, TGD)
            )
            constraints = list(uids)
            constraints.extend(prime_constraint(c) for c in uids)
            constraints.extend(_separability_axioms(working, list(fds)))
            return fds, tuple(constraints)

        return self._artifact("uids-fds", build)

    def finite_closure(self) -> "CompiledSchema":
        """Sch* of Cor 7.3, compiled (UIDs + FDs finite variant)."""
        from ..answerability.finite import schema_with_finite_closure

        return self._artifact(
            "finite-closure",
            lambda: CompiledSchema._owned(
                schema_with_finite_closure(self._schema)
            ),
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"CompiledSchema({self.fingerprint[:12]}, "
            f"{self.constraint_class.value}, "
            f"{len(self._schema.relations)} relations, "
            f"{len(self._schema.methods)} methods)"
        )


def compile_schema(schema: Schema) -> CompiledSchema:
    """Compile a schema into an immutable, analysis-carrying artifact."""
    return CompiledSchema(schema)


def as_compiled(schema: Union[Schema, CompiledSchema]) -> CompiledSchema:
    """Coerce: pass compiled schemas through, compile raw ones."""
    if isinstance(schema, CompiledSchema):
        return schema
    return compile_schema(schema)
