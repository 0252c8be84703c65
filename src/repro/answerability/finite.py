"""Finite monotone answerability (Prop 2.2, Thm 7.4, Cor 7.3).

The paper's results are stated over all instances (finite and infinite);
this module handles the *finite* variant:

* for **finitely controllable** constraint classes — FDs, IDs,
  frontier-guarded TGDs (§2 / App B) — finite and unrestricted monotone
  answerability coincide (Prop 2.2), so the finite decider simply
  delegates;
* **UIDs + FDs** are *not* finitely controllable; Cor 7.3 reduces the
  finite variant to the unrestricted one over the **finite closure** Σ*
  (Cosmadakis–Kanellakis–Vardi), computed by
  `repro.constraints.finite_closure`.

The dividend: a query can be finitely answerable without being
answerable — the cycle rule adds dependencies that only hold in finite
models, and they can enable plans (see the tests for a worked case).
"""

from __future__ import annotations

from typing import Optional

from ..constraints.analysis import ConstraintClass
from ..constraints.fd import FunctionalDependency
from ..constraints.finite_closure import finite_closure
from ..constraints.tgd import TGD
from ..containment.decision import Decision
from ..logic.queries import ConjunctiveQuery
from ..runtime import Budget
from ..schema.schema import Schema
from ..containment.rewriting import DEFAULT_MAX_DISJUNCTS
from .deciders import (
    DEFAULT_CHASE_FACTS,
    AnswerabilityResult,
    SchemaLike,
    _compiled_for,
    decide_monotone_answerability,
    decide_with_uids_and_fds,
)

#: Fragments where finite controllability lets us delegate (Prop 2.2).
_FINITELY_CONTROLLABLE = {
    ConstraintClass.NONE,
    ConstraintClass.FDS,
    ConstraintClass.IDS,
    ConstraintClass.BOUNDED_WIDTH_IDS,
    ConstraintClass.FRONTIER_GUARDED_TGDS,
    ConstraintClass.GUARDED_TGDS,
}


def schema_with_finite_closure(schema: Schema) -> Schema:
    """The schema Sch* of Cor 7.3: constraints replaced by Σ*."""
    uids = [c for c in schema.constraints if isinstance(c, TGD)]
    fds = [
        c for c in schema.constraints if isinstance(c, FunctionalDependency)
    ]
    closure = finite_closure(uids, fds, schema.arities())
    result = Schema(schema.relations, (), schema.methods)
    for dependency in closure.uid_tgds(schema.arities()):
        result.add_constraint(dependency)
    for dependency in sorted(closure.fds, key=repr):
        result.add_constraint(dependency)
    return result


def decide_finite_monotone_answerability(
    schema: SchemaLike,
    query: ConjunctiveQuery,
    *,
    max_rounds: Optional[int] = 25,
    max_facts: int = DEFAULT_CHASE_FACTS,
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    budget: Optional[Budget] = None,
) -> AnswerabilityResult:
    """Decide monotone answerability over *finite* instances.

    Dispatch: finitely controllable fragments delegate to the
    unrestricted decider (Prop 2.2); UIDs + FDs go through the finite
    closure (Cor 7.3, compiled and cached on the `CompiledSchema`);
    other fragments with result bounds are out of the paper's decidable
    territory and return UNKNOWN.
    """
    compiled = _compiled_for(schema, query)
    fragment = compiled.constraint_class
    if fragment in _FINITELY_CONTROLLABLE:
        result = decide_monotone_answerability(
            compiled,
            query,
            max_rounds=max_rounds,
            max_facts=max_facts,
            max_disjuncts=max_disjuncts,
            budget=budget,
        )
        result.decision.detail["finite_variant"] = (
            "delegated (finitely controllable, Prop 2.2)"
        )
        return result
    if fragment is ConstraintClass.UIDS_AND_FDS:
        closed = compiled.finite_closure()
        decision = decide_with_uids_and_fds(
            closed,
            query,
            max_rounds=max_rounds,
            max_facts=max_facts,
            budget=budget,
        )
        decision.detail["finite_variant"] = (
            "finite closure Σ* (Cor 7.3 / Thm 7.4)"
        )
        return AnswerabilityResult(
            decision, "finite-closure+choice", fragment
        )
    return AnswerabilityResult(
        Decision.unknown(
            "no finite-variant reduction for constraint class "
            f"{fragment.value}"
        ),
        "unsupported",
        fragment,
    )
