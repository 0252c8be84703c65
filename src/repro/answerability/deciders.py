"""Decision procedures for monotone answerability, per constraint class.

Each decider follows the paper's recipe for its Table-1 row:

* `decide_with_fds` (Thm 5.2, NP): FD simplification, then the inlined
  containment, whose restricted chase terminates in polynomially many
  rounds;
* `decide_with_ids` (Thm 5.3/5.4, EXPTIME / NP for bounded width):
  result bounds are existence checks (Thm 4.2); the containment is
  *linearized* (Prop 5.5) and decided completely by backward UCQ
  rewriting; a direct chase route is kept as an ablation baseline;
* `decide_with_uids_and_fds` (Thm 7.2, EXPTIME): choice simplification
  (Thm 6.4), the separability rewriting that exports FD-determined
  positions, FD-minimization of Q, then a GTGD chase;
* `decide_with_choice_simplification` (Thm 7.1 / Thm 6.3): choice
  simplification then the guarded chase — complete whenever the chase
  terminates, else honest UNKNOWN (containment for FGTGDs is
  2EXPTIME-complete; for arbitrary equality-free FO it is undecidable,
  Prop 8.2).

`decide_monotone_answerability` dispatches on the detected constraint
class.  Non-Boolean queries are decided by freezing their free variables
into fresh constants (the standard reduction the paper alludes to in §2).

Every decider accepts either a raw `Schema` or a
`repro.service.CompiledSchema`; raw schemas are compiled on the fly, so
the free functions keep their historical behavior while sessions
deciding many queries amortize the per-schema analysis (simplification,
AMonDet axioms, linearization) across calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from ..chase.engine import ChaseOutcome, chase
from ..constraints.analysis import ConstraintClass
from ..constraints.fd import FunctionalDependency, det_by
from ..constraints.tgd import TGD
from ..containment.decision import Decision, Truth
from ..containment.rewriting import (
    DEFAULT_MAX_DISJUNCTS,
    RewritingBudgetExceeded,
    RewritingError,
)
from ..data.instance import Instance
from ..defaults import DEFAULT_CHASE_FACTS, DEFAULT_CHASE_ROUNDS
from ..logic.atoms import Atom
from ..logic.evaluation import holds
from ..logic.queries import ConjunctiveQuery
from ..logic.terms import Constant, Variable
from ..runtime import Budget
from ..schema.schema import Schema
from .axioms import (
    amondet_start_instance,
    exact_method_axioms,
    prime_query,
)
from .naming import ACCESSIBLE, primed

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..service.compiled import CompiledSchema

SchemaLike = Union[Schema, "CompiledSchema"]


def _compiled_for(
    schema: SchemaLike, query: ConjunctiveQuery
) -> "CompiledSchema":
    """The compiled schema, after checking that ``query`` fits it: a
    misfit atom raises `repro.schema.QuerySchemaError`."""
    # Imported lazily: `repro.service` depends on this module.
    from ..service.compiled import as_compiled

    compiled = as_compiled(schema)
    compiled.check_query(query)
    return compiled


def freeze_free_variables(
    query: ConjunctiveQuery,
) -> tuple[ConjunctiveQuery, dict[Variable, Constant]]:
    """Turn a non-Boolean CQ into a Boolean one by freezing free
    variables into fresh distinguished constants."""
    freezing = {
        v: Constant(("@free", v.name)) for v in query.free_variables
    }
    boolean = ConjunctiveQuery(
        tuple(a.substitute(freezing) for a in query.atoms),
        (),
        query.name + "_b",
    )
    return boolean, freezing


def _chase_containment(
    start: Instance,
    constraints,
    target: ConjunctiveQuery,
    *,
    max_rounds: Optional[int],
    max_facts: int = DEFAULT_CHASE_FACTS,
    engine: str = "delta",
    matcher=None,
    budget: Optional[Budget] = None,
) -> Decision:
    """Run the containment chase from an explicit start instance.

    ``matcher`` is the compiled schema's per-fingerprint matcher: the
    chase's trigger/activeness searches and the per-round target probe
    all share its plans and check caches across queries.  ``budget`` is
    handed to the chase (checked every round) and to the per-round
    target probe; `repro.runtime.DeadlineExceeded` propagates to the
    caller rather than being folded into a Decision.
    """
    if matcher is not None:
        stop_when = lambda inst: matcher.has(  # noqa: E731
            target.atoms, inst, budget=budget
        )
    else:
        stop_when = lambda inst: holds(target, inst)  # noqa: E731
    result = chase(
        start,
        constraints,
        max_rounds=max_rounds,
        max_facts=max_facts,
        stop_when=stop_when,
        record_steps=True,
        engine=engine,
        matcher=matcher,
        budget=budget,
    )
    if result.outcome is ChaseOutcome.FAILED:
        return Decision.yes(
            "query unsatisfiable under the constraints", rounds=result.rounds
        )
    if result.outcome is ChaseOutcome.EARLY_STOP:
        return Decision.yes(
            f"AMonDet containment proved at chase round {result.rounds}",
            certificate=result,
            rounds=result.rounds,
        )
    if result.outcome is ChaseOutcome.FIXPOINT:
        return Decision.no(
            "chase fixpoint (universal model) refutes the containment",
            certificate=result,
            rounds=result.rounds,
        )
    return Decision.unknown(
        f"chase bound hit after {result.rounds} rounds / "
        f"{len(result.instance)} facts",
        rounds=result.rounds,
        error={
            "type": "ChaseBudgetExceeded",
            "rounds": result.rounds,
            "facts": len(result.instance),
        },
    )


# ----------------------------------------------------------------------
# FDs (Theorem 5.2) — also covers the constraint-free case
# ----------------------------------------------------------------------
def decide_with_fds(
    schema: SchemaLike,
    query: ConjunctiveQuery,
    *,
    max_rounds: Optional[int] = 500,
    max_facts: int = DEFAULT_CHASE_FACTS,
    budget: Optional[Budget] = None,
) -> Decision:
    """Monotone answerability for FD constraints (NP, Thm 5.2).

    Applies the FD simplification (Thm 4.5) and chases; the chase
    terminates (the only existential rules fire once per view fact), so
    the answer is definitive.
    """
    compiled = _compiled_for(schema, query)
    if query.free_variables:
        query, __ = freeze_free_variables(query)
    simplified = compiled.simplification("fd")
    decision = _chase_containment(
        amondet_start_instance(query),
        compiled.amondet("fd"),
        prime_query(query),
        max_rounds=max_rounds,
        max_facts=max_facts,
        matcher=compiled.matcher(),
        budget=budget,
    )
    decision.detail["simplification"] = simplified.kind
    return decision


# ----------------------------------------------------------------------
# IDs (Theorems 5.3 / 5.4) — linearization route (complete) + chase route
# ----------------------------------------------------------------------
def decide_with_ids(
    schema: SchemaLike,
    query: ConjunctiveQuery,
    *,
    route: str = "linearization",
    max_rounds: Optional[int] = DEFAULT_CHASE_ROUNDS,
    max_facts: int = DEFAULT_CHASE_FACTS,
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    budget: Optional[Budget] = None,
) -> Decision:
    """Monotone answerability for ID constraints.

    ``route="linearization"`` (default) is complete and terminating: the
    containment is simulated by linear TGDs (Prop 5.5) and decided by
    the piece-wise backward rewriting of the compiled schema's
    `RewriteEngine` (`RewriteEngine.entails`) over the saturated
    canonical database — so a batch of queries over one compiled
    schema shares every rewriting step, and queries with a piece in
    common share that piece's whole rewriting.  ``route="chase"``
    applies the existence-check simplification and chases directly
    (ablation baseline; may return UNKNOWN on divergent chases).  The
    engine prunes rewriting disjuncts hom-implied by smaller kept ones
    before the probes; the pruned UCQ is logically equivalent to the
    raw one, so fewer disjuncts are matched for the same decision.
    """
    compiled = _compiled_for(schema, query)
    if query.free_variables:
        query, __ = freeze_free_variables(query)
    if route == "chase":
        decision = _chase_containment(
            amondet_start_instance(query),
            compiled.amondet("existence-check"),
            prime_query(query),
            max_rounds=max_rounds,
            max_facts=max_facts,
            matcher=compiled.matcher(),
            budget=budget,
        )
        decision.detail["route"] = "chase"
        return decision
    if route != "linearization":
        raise ValueError(f"unknown route {route}")

    start = compiled.linearization().initial_instance(query)
    try:
        decision = compiled.rewrite_engine().entails(
            start,
            prime_query(query),
            max_disjuncts=max_disjuncts,
            budget=budget,
        )
    except RewritingBudgetExceeded as error:
        return Decision.unknown(
            str(error), route="linearization", error=error.as_detail()
        )
    except RewritingError as error:
        return Decision.unknown(str(error), route="linearization")
    decision.reason = f"linearized containment (Prop 5.5), {decision.reason}"
    decision.detail["route"] = "linearization"
    return decision


# ----------------------------------------------------------------------
# UIDs + FDs (Theorem 7.2)
# ----------------------------------------------------------------------
def _separability_axioms(
    schema: Schema, fds: list[FunctionalDependency]
) -> list[TGD]:
    """Choice axioms rewritten to export FD-determined positions.

    For a bound-1 method mt on R with inputs x̄, the head tuple keeps the
    body variables at every position of DetBy(R, x̄) and uses fresh
    existentials elsewhere; this makes the TGDs separable from the FDs
    (proof of Thm 7.2).
    """
    axioms: list[TGD] = []
    for method in schema.methods:
        if method.effective_bound() is None:
            axioms.extend(exact_method_axioms(method, inline=True))
            continue
        relation = method.relation.name
        arity = method.relation.arity
        determined = det_by(fds, relation, method.input_positions)
        terms = [Variable(f"x{i}") for i in range(arity)]
        premises = [
            Atom(ACCESSIBLE, (terms[i],))
            for i in sorted(method.input_positions)
        ]
        body = tuple(premises) + (Atom(relation, tuple(terms)),)
        head_terms = [
            terms[i] if i in determined else Variable(f"z{i}")
            for i in range(arity)
        ]
        head = [
            Atom(relation, tuple(head_terms)),
            Atom(primed(relation), tuple(head_terms)),
        ]
        head.extend(
            Atom(ACCESSIBLE, (head_terms[i],))
            for i in method.output_positions
        )
        axioms.append(TGD(body, tuple(head), f"sep_choice_{method.name}"))
    return axioms


def minimize_query_under_fds(
    query: ConjunctiveQuery, fds: list[FunctionalDependency]
) -> Optional[ConjunctiveQuery]:
    """Q*: the query with FD-implied equalities applied.

    Returns None when the FDs make the query unsatisfiable (constant
    clash), in which case it is trivially monotone answerable (a plan
    returning the empty table answers it).
    """
    canonical, freezing = query.canonical_instance()
    result = chase(canonical, fds)
    if result.outcome is ChaseOutcome.FAILED:
        return None
    unfreeze: dict = {}
    for variable, null in freezing.items():
        representative = result.substitution.get(null, null)
        unfreeze.setdefault(representative, variable)
    atoms = []
    for fact in result.instance:
        terms = tuple(unfreeze.get(t, t) for t in fact.terms)
        atoms.append(Atom(fact.relation, terms))
    return ConjunctiveQuery(tuple(atoms), (), query.name + "_min")


def decide_with_uids_and_fds(
    schema: SchemaLike,
    query: ConjunctiveQuery,
    *,
    max_rounds: Optional[int] = DEFAULT_CHASE_ROUNDS,
    max_facts: int = DEFAULT_CHASE_FACTS,
    budget: Optional[Budget] = None,
) -> Decision:
    """Monotone answerability for UIDs + FDs (Thm 7.2).

    Choice simplification (Thm 6.4), separability rewriting, FD
    minimization of Q, then the FDs are dropped and the remaining GTGD
    containment is chased.  Definitive on termination; UNKNOWN at the
    round cap (the paper's EXPTIME bound uses a generalized linearization
    we approximate by the chase — see DESIGN.md §2).
    """
    compiled = _compiled_for(schema, query)
    if query.free_variables:
        query, __ = freeze_free_variables(query)
    fds, constraints = compiled.uids_fds()

    minimized = minimize_query_under_fds(query, list(fds))
    if minimized is None:
        return Decision.yes(
            "query unsatisfiable under the FDs; the empty plan answers it",
            simplification="choice",
        )

    start, __ = minimized.canonical_instance()
    for constant in minimized.constants():
        start.add(Atom(ACCESSIBLE, (constant,)))
    decision = _chase_containment(
        start,
        constraints,
        prime_query(minimized),
        max_rounds=max_rounds,
        max_facts=max_facts,
        matcher=compiled.matcher(),
        budget=budget,
    )
    decision.detail["simplification"] = "choice+separability"
    return decision


# ----------------------------------------------------------------------
# Expressive classes via choice simplification (Thm 6.3 / 7.1)
# ----------------------------------------------------------------------
def decide_with_choice_simplification(
    schema: SchemaLike,
    query: ConjunctiveQuery,
    *,
    max_rounds: Optional[int] = DEFAULT_CHASE_ROUNDS,
    max_facts: int = DEFAULT_CHASE_FACTS,
    budget: Optional[Budget] = None,
) -> Decision:
    """Monotone answerability via choice simplification (TGD classes).

    Sound for all equality-free constraints (Thm 6.3); the chase-based
    containment is definitive when it terminates (e.g. weakly-acyclic or
    full TGDs) and UNKNOWN at the cap otherwise.
    """
    compiled = _compiled_for(schema, query)
    if query.free_variables:
        query, __ = freeze_free_variables(query)
    decision = _chase_containment(
        amondet_start_instance(query),
        compiled.amondet("choice"),
        prime_query(query),
        max_rounds=max_rounds,
        max_facts=max_facts,
        matcher=compiled.matcher(),
        budget=budget,
    )
    decision.detail["simplification"] = "choice"
    return decision


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------
@dataclass
class AnswerabilityResult:
    """A decision plus the route that produced it."""

    decision: Decision
    route: str
    constraint_class: ConstraintClass

    @property
    def truth(self) -> Truth:
        return self.decision.truth

    @property
    def is_yes(self) -> bool:
        return self.decision.is_yes

    @property
    def is_no(self) -> bool:
        return self.decision.is_no

    @property
    def is_unknown(self) -> bool:
        return self.decision.is_unknown


def decide_monotone_answerability(
    schema: SchemaLike,
    query: ConjunctiveQuery,
    *,
    max_rounds: Optional[int] = DEFAULT_CHASE_ROUNDS,
    max_facts: int = DEFAULT_CHASE_FACTS,
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    budget: Optional[Budget] = None,
) -> AnswerabilityResult:
    """Decide monotone answerability, dispatching on the constraint class.

    The routes implement Table 1 of the paper; see the per-class deciders
    for guarantees.  ``max_rounds`` caps the semidecidable chase routes
    only (the FD route's chase terminates on its own; the linearized ID
    route does not chase).  ``max_disjuncts`` bounds the backward
    rewriting of the ID route; exceeding it yields UNKNOWN with a
    structured `RewritingBudgetExceeded` detail.  Schemas
    mixing arbitrary TGDs with FDs *and* carrying result bounds have no
    applicable simplifiability theorem (the paper leaves choice
    simplifiability of FDs + general IDs open, §9) — those return
    UNKNOWN.
    """
    compiled = _compiled_for(schema, query)
    fragment = compiled.constraint_class
    if fragment in (ConstraintClass.NONE, ConstraintClass.FDS):
        return AnswerabilityResult(
            decide_with_fds(
                compiled,
                query,
                max_facts=max_facts,
                budget=budget,
            ),
            "fd-simplification",
            fragment,
        )
    if fragment in (
        ConstraintClass.IDS,
        ConstraintClass.BOUNDED_WIDTH_IDS,
    ):
        return AnswerabilityResult(
            decide_with_ids(
                compiled,
                query,
                max_facts=max_facts,
                max_disjuncts=max_disjuncts,
                budget=budget,
            ),
            "linearization",
            fragment,
        )
    if fragment is ConstraintClass.UIDS_AND_FDS:
        return AnswerabilityResult(
            decide_with_uids_and_fds(
                compiled,
                query,
                max_rounds=max_rounds,
                max_facts=max_facts,
                budget=budget,
            ),
            "choice+separability",
            fragment,
        )
    if fragment in (
        ConstraintClass.FULL_TGDS,
        ConstraintClass.GUARDED_TGDS,
        ConstraintClass.FRONTIER_GUARDED_TGDS,
        ConstraintClass.EQUALITY_FREE,
    ):
        return AnswerabilityResult(
            decide_with_choice_simplification(
                compiled,
                query,
                max_rounds=max_rounds,
                max_facts=max_facts,
                budget=budget,
            ),
            "choice-simplification",
            fragment,
        )
    if not compiled.has_result_bounds:
        # No bounds: Prop 3.4 applies directly for arbitrary dependencies.
        if query.free_variables:
            query, __ = freeze_free_variables(query)
        decision = _chase_containment(
            amondet_start_instance(query),
            compiled.amondet("direct"),
            prime_query(query),
            max_rounds=max_rounds,
            max_facts=max_facts,
            matcher=compiled.matcher(),
            budget=budget,
        )
        return AnswerabilityResult(decision, "direct", fragment)
    return AnswerabilityResult(
        Decision.unknown(
            "no simplifiability theorem covers result bounds with "
            f"constraint class {fragment.value} (open per paper §9)"
        ),
        "unsupported",
        fragment,
    )
