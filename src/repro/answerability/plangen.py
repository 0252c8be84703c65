"""Extracting static plans (in the paper's plan language) from proofs.

The deciders prove answerability by exhibiting a chase proof of the
AMonDet containment.  This module compiles such a proof into a concrete
monotone plan, in the spirit of the proof-to-plan extraction of
Benedikt et al. ("Generating plans from proofs") that the paper builds
on:

1. **Provenance closure**: starting from the match of Q' in the final
   chase instance, walk back through the recorded steps to the set of
   *transfer* firings (our ``access_*`` / ``choice_*`` / ``sep_choice_*``
   axioms) that injected primed facts.  Their unprimed patterns form the
   **final CQ** C: a conjunction of "this tuple was retrieved" atoms with
   C ⊨_Σ Q (soundness) and C guaranteed retrievable whenever Q(I) holds
   (completeness, from the proof).
2. **Saturation prefix**: the proof's depth d bounds how many rounds of
   exhaustive accesses are needed to make C's tuples visible.  The plan
   performs d rounds; round r accesses every method with every binding
   over the values collected so far (query constants seed round 0).
3. **Final middleware command**: evaluate C over the per-relation unions
   of access outputs and project to the Boolean answer.

The extraction works for Boolean queries on schemas whose methods the
proof's axioms mention directly — which is the case for the
choice-simplification routes (same method names as the original schema;
a plan valid under bound 1 remains valid under bound k, since every
lower-bound-k output is a lower-bound-1 output and Prop 3.3 bridges to
result bounds) and for the FD route (view accesses translate to
original-method accesses that project onto the DetBy positions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..chase.engine import ChaseResult, MergeStep, TGDStep
from ..logic.atoms import Atom
from ..logic.homomorphism import find_homomorphism
from ..logic.queries import ConjunctiveQuery
from ..logic.terms import Constant, GroundTerm, Variable
from ..plans.algebra import (
    ConstantRow,
    Expression,
    Join,
    Product,
    Projection,
    Selection,
    TableRef,
    Union,
    Unit,
)
from ..plans.plan import AccessCommand, Plan, QueryCommand
from ..schema.schema import Schema
from .naming import is_primed, unprimed
from .simplification import SimplificationResult

#: Axiom-name prefixes that correspond to performing an access.
_TRANSFER_PREFIXES = ("access_", "choice_", "sep_choice_")


class PlanExtractionError(ValueError):
    """Raised when no static plan can be extracted from the certificate."""


@dataclass
class ExtractedProof:
    """The distilled content of a chase certificate."""

    final_cq: ConjunctiveQuery  # over unprimed base/view relations
    rounds: int


def _producers_with_merges(
    result: ChaseResult,
) -> dict[Atom, tuple[TGDStep, tuple[Atom, ...]]]:
    """Map each derived fact to its producing step and body facts,
    applying EGD merges as they happen so keys match the final instance."""
    producers: dict[Atom, tuple[TGDStep, tuple[Atom, ...]]] = {}

    def rewrite(mapping, fact: Atom) -> Atom:
        return Atom(
            fact.relation,
            tuple(mapping.get(t, t) for t in fact.terms),
        )

    for step in result.steps:
        if isinstance(step, MergeStep):
            mapping = {step.removed: step.kept}
            producers = {
                rewrite(mapping, fact): (
                    produced_step,
                    tuple(rewrite(mapping, b) for b in body),
                )
                for fact, (produced_step, body) in producers.items()
            }
            continue
        assert isinstance(step, TGDStep)
        body_facts = tuple(
            atom.substitute(step.trigger)  # type: ignore[arg-type]
            for atom in step.dependency.body
        )
        for fact in step.produced:
            producers.setdefault(fact, (step, body_facts))
    return producers


def extract_proof(
    result: ChaseResult,
    target: ConjunctiveQuery,
    query_name: str = "C",
) -> ExtractedProof:
    """Distill a YES chase certificate into the final CQ and depth."""
    match = find_homomorphism(target.atoms, result.instance)
    if match is None:
        raise PlanExtractionError(
            "certificate's final instance does not match the target query"
        )
    producers = _producers_with_merges(result)

    needed: list[Atom] = [a.substitute(match) for a in target.atoms]
    seen: set[Atom] = set()
    transfer_facts: list[tuple[Atom, int]] = []
    rounds = 0
    while needed:
        fact = needed.pop()
        if fact in seen:
            continue
        seen.add(fact)
        entry = producers.get(fact)
        if entry is None:
            continue  # start-instance fact: nothing to replay
        step, body_facts = entry
        rounds = max(rounds, step.round_index)
        if any(
            step.dependency.name.startswith(prefix)
            for prefix in _TRANSFER_PREFIXES
        ):
            if is_primed(fact.relation):
                transfer_facts.append((fact, step.round_index))
        needed.extend(body_facts)

    if not transfer_facts:
        raise PlanExtractionError(
            "no access firings in the provenance closure (degenerate proof)"
        )

    # Build the final CQ over unprimed relations; chase terms become
    # variables (constants stay constants).
    variable_of: dict[GroundTerm, Variable] = {}

    def as_term(term: GroundTerm):
        if isinstance(term, Constant):
            return term
        if term not in variable_of:
            variable_of[term] = Variable(f"v{len(variable_of)}")
        return variable_of[term]

    atoms = tuple(
        Atom(unprimed(fact.relation), tuple(as_term(t) for t in fact.terms))
        for fact, __ in dict.fromkeys(transfer_facts)
    )
    final_cq = ConjunctiveQuery(atoms, (), query_name)
    return ExtractedProof(final_cq, max(rounds, 1))


# ----------------------------------------------------------------------
# Saturation plan construction
# ----------------------------------------------------------------------
def _cq_over_tables(
    query: ConjunctiveQuery,
    table_of_relation: dict[str, tuple[str, int]],
) -> Expression:
    """Compile a Boolean CQ into an RA expression over the union tables."""
    expression: Optional[Expression] = None
    columns_of: dict[Variable, int] = {}
    offset = 0
    for atom in query.atoms:
        if atom.relation not in table_of_relation:
            raise PlanExtractionError(
                f"final CQ mentions relation {atom.relation} with no "
                "accessed table"
            )
        table, arity = table_of_relation[atom.relation]
        ref: Expression = TableRef(table, arity)
        conditions = []
        local_first: dict[Variable, int] = {}
        for i, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                conditions.append((i, term))
            elif isinstance(term, Variable):
                if term in local_first:
                    conditions.append((i, local_first[term]))
                else:
                    local_first[term] = i
        if conditions:
            ref = Selection(ref, tuple(conditions))
        if expression is None:
            expression = ref
        else:
            join_on = tuple(
                (columns_of[var], position)
                for var, position in local_first.items()
                if var in columns_of
            )
            if join_on:
                expression = Join(expression, ref, join_on)
            else:
                expression = Product(expression, ref)
        for var, position in local_first.items():
            if var not in columns_of:
                columns_of[var] = offset + position
        offset += arity
    assert expression is not None
    return Projection(expression, ())


def saturation_plan(
    schema: Schema,
    query: ConjunctiveQuery,
    proof: ExtractedProof,
    *,
    simplification: Optional[SimplificationResult] = None,
    name: str = "PL",
) -> Plan:
    """Build the static saturation plan for an extracted proof.

    ``simplification`` translates view-method accesses of an FD/existence
    simplification back to original methods projected onto the view
    positions; the final CQ's view relations then read those tables.
    """
    commands: list = []
    value_parts: list[Expression] = [
        ConstantRow((Constant(c.value),)) for c in query.constants()
    ]
    #: relation name -> list of (table name, arity) accessed so far
    tables_by_relation: dict[str, list[tuple[str, int]]] = {}

    # Translate methods: which access commands to run each round.
    accesses: list[tuple[str, int, tuple[int, ...], str, int]] = []
    # (method name, #inputs, output positions, logical relation, arity)
    view_of_replacement = {}
    if simplification is not None:
        for rewrite in simplification.rewrites.values():
            view_of_replacement[rewrite.replacement.name] = rewrite
        working = simplification.schema
    else:
        working = schema
    for method in working.methods:
        rewrite = view_of_replacement.get(method.name)
        if rewrite is None:
            accesses.append(
                (
                    method.name,
                    len(method.input_positions),
                    tuple(range(method.relation.arity)),
                    method.relation.name,
                    method.relation.arity,
                )
            )
        else:
            original = rewrite.original
            positions = rewrite.view_positions or ()
            accesses.append(
                (
                    original.name,
                    len(original.input_positions),
                    tuple(positions),
                    rewrite.view_relation.name,
                    len(positions),
                )
            )

    for round_index in range(1, proof.rounds + 1):
        values_table = f"V{round_index - 1}"
        # Snapshot the values known at the START of the round; outputs of
        # this round's accesses only feed later rounds.
        round_values = tuple(value_parts)
        if round_values:
            expression = (
                round_values[0]
                if len(round_values) == 1
                else Union(round_values)
            )
            commands.append(QueryCommand(values_table, expression))
        for (
            method_name,
            input_count,
            outputs,
            logical_relation,
            arity,
        ) in accesses:
            if input_count == 0:
                binding: Expression = Unit()
            elif not round_values:
                continue  # no values to bind yet: skip this access
            else:
                binding = TableRef(values_table, 1)
                for __ in range(input_count - 1):
                    binding = Product(binding, TableRef(values_table, 1))
            target = f"A_{method_name}_{round_index}"
            commands.append(
                AccessCommand(
                    target,
                    method_name,
                    binding,
                    output_positions=outputs or None,
                )
            )
            tables_by_relation.setdefault(logical_relation, []).append(
                (target, arity)
            )
            for column in range(arity):
                value_parts.append(
                    Projection(TableRef(target, arity), (column,))
                )

    # Per-relation unions feeding the final CQ.
    table_of_relation: dict[str, tuple[str, int]] = {}
    for relation, tables in tables_by_relation.items():
        arity = tables[0][1]
        union_name = f"U_{relation}"
        commands.append(
            QueryCommand(
                union_name,
                Union(tuple(TableRef(t, a) for t, a in tables))
                if len(tables) > 1
                else TableRef(tables[0][0], tables[0][1]),
            )
        )
        table_of_relation[relation] = (union_name, arity)

    final = _cq_over_tables(proof.final_cq, table_of_relation)
    commands.append(QueryCommand("T_out", final))
    return Plan(tuple(commands), "T_out", name=name)


def generate_static_plan(
    schema,
    query: ConjunctiveQuery,
    *,
    max_rounds: Optional[int] = 25,
    max_facts: Optional[int] = None,
    max_disjuncts: Optional[int] = None,
    budget=None,
) -> Optional[Plan]:
    """Decide answerability via a proof-producing route and compile the
    proof to a static plan; None when the query is not (provably)
    answerable through a chase certificate.

    Accepts a `Schema` or a `repro.service.CompiledSchema` (the cached
    simplification and AMonDet axioms are reused).  Uses the
    choice-simplification chase for TGD classes (plans transfer verbatim
    to the original bounds) and the FD simplification for FD classes
    (view accesses are translated back).  For ID classes the compiled
    schema's shared `RewriteEngine` decides answerability *first* —
    complete and terminating — so provably unanswerable queries are
    refused without running the (possibly divergent) extraction chase.
    Boolean queries only.
    """
    from ..constraints.analysis import ConstraintClass
    from .axioms import amondet_start_instance, prime_query
    from .deciders import (
        DEFAULT_CHASE_FACTS,
        _chase_containment,
        _compiled_for,
        decide_with_ids,
    )

    if query.free_variables:
        raise PlanExtractionError("static plans are extracted for Boolean CQs")

    compiled = _compiled_for(schema, query)
    fragment = compiled.constraint_class
    if fragment in (
        ConstraintClass.IDS,
        ConstraintClass.BOUNDED_WIDTH_IDS,
    ):
        # The rewriting route shares the per-fingerprint engine with the
        # deciders, so on a session this gate is usually a cache hit.
        from ..containment.rewriting import DEFAULT_MAX_DISJUNCTS

        gate = decide_with_ids(
            compiled,
            query,
            max_disjuncts=DEFAULT_MAX_DISJUNCTS
            if max_disjuncts is None
            else max_disjuncts,
            budget=budget,
        )
        if gate.is_no:
            return None
    if fragment in (ConstraintClass.NONE, ConstraintClass.FDS):
        kind = "fd"
    else:
        kind = "choice"
    simplified = compiled.simplification(kind)
    target = prime_query(query)
    decision = _chase_containment(
        amondet_start_instance(query),
        compiled.amondet(kind),
        target,
        max_rounds=max_rounds,
        max_facts=DEFAULT_CHASE_FACTS if max_facts is None else max_facts,
        matcher=compiled.matcher(),
        budget=budget,
    )
    if not decision.is_yes or decision.certificate is None:
        return None
    proof = extract_proof(decision.certificate, target)
    use_translation = simplified.kind != "choice"
    return saturation_plan(
        compiled.schema,
        query,
        proof,
        simplification=simplified if use_translation else None,
        name=f"PL_{query.name}",
    )
