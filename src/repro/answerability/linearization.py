"""Linearization of the AMonDet containment for ID constraints.

This implements the paper's technique from Prop 5.5 / Appendix E.3–E.5:
the containment ``Q ⊆Γ Q'`` for a schema with inclusion dependencies —
whose Γ mixes IDs with non-ID accessibility axioms — is *simulated* by a
set Σ^Lin of single-head **linear TGDs** over an expanded signature.  The
pipeline:

1. **Truncated-accessibility saturation** (Prop E.1): compute all derived
   axioms "if positions P of an R-fact are accessible then position j is"
   of breadth ≤ w (w = the maximum ID width), by the three closure rules
   (ID), (Transitivity), (Access).
2. **Σ^Lin construction**: relations ``R_P`` ("an R-fact whose positions
   P hold accessible values") with
   - (Lift) rules following each ID while updating the subscript,
   - (Transfer) rules producing the primed fact when the transferred
     closure of P covers the inputs of an exact method,
   - (Result-bounded Fact Transfer) rules for result-bounded methods
     (used as existence checks, per Thm 4.2 — one matching primed fact
     with fresh outputs),
   plus the primed copy Σ' of the IDs.
3. **Initial instance**: CanonDB(Q) saturated under the original and
   derived accessibility axioms (query constants are accessible), encoded
   into the ``R_P`` relations, with direct transfers for initial facts.

Because every produced rule is a single-head linear TGD, the containment
is then decided **completely and terminatingly** by the backward UCQ
rewriting of `repro.containment.rewriting` — this is our executable
counterpart of the NP procedure of Theorem 5.4 (and of the EXPTIME bound
of Theorem 5.3 for unbounded width, where w grows with the schema).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..constraints.tgd import TGD
from ..data.instance import Instance
from ..logic.atoms import Atom
from ..logic.queries import ConjunctiveQuery
from ..logic.terms import NullFactory, Variable
from ..schema.access import AccessMethod
from ..schema.schema import Schema
from .naming import primed

#: Saturation state: (relation, frozen position set P) -> transferred
#: closure of P (all positions accessible given P, via derived axioms).
Saturation = dict[tuple[str, frozenset[int]], set[int]]


def acc_relation(relation: str, positions: frozenset[int]) -> str:
    """Name of the R_P relation."""
    suffix = "_".join(str(p) for p in sorted(positions))
    return f"{relation}__acc_{suffix}"


@dataclass(frozen=True)
class IDShape:
    """An ID decomposed for the saturation rules.

    ``exported`` maps body positions to head positions (the variable
    flow); body/head relations and arities complete the picture.
    """

    body_relation: str
    head_relation: str
    body_arity: int
    head_arity: int
    exported: tuple[tuple[int, int], ...]  # (body position, head position)

    @staticmethod
    def of(dependency: TGD) -> "IDShape":
        if not dependency.is_inclusion_dependency():
            raise ValueError(f"not an ID: {dependency}")
        body_atom = dependency.body[0]
        head_atom = dependency.head[0]
        pairs = []
        for i, term in enumerate(body_atom.terms):
            positions = head_atom.positions_of(term)
            if positions:
                pairs.append((i, positions[0]))
        return IDShape(
            body_atom.relation,
            head_atom.relation,
            body_atom.arity,
            head_atom.arity,
            tuple(pairs),
        )


def _subsets_up_to(positions: Iterable[int], size: int):
    items = sorted(positions)
    for k in range(min(size, len(items)) + 1):
        yield from itertools.combinations(items, k)


def saturate_truncated_axioms(
    ids: Sequence[TGD],
    exact_methods: Sequence[AccessMethod],
    arities: dict[str, int],
    width: int,
) -> Saturation:
    """Prop E.1: derived truncated accessibility axioms of breadth ≤ w.

    Returns, for every relation R and position set P with |P| ≤ w, the
    *transferred closure* of P: all positions j such that the derived
    axiom ``acc(P) ∧ R(x̄) → acc(x_j)`` holds.

    The closure rules (ID), (Transitivity) and (Access) are monotone,
    so their least fixpoint does not depend on the order they fire in.
    A worklist reaches it: an entry is examined once at the start and
    again whenever its closure grows, and then fires only the rule
    instances that read it.  Those are (Access) and (Transitivity)
    with the entry as the base, (Transitivity) into each entry of the
    same relation whose closure covers its premise, and (ID) from it
    as the head entry an ID pulls back from.
    """
    state: Saturation = {}
    #: relation -> its entries, as (premise P, closure of P).
    rows: dict[str, list[tuple[frozenset[int], set[int]]]] = {}
    for relation, arity in arities.items():
        entries = rows[relation] = []
        for subset in _subsets_up_to(range(arity), width):
            premise = frozenset(subset)
            closure = state[(relation, premise)] = set(subset)
            entries.append((premise, closure))

    inputs_by_relation: dict[str, list[frozenset[int]]] = {}
    for method in exact_methods:
        inputs_by_relation.setdefault(method.relation.name, []).append(
            method.input_positions
        )

    #: (ID) by the head entry it reads: head key -> [(the body key it
    #: writes, head position -> body position)].
    pulls: dict[
        tuple[str, frozenset[int]],
        list[tuple[tuple[str, frozenset[int]], dict[int, int]]],
    ] = {}
    for dependency in ids:
        shape = IDShape.of(dependency)
        body_of_head = {h: b for b, h in shape.exported}
        for head_subset in _subsets_up_to(body_of_head, width):
            head_key = (shape.head_relation, frozenset(head_subset))
            body_key = (
                shape.body_relation,
                frozenset(body_of_head[h] for h in head_subset),
            )
            if head_key in state and body_key in state:
                pulls.setdefault(head_key, []).append(
                    (body_key, body_of_head)
                )

    queue = deque(state)
    queued = set(state)

    def grew(key: tuple[str, frozenset[int]]) -> None:
        if key not in queued:
            queued.add(key)
            queue.append(key)

    while queue:
        key = queue.popleft()
        queued.discard(key)
        relation, premise = key
        closure = state[key]
        entries = rows[relation]
        # (Transitivity), this entry as the base: take in the closure of
        # every premise it covers, until it covers no new one.
        covering = True
        while covering:
            covering = False
            for premise2, targets in entries:
                if premise2 <= closure and not targets <= closure:
                    closure |= targets
                    covering = True
        # (Access): accessible inputs of an exact method expose the
        # whole fact.
        if any(
            inputs <= closure
            for inputs in inputs_by_relation.get(relation, ())
        ):
            closure.update(range(arities[relation]))
        # (Transitivity), this entry as a premise of the others.
        for premise2, closure2 in entries:
            if premise <= closure2 and not closure <= closure2:
                closure2 |= closure
                grew((relation, premise2))
        # (ID): pull this derived axiom on the head back to the body.
        for body_key, body_of_head in pulls.get(key, ()):
            pulled = {body_of_head[t] for t in closure if t in body_of_head}
            body_closure = state[body_key]
            if not pulled <= body_closure:
                body_closure |= pulled
                grew(body_key)
    return state


@dataclass
class LinearizedSystem:
    """The output of the linearization: rules + initial instance builder."""

    rules: list[TGD]
    saturation: Saturation
    width: int
    schema: Schema

    def initial_instance(self, query: ConjunctiveQuery) -> Instance:
        return build_initial_instance(
            query, self.schema, self.saturation, self.width
        )


def _transfer_rules(
    schema: Schema, saturation: Saturation, width: int
) -> list[TGD]:
    rules: list[TGD] = []
    seen: set[tuple] = set()
    arities = schema.arities()
    for (relation, positions), closure in saturation.items():
        if relation not in arities:
            continue
        arity = arities[relation]
        terms = tuple(Variable(f"x{i}") for i in range(arity))
        body = (Atom(acc_relation(relation, positions), terms),)
        for method in schema.methods_on(relation):
            if not method.input_positions <= closure:
                continue
            if method.effective_bound() is None:
                key = ("exact", relation, positions)
                if key in seen:
                    continue
                seen.add(key)
                rules.append(
                    TGD(
                        body,
                        (Atom(primed(relation), terms),),
                        f"transfer_{relation}_{sorted(positions)}",
                    )
                )
            else:
                key = ("rb", relation, positions, method.input_positions)
                if key in seen:
                    continue
                seen.add(key)
                head_terms = tuple(
                    terms[i]
                    if i in method.input_positions
                    else Variable(f"z{i}")
                    for i in range(arity)
                )
                rules.append(
                    TGD(
                        body,
                        (Atom(primed(relation), head_terms),),
                        f"rb_transfer_{relation}_{sorted(positions)}",
                    )
                )
    return rules


def _lift_rules(
    ids: Sequence[TGD], saturation: Saturation, width: int
) -> list[TGD]:
    rules: list[TGD] = []
    seen: set[tuple] = set()
    for dependency in ids:
        shape = IDShape.of(dependency)
        head_of_body = dict(shape.exported)
        for (relation, positions), closure in saturation.items():
            if relation != shape.body_relation:
                continue
            body_terms = tuple(
                Variable(f"u{i}") for i in range(shape.body_arity)
            )
            transferred_exported = frozenset(
                head_of_body[b] for b in closure if b in head_of_body
            )
            key = (id(dependency), positions)
            if key in seen:
                continue
            seen.add(key)
            head_terms = tuple(
                body_terms[
                    next(
                        b for b, h in shape.exported if h == j
                    )
                ]
                if j in {h for __, h in shape.exported}
                else Variable(f"v{j}")
                for j in range(shape.head_arity)
            )
            rules.append(
                TGD(
                    (Atom(acc_relation(relation, positions), body_terms),),
                    (
                        Atom(
                            acc_relation(
                                shape.head_relation, transferred_exported
                            ),
                            head_terms,
                        ),
                    ),
                    f"lift_{shape.body_relation}_{sorted(positions)}",
                )
            )
    return rules


def linearize(schema: Schema) -> LinearizedSystem:
    """Build Σ^Lin for a schema whose constraints are IDs."""
    ids = [c for c in schema.constraints if isinstance(c, TGD)]
    for dependency in ids:
        if not dependency.is_inclusion_dependency():
            raise ValueError(
                f"linearization requires ID constraints, got {dependency}"
            )
    if any(
        not isinstance(c, TGD) for c in schema.constraints
    ):
        raise ValueError("linearization requires ID constraints only")
    width = max((d.width for d in ids), default=0)
    width = max(width, 1)
    exact_methods = [
        m for m in schema.methods if m.effective_bound() is None
    ]
    saturation = saturate_truncated_axioms(
        ids, exact_methods, schema.arities(), width
    )
    rules: list[TGD] = []
    rules.extend(_transfer_rules(schema, saturation, width))
    rules.extend(_lift_rules(ids, saturation, width))
    # Σ': the primed IDs (the I2 side chases freely).
    rules.extend(d.rename_relations(primed) for d in ids)
    return LinearizedSystem(rules, saturation, width, schema)


def build_initial_instance(
    query: ConjunctiveQuery,
    schema: Schema,
    saturation: Saturation,
    width: int,
) -> Instance:
    """I0^Lin: the saturated, subscript-encoded canonical database of Q."""
    canonical, __ = query.canonical_instance()
    accessible = {constant for constant in query.constants()}
    arities = schema.arities()

    # Saturate accessibility over the canonical database: original exact
    # method axioms (any breadth) + derived axioms (breadth ≤ w).
    changed = True
    while changed:
        changed = False
        for fact in list(canonical):
            if fact.relation not in arities:
                continue
            accessible_positions = frozenset(
                i
                for i, term in enumerate(fact.terms)
                if term in accessible
            )
            # Original axioms: exact methods with accessible inputs.
            for method in schema.methods_on(fact.relation):
                if method.effective_bound() is not None:
                    continue
                if method.input_positions <= accessible_positions:
                    for term in fact.terms:
                        if term not in accessible:
                            accessible.add(term)
                            changed = True
            # Derived axioms of breadth ≤ w.
            for subset in _subsets_up_to(accessible_positions, width):
                closure = saturation.get((fact.relation, frozenset(subset)))
                if closure is None:
                    continue
                for position in closure:
                    term = fact.terms[position]
                    if term not in accessible:
                        accessible.add(term)
                        changed = True

    nulls = NullFactory(prefix="lin")
    out = Instance()
    for fact in canonical:
        if fact.relation not in arities:
            continue
        accessible_positions = frozenset(
            i for i, term in enumerate(fact.terms) if term in accessible
        )
        for subset in _subsets_up_to(accessible_positions, width):
            out.add(
                Atom(
                    acc_relation(fact.relation, frozenset(subset)),
                    fact.terms,
                )
            )
        for method in schema.methods_on(fact.relation):
            if not method.input_positions <= accessible_positions:
                continue
            if method.effective_bound() is None:
                out.add(Atom(primed(fact.relation), fact.terms))
            else:
                head_terms = tuple(
                    term
                    if i in method.input_positions
                    else nulls.fresh(f"{fact.relation}{i}")
                    for i, term in enumerate(fact.terms)
                )
                out.add(Atom(primed(fact.relation), head_terms))
    return out
