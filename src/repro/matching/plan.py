"""Compiled match plans: join orders and per-atom instruction tuples.

A `MatchPlan` freezes everything about a homomorphism search that does
not depend on the instance *contents*: the join order, and — per atom in
that order — which positions carry rigid terms (constants, and nulls
when nulls are matched rigidly), which carry soft terms already bound
when the atom is reached (seed terms and terms bound by earlier atoms),
and which bind fresh.  The planned matcher executes these instruction
tuples directly, so the per-call cost of re-deriving the order and
re-classifying every term (what the naive matcher pays on each search)
is paid once per *plan key*:

    (atoms, flexible_nulls, frozenset(seed keys))

The join order is chosen greedily — most-bound atom first, connected
atoms preferred — with ties broken **adaptively** by instance index
statistics at compile time: the estimated candidate count of an atom is
its relation bucket size, sharpened by the ``occurrence_count``
cardinality of its rigid terms.  Plans are compiled against
the first instance a key is searched on and reused for every later
search with that key (the statistics steer the order; correctness never
depends on them).

Atoms whose every position is rigid or bound-before compile to a
**ground probe**: the executor builds the one concrete fact the
assignment allows and tests membership, instead of scanning candidates.
This is the shape of every head-satisfaction check of a full TGD and of
the paper's canonical-database lookups, and is the single biggest win of
the planned matcher on closure workloads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from ..logic.atoms import Atom
from ..logic.terms import GroundTerm, Null, Term, Variable

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..data.instance import Instance

#: A plan cache key: (atoms, flexible_nulls, seeded terms).
PlanKey = tuple


def plan_key(
    atoms: Sequence[Atom],
    flexible_nulls: bool,
    seed: Optional[Mapping[Term, GroundTerm]],
) -> PlanKey:
    """The memoization key under which a compiled plan is shared.

    Structurally equal atom tuples hash equal, so two queries that spell
    the same body (even as distinct objects) share one plan.
    """
    return (
        tuple(atoms),
        flexible_nulls,
        frozenset(seed) if seed else frozenset(),
    )


def _is_soft(term: Term, flexible_nulls: bool) -> bool:
    """Soft terms are matched like variables; rigid ones literally."""
    return isinstance(term, Variable) or (
        flexible_nulls and isinstance(term, Null)
    )


class CompiledAtom:
    """One atom of a plan, split into executor instruction tuples.

    ``rigid``
        (position, term) pairs the fact must carry literally.
    ``bound_checks``
        (position, term) pairs whose term is guaranteed bound in the
        assignment when this atom is reached (seeded, or bound by an
        earlier atom of the order).
    ``binds``
        (position, term) pairs whose term may bind here, in position
        order (repeats within the atom fall back to an equality check
        at run time).
    ``probe_template``
        When ``binds`` is empty the atom is ground under the plan; the
        template interleaves rigid terms and bound soft terms so the
        executor can build the single admissible fact and test
        membership directly.
    """

    __slots__ = (
        "atom",
        "relation",
        "arity",
        "rigid",
        "bound_checks",
        "binds",
        "probe_template",
    )

    def __init__(
        self, atom: Atom, bound_before: set[Term], flexible_nulls: bool
    ) -> None:
        self.atom = atom
        self.relation = atom.relation
        self.arity = len(atom.terms)
        rigid: list[tuple[int, Term]] = []
        bound_checks: list[tuple[int, Term]] = []
        binds: list[tuple[int, Term]] = []
        will_bind: set[Term] = set()
        for position, term in enumerate(atom.terms):
            if not _is_soft(term, flexible_nulls):
                rigid.append((position, term))
            elif term in bound_before or term in will_bind:
                # Terms binding at an earlier position of this same atom
                # are classified as binds again: the executor's get/check
                # logic handles the repeat (the dict is authoritative).
                if term in will_bind:
                    binds.append((position, term))
                else:
                    bound_checks.append((position, term))
            else:
                binds.append((position, term))
                will_bind.add(term)
        self.rigid = tuple(rigid)
        self.bound_checks = tuple(bound_checks)
        self.binds = tuple(binds)
        if not binds:
            # (is_rigid, term): rigid terms pass through, soft terms are
            # looked up in the assignment at probe time.
            self.probe_template = tuple(
                (not _is_soft(t, flexible_nulls), t) for t in atom.terms
            )
        else:
            self.probe_template = None


class MatchPlan:
    """A compiled search for one (atom set, rigidity, seed-shape) key."""

    __slots__ = (
        "key",
        "atoms",
        "flexible_nulls",
        "seed_terms",
        "order",
        "compiled",
        "relations",
        "all_ground",
        "stats_snapshot",
        "int_plan",
        "replan_count",
        "drift_countdown",
    )

    def __init__(
        self,
        key: PlanKey,
        instance: "Instance",
    ) -> None:
        atoms, flexible_nulls, seed_terms = key
        self.key = key
        self.atoms = atoms
        self.flexible_nulls = flexible_nulls
        self.seed_terms = seed_terms
        self.order = _choose_order(atoms, seed_terms, flexible_nulls, instance)
        bound: set[Term] = set(seed_terms)
        compiled: list[CompiledAtom] = []
        for index in self.order:
            entry = CompiledAtom(atoms[index], bound, flexible_nulls)
            compiled.append(entry)
            for __, term in entry.binds:
                bound.add(term)
        self.compiled = tuple(compiled)
        self.relations = tuple(sorted({a.relation for a in atoms}))
        self.all_ground = all(c.probe_template is not None for c in compiled)
        #: Relation cardinalities the join order was chosen under,
        #: aligned with `relations`.  `Matcher.plan_for` compares these
        #: against the instance being searched and recompiles the plan
        #: when they have drifted far (replan-on-drift).
        self.stats_snapshot = tuple(
            len(instance.facts_of(relation)) for relation in self.relations
        )
        #: Lazily lowered int-space form (`repro.matching.intexec`).
        self.int_plan = None
        #: How many times this key has been recompiled for drift
        #: (carried across recompiles; bounds replan churn).
        self.replan_count = 0
        #: Plan-cache hits until the next drift check (1: the very
        #: first reuse is checked, so a plan compiled against an empty
        #: instance is caught immediately; afterwards checks run every
        #: `matcher.DRIFT_CHECK_STRIDE` hits).
        self.drift_countdown = 1

    def __repr__(self) -> str:
        return (
            f"MatchPlan({len(self.atoms)} atoms, order={list(self.order)}, "
            f"ground={self.all_ground})"
        )


def _estimate(
    atom: Atom, flexible_nulls: bool, instance: "Instance"
) -> int:
    """Candidate-count estimate from the instance's index statistics."""
    estimate = len(instance.facts_of(atom.relation))
    for term in atom.terms:
        if not _is_soft(term, flexible_nulls):
            occurrences = instance.occurrence_count(term)
            if occurrences < estimate:
                estimate = occurrences
    return estimate


def _choose_order(
    atoms: tuple[Atom, ...],
    seed_terms: frozenset[Term],
    flexible_nulls: bool,
    instance: "Instance",
) -> tuple[int, ...]:
    """Greedy join order: most-bound atom first, statistics break ties.

    The score of a candidate atom is (number of positions already
    determined, negated cardinality estimate); the original index breaks
    remaining ties so the order is deterministic.
    """
    remaining = list(range(len(atoms)))
    bound: set[Term] = set(seed_terms)
    order: list[int] = []
    estimates = [
        _estimate(atom, flexible_nulls, instance) for atom in atoms
    ]
    while remaining:
        best_position = 0
        best_score: Optional[tuple[int, int, int]] = None
        for position, index in enumerate(remaining):
            atom = atoms[index]
            known = sum(
                1
                for t in atom.terms
                if t in bound or not _is_soft(t, flexible_nulls)
            )
            score = (known, -estimates[index], -index)
            if best_score is None or score > best_score:
                best_score = score
                best_position = position
        chosen = remaining.pop(best_position)
        order.append(chosen)
        bound.update(atoms[chosen].terms)
    return tuple(order)
