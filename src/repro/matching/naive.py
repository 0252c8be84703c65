"""The naive backtracking matcher: the executable reference.

This is the original `repro.logic.homomorphism` search, moved here
verbatim when the planned matcher took over the hot paths.  It rederives
the atom order and candidate scans on every call and keeps no caches,
which makes it the ideal cross-check oracle: the randomized
planned≡naive suites (``tests/matching``) compare the planned matcher's
enumerations against this module, and ``benchmarks/bench_matching.py``
uses `NaiveMatcher` as the "before" side of its speedup records.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
)

from ..logic.atoms import Atom
from ..logic.terms import Constant, GroundTerm, Null, Term, Variable

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..data.instance import Instance

#: A (partial) homomorphism: assignment of query terms to ground terms.
Assignment = dict[Term, GroundTerm]


def candidate_facts(
    instance: "Instance",
    atom: Atom,
    assignment: Mapping[Term, GroundTerm],
    flexible_nulls: bool,
) -> Iterable[Atom]:
    """Facts of `instance` possibly matching `atom` under `assignment`.

    Uses the most selective available positional index; falls back to the
    full relation bucket when no term of the atom is determined yet.
    """
    best: Optional[Iterable[Atom]] = None
    best_size = -1
    for position, term in enumerate(atom.terms):
        bound: Optional[GroundTerm] = None
        if isinstance(term, Constant):
            bound = term
        elif isinstance(term, Null) and not flexible_nulls:
            bound = term
        elif term in assignment:
            bound = assignment[term]
        if bound is not None:
            facts = instance.facts_with(atom.relation, position, bound)
            size = len(facts)
            if size <= 1:
                # An empty or singleton bucket cannot be beaten: stop the
                # position scan immediately (empty ⇒ no match at all).
                return facts
            if best is None or size < best_size:
                best = facts
                best_size = size
    if best is not None:
        return best
    return instance.facts_of(atom.relation)


def try_extend(
    atom: Atom,
    fact: Atom,
    assignment: Assignment,
    flexible_nulls: bool,
) -> Optional[list[Term]]:
    """Extend `assignment` in place so that atom maps to fact.

    Returns the list of newly bound terms (for backtracking), or None if
    the fact is incompatible.
    """
    if fact.relation != atom.relation or len(fact.terms) != len(atom.terms):
        return None
    newly_bound: list[Term] = []
    for term, value in zip(atom.terms, fact.terms):
        if isinstance(term, Constant) or (
            isinstance(term, Null) and not flexible_nulls
        ):
            if term != value:
                for t in newly_bound:
                    del assignment[t]
                return None
            continue
        current = assignment.get(term)
        if current is None:
            assignment[term] = value
            newly_bound.append(term)
        elif current != value:
            for t in newly_bound:
                del assignment[t]
            return None
    return newly_bound


def order_atoms(atoms: Sequence[Atom]) -> list[Atom]:
    """Heuristic join order: start anywhere, then prefer connected atoms."""
    remaining = list(atoms)
    if not remaining:
        return []
    ordered: list[Atom] = []
    bound_terms: set[Term] = set()
    # Start with the atom having the most constants (most selective guess).
    remaining.sort(key=lambda a: -sum(
        1 for t in a.terms if not isinstance(t, Variable)
    ))
    while remaining:
        best_index = 0
        best_score = -1
        for i, candidate in enumerate(remaining):
            score = sum(
                1
                for t in candidate.terms
                if t in bound_terms or not isinstance(t, Variable)
            )
            if score > best_score:
                best_score = score
                best_index = i
        chosen = remaining.pop(best_index)
        ordered.append(chosen)
        bound_terms.update(chosen.terms)
    return ordered


def naive_homomorphisms(
    atoms: Sequence[Atom],
    instance: "Instance",
    *,
    seed: Optional[Mapping[Term, GroundTerm]] = None,
    flexible_nulls: bool = False,
) -> Iterator[Assignment]:
    """Enumerate homomorphisms from `atoms` into `instance` (reference)."""
    assignment: Assignment = dict(seed) if seed else {}
    ordered = order_atoms(atoms)

    def search(index: int) -> Iterator[Assignment]:
        if index == len(ordered):
            yield dict(assignment)
            return
        current = ordered[index]
        for fact in candidate_facts(
            instance, current, assignment, flexible_nulls
        ):
            newly_bound = try_extend(
                current, fact, assignment, flexible_nulls
            )
            if newly_bound is None:
                continue
            yield from search(index + 1)
            for term in newly_bound:
                del assignment[term]

    return search(0)


class NaiveMatcher:
    """The `Matcher` interface over the naive search (no plans, no caches).

    Drop-in for `repro.matching.Matcher` wherever a matcher is accepted
    (most importantly ``chase(..., matcher=...)``): the cross-check
    suites and the before/after benchmark rows run the same engine code
    with only the matching strategy swapped.
    """

    def homomorphisms(
        self,
        atoms: Sequence[Atom],
        instance: "Instance",
        *,
        seed: Optional[Mapping[Term, GroundTerm]] = None,
        flexible_nulls: bool = False,
        budget=None,
    ) -> Iterator[Assignment]:
        iterator = naive_homomorphisms(
            atoms, instance, seed=seed, flexible_nulls=flexible_nulls
        )
        if budget is None:
            return iterator
        # Coarser than the planned matcher's per-candidate tick (one
        # tick per yielded match), but the contract — an exhausted
        # budget raises out of the iterator — is the same.
        return self._ticked(iterator, budget)

    @staticmethod
    def _ticked(iterator: Iterator[Assignment], budget) -> Iterator[Assignment]:
        for assignment in iterator:
            budget.tick()
            yield assignment

    def find(
        self,
        atoms: Sequence[Atom],
        instance: "Instance",
        *,
        seed: Optional[Mapping[Term, GroundTerm]] = None,
        flexible_nulls: bool = False,
        budget=None,
    ) -> Optional[Assignment]:
        for assignment in self.homomorphisms(
            atoms,
            instance,
            seed=seed,
            flexible_nulls=flexible_nulls,
            budget=budget,
        ):
            return assignment
        return None

    def has(
        self,
        atoms: Sequence[Atom],
        instance: "Instance",
        *,
        seed: Optional[Mapping[Term, GroundTerm]] = None,
        flexible_nulls: bool = False,
        budget=None,
    ) -> bool:
        return (
            self.find(
                atoms,
                instance,
                seed=seed,
                flexible_nulls=flexible_nulls,
                budget=budget,
            )
            is not None
        )

    # -- query-shape predicates (same contracts as `Matcher`) ----------
    def is_isomorphic(
        self, left: Sequence[Atom], right: Sequence[Atom]
    ) -> bool:
        """Exact isomorphism, by naive search with a post-hoc
        injectivity/variable-image filter (inputs deduplicated)."""
        from .matcher import freeze_atoms

        left = tuple(dict.fromkeys(left))
        right = tuple(dict.fromkeys(right))
        if len(left) != len(right):
            return False
        left_vars = {
            t for a in left for t in a.terms if isinstance(t, Variable)
        }
        right_vars = {
            t for a in right for t in a.terms if isinstance(t, Variable)
        }
        if len(left_vars) != len(right_vars):
            return False
        frozen, targets = freeze_atoms(right)
        for assignment in self.homomorphisms(left, frozen):
            values = list(assignment.values())
            if len(set(values)) == len(values) and all(
                value in targets for value in values
            ):
                return True
        return False

    def subsumes(
        self, smaller: Sequence[Atom], larger: Sequence[Atom]
    ) -> bool:
        """True iff `smaller` hom-maps into `larger` (as Boolean CQs)."""
        from .matcher import freeze_atoms

        frozen, __ = freeze_atoms(larger)
        return self.maps_into(smaller, frozen)

    def maps_into(self, atoms: Sequence[Atom], frozen: "Instance") -> bool:
        return self.has(atoms, frozen)

    def stats(self) -> dict:
        return {"strategy": "naive"}

    def __repr__(self) -> str:
        return "NaiveMatcher()"
