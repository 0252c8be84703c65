"""Int-space plan execution: interned rows, flat steps, slot arrays.

`Matcher` runs every compiled `MatchPlan` through this module.  A
term-space search would keep dict environments keyed by `Term` objects
and candidate sets of boxed `Atom`s, hashing frozen dataclasses on every
probe; the executors here run the plans entirely in int space:

* `Instance` interns every ground term to a dense int on first
  appearance and mirrors each fact as a tuple-of-int row with parallel
  ``(position, value_id)`` column indexes (see `Instance.int_view`);
* an `IntPlan` lowers a compiled `MatchPlan` once into flat step tuples
  whose instructions reference **slot numbers** in a preallocated int
  list instead of dict keys — rigid terms become indexes into a small
  per-execution table of resolved ids, bound checks and binds become
  ``(position, slot)`` pairs, and ground probes become literal row
  tuples tested for set membership;
* per execution, the prologue resolves the plan's rigid terms and seed
  values through the instance's interner (unknown terms resolve to the
  sentinel ``-1``, which no stored row can carry, so they simply fail
  to match — exactly the semantics of an absent fact) and the search
  then runs integer comparisons only: no term hashing, no dict
  allocation until a complete match is externed back to the caller's
  ``{Term: GroundTerm}`` environment.

The lowering is cached on the plan (`MatchPlan.int_plan`); compiling is
idempotent, so a benign race between two threads lowering the same plan
at worst duplicates the small amount of work.

The executors return the same match sets as the reference
`repro.matching.naive.NaiveMatcher`; the property suite in
``tests/matching/test_intexec.py`` pins that down.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Sequence

from ..data.instance import Instance
from ..logic.terms import GroundTerm, Term
from ..runtime import Budget
from .plan import MatchPlan

Assignment = dict[Term, GroundTerm]

#: Shared empty candidate bucket.
_NO_ROWS: tuple = ()


class IntPlan:
    """A `MatchPlan` lowered to flat int-space instruction tuples.

    ``steps`` holds one tuple per atom of the plan order::

        (relation, arity, probe, rigid_pairs, bound_pairs, bind_pairs)

    where ``probe`` is ``None`` or a tuple of ``(is_rigid, index)``
    (index into the resolved rigid table or the slot list), and the
    pair lists hold ``(position, rigid_index)`` / ``(position, slot)``.
    """

    __slots__ = (
        "n_slots",
        "seed_slots",
        "rigid_terms",
        "steps",
        "out_slots",
        "slot_of",
        "ground_templates",
    )

    def __init__(self, plan: MatchPlan) -> None:
        slot_of: dict[Term, int] = {}
        # Seed slots first, in a deterministic order.
        for term in sorted(plan.seed_terms, key=repr):
            slot_of[term] = len(slot_of)
        self.seed_slots = tuple(slot_of.items())
        rigid_index: dict[Term, int] = {}
        rigid_terms: list[Term] = []
        steps = []
        for entry in plan.compiled:
            rigid_pairs = []
            for position, term in entry.rigid:
                index = rigid_index.get(term)
                if index is None:
                    index = len(rigid_terms)
                    rigid_index[term] = index
                    rigid_terms.append(term)
                rigid_pairs.append((position, index))
            bound_pairs = tuple(
                (position, slot_of[term])
                for position, term in entry.bound_checks
            )
            bind_pairs = []
            for position, term in entry.binds:
                slot = slot_of.get(term)
                if slot is None:
                    slot = len(slot_of)
                    slot_of[term] = slot
                bind_pairs.append((position, slot))
            if entry.probe_template is not None:
                probe = tuple(
                    (True, rigid_index[term])
                    if is_rigid
                    else (False, slot_of[term])
                    for is_rigid, term in entry.probe_template
                )
            else:
                probe = None
            steps.append((
                entry.relation,
                entry.arity,
                probe,
                tuple(rigid_pairs),
                bound_pairs,
                tuple(bind_pairs),
            ))
        self.n_slots = len(slot_of)
        self.rigid_terms = tuple(rigid_terms)
        self.steps = tuple(steps)
        self.slot_of = slot_of
        seed_terms = plan.seed_terms
        # The non-seed slots to extern into the result environment (seed
        # entries are echoed from the seed mapping itself, so unknown
        # seed values round-trip exactly).
        self.out_slots = tuple(
            (term, slot)
            for term, slot in slot_of.items()
            if term not in seed_terms
        )
        #: For all-ground plans (the `has` fast path): the object-space
        #: probe templates, so the probe can intern straight from the
        #: seed mapping without allocating a slot list at all.
        if plan.all_ground:
            self.ground_templates = tuple(
                (entry.relation, entry.probe_template)
                for entry in plan.compiled
            )
        else:
            self.ground_templates = ()


def int_plan_of(plan: MatchPlan) -> IntPlan:
    """The lowered form of a plan, cached on the plan object."""
    lowered = plan.int_plan
    if lowered is None:
        lowered = IntPlan(plan)
        plan.int_plan = lowered
    return lowered


# ----------------------------------------------------------------------
# Execution prologue
# ----------------------------------------------------------------------
def _resolve(
    iplan: IntPlan,
    instance: Instance,
    seed: Optional[Mapping[Term, GroundTerm]],
) -> tuple[list[int], list[int], list]:
    """Resolve rigid terms and seed values against this instance.

    Terms the instance has never interned resolve to ``-1``: no stored
    row carries it, so every comparison against it fails — the correct
    outcome for a term that occurs in no fact.
    """
    term_id = instance.term_id
    rig = [term_id(term) for term in iplan.rigid_terms]
    slots = [-1] * iplan.n_slots
    if iplan.seed_slots:
        for term, slot in iplan.seed_slots:
            slots[slot] = term_id(seed[term])
    views = [instance.int_view(step[0]) for step in iplan.steps]
    return rig, slots, views


def _candidates(step, view, slots: list[int], rig: list[int]):
    """Most selective column bucket for the step's known positions."""
    rows, cols = view
    best = None
    best_size = -1
    for position, index in step[3]:
        bucket = cols.get((position, rig[index]))
        if bucket is None:
            return _NO_ROWS
        size = len(bucket)
        if size <= 1:
            return bucket
        if best is None or size < best_size:
            best = bucket
            best_size = size
    for position, slot in step[4]:
        bucket = cols.get((position, slots[slot]))
        if bucket is None:
            return _NO_ROWS
        size = len(bucket)
        if size <= 1:
            return bucket
        if best is None or size < best_size:
            best = bucket
            best_size = size
    if best is not None:
        return best
    return rows


def _probe_hit(step, view, slots: list[int], rig: list[int]) -> bool:
    row = tuple(
        rig[index] if is_rigid else slots[index]
        for is_rigid, index in step[2]
    )
    return row in view[0]


def _extern(
    iplan: IntPlan,
    slots: list[int],
    id_terms: list[GroundTerm],
    seed: Optional[Mapping[Term, GroundTerm]],
) -> Assignment:
    """Build the caller-facing environment from the bound slot list."""
    env: Assignment = dict(seed) if seed else {}
    for term, slot in iplan.out_slots:
        env[term] = id_terms[slots[slot]]
    return env


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
def _search(
    iplan: IntPlan,
    views: list,
    rig: list[int],
    slots: list[int],
    depth: int,
    id_terms: list[GroundTerm],
    seed: Optional[Mapping[Term, GroundTerm]],
    budget: Optional[Budget],
) -> Iterator[Assignment]:
    steps = iplan.steps
    if depth == len(steps):
        yield _extern(iplan, slots, id_terms, seed)
        return
    step = steps[depth]
    view = views[depth]
    if step[2] is not None:
        if _probe_hit(step, view, slots, rig):
            yield from _search(
                iplan, views, rig, slots, depth + 1, id_terms, seed, budget
            )
        return
    arity = step[1]
    rigid_pairs = step[3]
    bound_pairs = step[4]
    bind_pairs = step[5]
    for row in _candidates(step, view, slots, rig):
        if budget is not None:
            budget.tick()
        if len(row) != arity:
            continue
        ok = True
        for position, index in rigid_pairs:
            if row[position] != rig[index]:
                ok = False
                break
        if not ok:
            continue
        for position, slot in bound_pairs:
            if row[position] != slots[slot]:
                ok = False
                break
        if not ok:
            continue
        newly: list[int] = []
        for position, slot in bind_pairs:
            value = row[position]
            current = slots[slot]
            if current < 0:
                slots[slot] = value
                newly.append(slot)
            elif current != value:
                ok = False
                break
        if ok:
            yield from _search(
                iplan, views, rig, slots, depth + 1, id_terms, seed, budget
            )
        for slot in newly:
            slots[slot] = -1


def _find_from(
    steps: tuple,
    views: list,
    rig: list[int],
    slots: list[int],
    depth: int,
    trail: list[int],
    budget: Optional[Budget],
) -> bool:
    """Find one completion; bindings stay in `slots` on success (their
    slot numbers appended to `trail`), everything unwinds on failure."""
    if depth == len(steps):
        return True
    step = steps[depth]
    view = views[depth]
    if step[2] is not None:
        return _probe_hit(step, view, slots, rig) and _find_from(
            steps, views, rig, slots, depth + 1, trail, budget
        )
    arity = step[1]
    rigid_pairs = step[3]
    bound_pairs = step[4]
    bind_pairs = step[5]
    for row in _candidates(step, view, slots, rig):
        if budget is not None:
            budget.tick()
        if len(row) != arity:
            continue
        ok = True
        for position, index in rigid_pairs:
            if row[position] != rig[index]:
                ok = False
                break
        if not ok:
            continue
        for position, slot in bound_pairs:
            if row[position] != slots[slot]:
                ok = False
                break
        if not ok:
            continue
        newly: list[int] = []
        for position, slot in bind_pairs:
            value = row[position]
            current = slots[slot]
            if current < 0:
                slots[slot] = value
                newly.append(slot)
            elif current != value:
                ok = False
                break
        if ok and _find_from(
            steps, views, rig, slots, depth + 1, trail, budget
        ):
            trail.extend(newly)
            return True
        for slot in newly:
            slots[slot] = -1
    return False


# ----------------------------------------------------------------------
# Entry points (used by `Matcher`)
# ----------------------------------------------------------------------
def int_search(
    plan: MatchPlan,
    instance: Instance,
    seed: Optional[Mapping[Term, GroundTerm]],
    budget: Optional[Budget],
) -> Iterator[Assignment]:
    """Enumerate all homomorphisms (int-space `_search`)."""
    iplan = int_plan_of(plan)
    rig, slots, views = _resolve(iplan, instance, seed)
    return _search(
        iplan, views, rig, slots, 0, instance.id_terms, seed, budget
    )


def int_find(
    plan: MatchPlan,
    instance: Instance,
    seed: Optional[Mapping[Term, GroundTerm]],
    budget: Optional[Budget],
) -> Optional[Assignment]:
    """One homomorphism as an environment, or None."""
    iplan = int_plan_of(plan)
    rig, slots, views = _resolve(iplan, instance, seed)
    if _find_from(iplan.steps, views, rig, slots, 0, [], budget):
        return _extern(iplan, slots, instance.id_terms, seed)
    return None


def int_has(
    plan: MatchPlan,
    instance: Instance,
    seed: Optional[Mapping[Term, GroundTerm]],
    budget: Optional[Budget],
) -> bool:
    """Existence check (no environment built)."""
    iplan = int_plan_of(plan)
    rig, slots, views = _resolve(iplan, instance, seed)
    return _find_from(iplan.steps, views, rig, slots, 0, [], budget)


def int_ground_probe(
    plan: MatchPlan,
    instance: Instance,
    seed: Optional[Mapping[Term, GroundTerm]],
) -> bool:
    """All-ground plan: membership-test every step's probe row.

    Interns straight from the probe templates — no slot list, no view
    prefetch — because this is the chase's per-trigger activeness check
    and runs tens of thousands of times per round.
    """
    iplan = int_plan_of(plan)
    term_id = instance.term_id
    rows_by_relation = instance._rows
    for relation, template in iplan.ground_templates:
        rows = rows_by_relation.get(relation)
        if rows is None:
            return False
        row = tuple(
            term_id(term if is_rigid else seed[term])
            for is_rigid, term in template
        )
        if row not in rows:
            return False
    return True


def _slot_search(
    steps: tuple,
    views: list,
    rig: list[int],
    slots: list[int],
    depth: int,
    budget: Optional[Budget],
) -> Iterator[tuple[int, ...]]:
    """Like `_search`, but yields the raw slot vector (a tuple of ids)
    instead of externing an environment — the chase's trigger pipeline
    projects body/frontier keys straight off it in int space."""
    if depth == len(steps):
        yield tuple(slots)
        return
    step = steps[depth]
    view = views[depth]
    if step[2] is not None:
        if _probe_hit(step, view, slots, rig):
            yield from _slot_search(
                steps, views, rig, slots, depth + 1, budget
            )
        return
    arity = step[1]
    rigid_pairs = step[3]
    bound_pairs = step[4]
    bind_pairs = step[5]
    for row in _candidates(step, view, slots, rig):
        if budget is not None:
            budget.tick()
        if len(row) != arity:
            continue
        ok = True
        for position, index in rigid_pairs:
            if row[position] != rig[index]:
                ok = False
                break
        if not ok:
            continue
        for position, slot in bound_pairs:
            if row[position] != slots[slot]:
                ok = False
                break
        if not ok:
            continue
        newly: list[int] = []
        for position, slot in bind_pairs:
            value = row[position]
            current = slots[slot]
            if current < 0:
                slots[slot] = value
                newly.append(slot)
            elif current != value:
                ok = False
                break
        if ok:
            yield from _slot_search(
                steps, views, rig, slots, depth + 1, budget
            )
        for slot in newly:
            slots[slot] = -1


def int_slot_matches(
    plan: MatchPlan,
    instance: Instance,
    seed: Optional[Mapping[Term, GroundTerm]],
    budget: Optional[Budget],
) -> Iterator[tuple[int, ...]]:
    """Enumerate matches as raw slot vectors (see `IntPlan.slot_of`)."""
    iplan = int_plan_of(plan)
    rig, slots, views = _resolve(iplan, instance, seed)
    return _slot_search(iplan.steps, views, rig, slots, 0, budget)


def int_seeded_context(
    plan: MatchPlan, instance: Instance
) -> tuple[IntPlan, list[int], list]:
    """Resolve the seed-independent half of `_resolve` once.

    The rigid-term ids and candidate views only change when the
    instance is mutated, so a caller running one plan over many seeds
    against a quiescent instance (the chase's per-round trigger
    collection) resolves them once and reuses them per seed through
    `int_slot_matches_resolved`.
    """
    iplan = int_plan_of(plan)
    term_id = instance.term_id
    rig = [term_id(term) for term in iplan.rigid_terms]
    views = [instance.int_view(step[0]) for step in iplan.steps]
    return iplan, rig, views


def int_slot_matches_resolved(
    iplan: IntPlan,
    rig: list[int],
    views: list,
    instance: Instance,
    seed: Mapping[Term, GroundTerm],
    budget: Optional[Budget],
) -> Iterator[tuple[int, ...]]:
    """`int_slot_matches` over a context from `int_seeded_context`."""
    term_id = instance.term_id
    slots = [-1] * iplan.n_slots
    for term, slot in iplan.seed_slots:
        slots[slot] = term_id(seed[term])
    return _slot_search(iplan.steps, views, rig, slots, 0, budget)


def int_slot_search(
    iplan: IntPlan,
    rig: list[int],
    views: list,
    slots: list[int],
    budget: Optional[Budget],
) -> Iterator[tuple[int, ...]]:
    """The raw slot search over a caller-prepared slot list.

    For callers that already hold seed values as ids (the chase seeds
    triggers from interned delta-fact rows) and can fill the slot list
    without a term-space round trip.  ``slots`` must be `iplan.n_slots`
    long with ``-1`` in every unseeded position; it is mutated during
    the search and restored between yields, so it must not be reused
    until the iterator is exhausted.
    """
    return _slot_search(iplan.steps, views, rig, slots, 0, budget)
