"""The restricted chase: TGD + EGD/FD steps.

The chase (paper §2, "Query containment and chase proofs") repairs an
instance against a set of dependencies:

* firing a **TGD** on an active trigger adds head facts, instantiating
  existential variables with fresh labeled nulls;
* firing an **FD/EGD** identifies two terms (preferring to keep constants
  and canonical-database nulls); identifying two distinct constants is a
  *hard violation* and the chase **fails** (the premises are
  unsatisfiable, which makes containment hold vacuously).

Only *active* triggers fire — triggers whose head is not yet satisfied
— so reaching a fixpoint yields a universal model (complete for
containment).  Two engines implement that semantics:

* ``delta`` (default): a semi-naive engine.  Each round only considers
  triggers whose body image touches the *delta* — facts added or
  rewritten since the previous round — seeding the homomorphism search
  per body atom from the new fact via a relation→(rule, atom) map built
  once per run.  Equalities are resolved incrementally: a per-FD
  ``(determiner-key → values)`` witness table pulls the next violation in
  O(1), the ``facts_containing`` occurrence index confines a merge to the
  facts actually mentioning the removed term, and merges are tracked in a
  union-find rather than by rewriting the substitution dict.

Both engines search through a `repro.matching` matcher (the ``matcher``
argument; the process default when omitted): join orders and per-atom
instructions are compiled once per (body, seed-shape) and reused across
rounds, and activeness/head-satisfaction checks are served as ground
probes or from the generation-invalidated check cache.
* ``naive``: the reference engine.  Every round re-enumerates all
  triggers over the whole instance and rescans relations for FD/EGD
  violations.  It is kept as the executable specification the delta
  engine is cross-checked against (``tests/chase/test_delta_equivalence``).

Both engines run in rounds with identical observable semantics: a round
applies EGDs to fixpoint, then fires all triggers discovered on the
current instance.  ``max_rounds`` / ``max_facts`` bound the run; the
outcome reports whether a fixpoint was reached, the bound was hit, or the
chase failed.
"""

from __future__ import annotations

import enum
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

from ..constraints.egd import EGD
from ..constraints.fd import FDWitnessIndex, FunctionalDependency
from ..constraints.tgd import TGD
from ..data.instance import Instance
from ..logic.atoms import Atom
from ..logic.terms import Constant, GroundTerm, Null, NullFactory, Term, Variable
from ..matching.intexec import (
    int_plan_of,
    int_seeded_context,
    int_slot_search,
)
from ..obs.timing import stage
from ..matching.matcher import Matcher, default_matcher
from ..runtime import Budget

Dependency = Union[TGD, EGD, FunctionalDependency]


class ChaseOutcome(enum.Enum):
    """How a chase run ended."""

    FIXPOINT = "fixpoint"          # all dependencies satisfied
    BOUND_REACHED = "bound"        # max_rounds or max_facts hit
    FAILED = "failed"              # EGD tried to merge distinct constants
    EARLY_STOP = "early-stop"      # the caller's stop condition fired


@dataclass(frozen=True)
class TGDStep:
    """Record of one TGD firing (used to extract plans from proofs)."""

    dependency: TGD
    trigger: dict
    produced: tuple[Atom, ...]
    round_index: int


@dataclass(frozen=True)
class MergeStep:
    """Record of one EGD/FD merge."""

    dependency: Union[EGD, FunctionalDependency]
    removed: GroundTerm
    kept: GroundTerm
    round_index: int


ChaseStep = Union[TGDStep, MergeStep]


@dataclass
class ChaseStats:
    """Work counters for one chase run (engine comparison / benchmarks)."""

    #: Body homomorphisms yielded while enumerating TGD triggers.
    triggers_enumerated: int = 0
    #: Head-satisfaction searches (activeness checks + firing re-checks).
    head_checks: int = 0
    #: Body homomorphisms examined while looking for EGD violations.
    egd_checks: int = 0
    #: EGD/FD merges performed.
    merges: int = 0

    @property
    def searches(self) -> int:
        """Total trigger-homomorphism searches performed."""
        return self.triggers_enumerated + self.head_checks + self.egd_checks


@dataclass
class ChaseResult:
    """Outcome of a chase run."""

    instance: Instance
    outcome: ChaseOutcome
    rounds: int
    steps: list[ChaseStep] = field(default_factory=list)
    #: Composite substitution applied by EGD merges (original -> final).
    substitution: dict[GroundTerm, GroundTerm] = field(default_factory=dict)
    stats: ChaseStats = field(default_factory=ChaseStats)

    @property
    def failed(self) -> bool:
        return self.outcome is ChaseOutcome.FAILED

    @property
    def terminated(self) -> bool:
        return self.outcome in (ChaseOutcome.FIXPOINT, ChaseOutcome.EARLY_STOP)


class _Unsatisfiable(Exception):
    """Raised internally when an EGD merges two distinct constants."""


# ----------------------------------------------------------------------
# Term identification: deterministic kept-term choice + union-find
# ----------------------------------------------------------------------

_LABEL_NUMBER = re.compile(r"(\D*?)(\d+)(.*)\Z", re.DOTALL)


def _null_age_key(null: Null) -> tuple:
    """Total order on nulls approximating creation order.

    Factory labels are ``{prefix}{index}`` or ``{prefix}{index}:{hint}``;
    parsing the index numerically makes ``c2`` older than ``c10``.  The
    order is a pure function of the label, so merge results are
    reproducible across hash-seed randomization.
    """
    match = _LABEL_NUMBER.match(null.label)
    if match:
        prefix, number, rest = match.groups()
        return (0, prefix, int(number), rest, null.label)
    return (1, null.label)


def _choose_kept(
    left: GroundTerm, right: GroundTerm
) -> tuple[GroundTerm, GroundTerm]:
    """Pick (kept, removed) for a merge: constants win, then older nulls."""
    if isinstance(left, Constant):
        if isinstance(right, Constant):
            raise _Unsatisfiable(
                f"cannot identify constants {left} and {right}"
            )
        return left, right
    if isinstance(right, Constant):
        return right, left
    if _null_age_key(left) <= _null_age_key(right):
        return left, right
    return right, left


class _UnionFind:
    """Union-find over merged terms; resolves each original to its root."""

    __slots__ = ("_parent",)

    def __init__(self) -> None:
        self._parent: dict[GroundTerm, GroundTerm] = {}

    def record(self, removed: GroundTerm, kept: GroundTerm) -> None:
        self._parent[removed] = kept

    def find(self, term: GroundTerm) -> GroundTerm:
        parent = self._parent
        root = term
        while root in parent:
            root = parent[root]
        while term != root:
            next_term = parent[term]
            parent[term] = root
            term = next_term
        return root

    def resolved(self) -> dict[GroundTerm, GroundTerm]:
        """The composite substitution: every merged term -> its root."""
        return {term: self.find(term) for term in list(self._parent)}


def _merge_terms(
    instance: Instance,
    left: GroundTerm,
    right: GroundTerm,
    substitution: dict[GroundTerm, GroundTerm],
) -> tuple[GroundTerm, GroundTerm]:
    """Identify two terms in the instance; return (kept, removed).

    This is the naive-engine variant: it rewrites the running
    substitution dict in place.  The kept term is chosen by
    `_choose_kept`, and only facts actually containing the removed term
    (per the occurrence index) are rewritten.
    """
    if left == right:
        return left, right
    kept, removed = _choose_kept(left, right)
    affected = list(instance.facts_containing(removed))
    for fact in affected:
        instance.discard(fact)
    for fact in affected:
        instance.add(
            Atom(
                fact.relation,
                tuple(kept if t == removed else t for t in fact.terms),
            )
        )
    # Update the composite substitution.
    for source, target in list(substitution.items()):
        if target == removed:
            substitution[source] = kept
    substitution[removed] = kept
    return kept, removed


def _fd_violation(
    instance: Instance, dependency: FunctionalDependency
) -> Optional[tuple[GroundTerm, GroundTerm]]:
    """Find one violation of the FD, as a pair of terms to merge."""
    witness: dict[tuple, GroundTerm] = {}
    for fact in instance.facts_of(dependency.relation):
        key, value = dependency.project(fact)
        previous = witness.setdefault(key, value)
        if previous != value:
            return previous, value
    return None


def _egd_violation(
    instance: Instance, dependency: EGD, stats: ChaseStats, matcher
) -> Optional[tuple[GroundTerm, GroundTerm]]:
    for assignment in matcher.homomorphisms(dependency.body, instance):
        stats.egd_checks += 1
        left = assignment[dependency.left]
        right = assignment[dependency.right]
        if left != right:
            return left, right
    return None


def _apply_equalities(
    instance: Instance,
    egds: Sequence[Union[EGD, FunctionalDependency]],
    substitution: dict[GroundTerm, GroundTerm],
    steps: Optional[list[ChaseStep]],
    round_index: int,
    stats: ChaseStats,
    matcher,
) -> None:
    """Apply FD/EGD merges to fixpoint (raises on constant clashes)."""
    changed = True
    while changed:
        changed = False
        for dependency in egds:
            while True:
                if isinstance(dependency, FunctionalDependency):
                    violation = _fd_violation(instance, dependency)
                else:
                    violation = _egd_violation(
                        instance, dependency, stats, matcher
                    )
                if violation is None:
                    break
                kept, removed = _merge_terms(
                    instance, violation[0], violation[1], substitution
                )
                stats.merges += 1
                if steps is not None:
                    steps.append(
                        MergeStep(dependency, removed, kept, round_index)
                    )
                changed = True


def _instantiate_head(
    dependency: TGD, trigger: dict, factory: NullFactory
) -> tuple[Atom, ...]:
    """The facts a firing produces: the trigger's exported bindings plus
    a fresh null per existential head variable.  Shared by both engines
    so their null-naming cannot drift apart."""
    head_map = dict(trigger)
    for existential in dependency.existential_variables():
        head_map[existential] = factory.fresh(existential.name)
    return tuple(a.substitute(head_map) for a in dependency.head)


def _seed_from_fact(atom: Atom, fact: Atom) -> Optional[dict[Term, GroundTerm]]:
    """Partial assignment forcing `atom` onto `fact`, or None on clash.

    Constants (and rigid nulls) in the body atom must match the fact
    literally; repeated variables must see equal terms.
    """
    if len(atom.terms) != len(fact.terms):
        return None
    seed: dict[Term, GroundTerm] = {}
    for term, value in zip(atom.terms, fact.terms):
        if isinstance(term, Variable):
            bound = seed.get(term)
            if bound is None:
                seed[term] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return seed


# ----------------------------------------------------------------------
# Delta (semi-naive) engine
# ----------------------------------------------------------------------


class _DeltaState:
    """Mutable state of a delta chase run.

    All instance mutations flow through `_add` / `_discard` so the FD
    witness tables and the two delta queues (equality worklist, next
    round's trigger delta) stay in sync with the fact set.
    """

    __slots__ = (
        "instance", "uf", "egds", "fd_indexes", "equality_delta",
        "trigger_delta", "stats", "steps", "matcher",
    )

    def __init__(
        self,
        start: Instance,
        equality_deps: Sequence[Union[EGD, FunctionalDependency]],
        steps: Optional[list[ChaseStep]],
        stats: ChaseStats,
        matcher,
    ) -> None:
        self.matcher = matcher
        self.instance = Instance()
        self.uf = _UnionFind()
        self.egds = [d for d in equality_deps if isinstance(d, EGD)]
        self.fd_indexes = [
            FDWitnessIndex(d)
            for d in equality_deps
            if isinstance(d, FunctionalDependency)
        ]
        self.equality_delta: deque[Atom] = deque()
        self.trigger_delta: list[Atom] = []
        self.stats = stats
        self.steps = steps
        for fact in start:
            self._add(fact)

    # -- mutation ------------------------------------------------------
    def _add(self, fact: Atom) -> bool:
        if not self.instance.add(fact):
            return False
        for index in self.fd_indexes:
            index.on_add(fact)
        if self.egds:
            self.equality_delta.append(fact)
        self.trigger_delta.append(fact)
        return True

    def _discard(self, fact: Atom) -> None:
        if self.instance.discard(fact):
            for index in self.fd_indexes:
                index.on_remove(fact)

    def _merge(
        self,
        left: GroundTerm,
        right: GroundTerm,
        dependency: Union[EGD, FunctionalDependency],
        round_index: int,
    ) -> None:
        """Identify two terms using the occurrence index."""
        if left == right:
            return
        kept, removed = _choose_kept(left, right)
        affected = list(self.instance.facts_containing(removed))
        for fact in affected:
            self._discard(fact)
        for fact in affected:
            self._add(
                Atom(
                    fact.relation,
                    tuple(kept if t == removed else t for t in fact.terms),
                )
            )
        self.uf.record(removed, kept)
        self.stats.merges += 1
        if self.steps is not None:
            self.steps.append(MergeStep(dependency, removed, kept, round_index))

    # -- equality fixpoint ---------------------------------------------
    def _drain_fd_violations(self, round_index: int) -> None:
        """Merge until every FD witness table is clean."""
        progress = True
        while progress:
            progress = False
            for index in self.fd_indexes:
                violation = index.next_violation()
                if violation is not None:
                    self._merge(
                        violation[0], violation[1], index.fd, round_index
                    )
                    progress = True

    def _next_equality_fact(self) -> Optional[Atom]:
        while self.equality_delta:
            fact = self.equality_delta.popleft()
            if fact in self.instance:
                return fact
        return None

    def _process_egd_fact(self, fact: Atom, round_index: int) -> None:
        """Resolve every EGD violation whose body image touches `fact`."""
        for egd in self.egds:
            for atom_index in egd.body_atoms_of_relation(fact.relation):
                while fact in self.instance:
                    seed = _seed_from_fact(egd.body[atom_index], fact)
                    if seed is None:
                        break
                    violation = None
                    for h in self.matcher.homomorphisms(
                        egd.body, self.instance, seed=seed
                    ):
                        self.stats.egd_checks += 1
                        if h[egd.left] != h[egd.right]:
                            violation = (h[egd.left], h[egd.right])
                            break
                    if violation is None:
                        break
                    self._merge(violation[0], violation[1], egd, round_index)
                if fact not in self.instance:
                    # The fact itself was rewritten; its replacement is
                    # queued on the equality delta and restarts the scan.
                    return

    def apply_equalities(self, round_index: int) -> None:
        """Apply FD/EGD merges to fixpoint, driven by the delta worklist."""
        while True:
            self._drain_fd_violations(round_index)
            if not self.egds:
                return
            fact = self._next_equality_fact()
            if fact is None:
                return
            self._process_egd_fact(fact, round_index)

    # -- trigger collection --------------------------------------------
    def take_trigger_delta(self) -> list[Atom]:
        delta = self.trigger_delta
        self.trigger_delta = []
        return delta


class _RuleExec:
    """Per-rule compiled state for the delta engine's trigger pipeline.

    Caches the variable tuples a rule's collection phase keeps
    re-deriving and, for the int executor, a per-plan *spec*:

    * ``body_slots`` — the plan's slot numbers of the body variables,
      in ``body_variables()`` order, so the per-rule dedup key is a
      plain projection of the slot row (ids are plan-independent:
      they come from the instance interner);
    * ``exported_pairs`` — ``(variable, slot)`` pairs for externing a
      trigger's frontier binding;
    * ``head_specs`` — for *full* TGDs only: per head atom, the
      relation plus a template of ``(True, slot)`` / ``(False, term)``
      entries from which the head's concrete int rows are built and
      membership-tested directly, bypassing the matcher entirely for
      the chase's hottest check (head satisfaction of closure rules).
    """

    __slots__ = (
        "index", "dependency", "body_vars", "exported", "is_full", "_specs",
    )

    def __init__(self, index: int, dependency: TGD) -> None:
        self.index = index
        self.dependency = dependency
        self.body_vars = dependency.body_variables()
        self.exported = dependency.exported_variables()
        self.is_full = not dependency.existential_variables()
        self._specs: dict = {}

    def spec_for(self, plan) -> tuple:
        """The int-space spec under this plan (idempotent; benign races)."""
        spec = self._specs.get(plan)
        if spec is None:
            slot_of = int_plan_of(plan).slot_of
            body_slots = tuple(slot_of[v] for v in self.body_vars)
            exported_pairs = tuple((v, slot_of[v]) for v in self.exported)
            if self.is_full:
                head_specs = tuple(
                    (
                        atom.relation,
                        tuple(
                            (True, slot_of[term])
                            if isinstance(term, Variable)
                            else (False, term)
                            for term in atom.terms
                        ),
                    )
                    for atom in self.dependency.head
                )
            else:
                head_specs = None
            spec = (body_slots, exported_pairs, head_specs)
            self._specs[plan] = spec
        return spec


def _head_rows_present(instance: Instance, head_rows: tuple) -> bool:
    """Are all of a full TGD's instantiated head rows already stored?

    Rows may carry the ``-1`` sentinel for a rigid head constant the
    instance has never interned; such a row can't be present, so the
    probe fails and the trigger fires — harmless for a full TGD, whose
    firing is a no-op exactly when the head facts already exist.
    """
    rows_by_relation = instance._rows
    for relation, row in head_rows:
        rows = rows_by_relation.get(relation)
        if rows is None or row not in rows:
            return False
    return True


def _collect_restricted_int(
    exec_: _RuleExec,
    seeds: list,
    instance: Instance,
    matcher,
    budget: Optional[Budget],
    record_env: bool,
) -> tuple[list, int, int]:
    """Restricted collection for one rule, entirely in int space.

    Seeds arrive as ``(atom_index, fact, row)`` triples — the fact's
    interned int row rides along from the delta bucketing — and are
    unified against the body atom in int space (rigid positions and
    repeated variables are plain id comparisons, and the seed slots
    fill straight from the row with no term-space round trip).
    Triggers are enumerated as raw slot rows, deduped on the int
    projection of the body variables, and — for full TGDs — activeness
    is checked by direct int-row membership probes; the probed rows are
    kept on the pending entry so the firing-time re-check repeats the
    probe without touching the matcher.  Environments are only externed
    for the survivors (frontier binding, plus the full trigger when
    steps are being recorded).
    """
    dependency = exec_.dependency
    body = dependency.body
    pending = []
    seen: set[tuple] = set()
    enumerated = 0
    head_checks = 0
    id_terms = instance.id_terms
    term_id = instance.term_id
    rows_by_relation = instance._rows
    body_vars = exec_.body_vars
    # Plan + resolved context per body atom: every seed of one atom has
    # the same key shape, so the plan lookup, spec derivation, the
    # seed-independent half of the execution prologue, and the atom's
    # row-unification spec run once per atom per round instead of once
    # per delta fact.
    contexts: dict[int, tuple] = {}
    for atom_index, fact, row in seeds:
        context = contexts.get(atom_index)
        if context is None:
            atom = body[atom_index]
            variables = {
                term for term in atom.terms if isinstance(term, Variable)
            }
            plan = matcher.plan_for(
                body, instance, seed=dict.fromkeys(variables)
            )
            iplan, rig, views = int_seeded_context(plan, instance)
            slot_of = iplan.slot_of
            fill = []      # (position, slot): first occurrence per var
            repeats = []   # (position, first position): must agree
            rigids = []    # (position, id): constants/rigid nulls
            first_at: dict = {}
            for position, term in enumerate(atom.terms):
                if isinstance(term, Variable):
                    first = first_at.get(term)
                    if first is None:
                        first_at[term] = position
                        fill.append((position, slot_of[term]))
                    else:
                        repeats.append((position, first))
                else:
                    rigids.append((position, term_id(term)))
            context = (
                exec_.spec_for(plan),
                (iplan, rig, views),
                (len(atom.terms), tuple(fill), tuple(repeats), tuple(rigids)),
            )
            contexts[atom_index] = context
        spec, resolved, seed_spec = context
        body_slots, exported_pairs, head_specs = spec
        iplan, rig, views = resolved
        arity, fill, repeats, rigids = seed_spec
        # Unify the delta row against the atom: ids never collide, so
        # these integer comparisons are exact term comparisons.
        if len(row) != arity:
            continue
        if any(row[position] != expected for position, expected in rigids):
            continue
        if any(row[position] != row[first] for position, first in repeats):
            continue
        slots = [-1] * iplan.n_slots
        for position, slot in fill:
            slots[slot] = row[position]
        for slots in int_slot_search(iplan, rig, views, slots, budget):
            enumerated += 1
            key = tuple(slots[s] for s in body_slots)
            if key in seen:
                continue
            seen.add(key)
            head_checks += 1
            head_rows = None
            if head_specs is not None:
                rows_list = []
                present = True
                direct = True
                for relation, template in head_specs:
                    row = tuple(
                        slots[index] if is_slot else term_id(index)
                        for is_slot, index in template
                    )
                    rows = rows_by_relation.get(relation)
                    if rows is None or row not in rows:
                        present = False
                        # A -1 entry (a rigid head constant the
                        # instance never interned) cannot be probed or
                        # rebuilt from ids; such triggers take the
                        # matcher path below.
                        if -1 in row:
                            direct = False
                    rows_list.append((relation, row))
                if present:
                    continue  # head satisfied: trigger not active
                if direct:
                    head_rows = tuple(rows_list)
            exported = {
                v: id_terms[slots[s]] for v, s in exported_pairs
            }
            if head_rows is None and matcher.has(
                dependency.head, instance, seed=exported
            ):
                continue
            if record_env:
                trigger = {
                    v: id_terms[slots[s]]
                    for v, s in zip(body_vars, body_slots)
                }
            else:
                # Head instantiation only reads the frontier binding,
                # so the exported map doubles as the trigger.
                trigger = exported
            pending.append(
                (exec_.index, dependency, trigger, exported, head_rows)
            )
    return pending, enumerated, head_checks


def _collect_restricted_obj(
    exec_: _RuleExec,
    seeds: list,
    instance: Instance,
    matcher,
    budget: Optional[Budget],
    record_env: bool,
) -> tuple[list, int, int]:
    """Restricted collection for one rule over dict environments (the
    path taken for any matcher that is not a `Matcher`, i.e. the naive
    reference matcher).  Mirrors `_collect_restricted_int` exactly."""
    dependency = exec_.dependency
    body = dependency.body
    pending = []
    seen: set[tuple] = set()
    enumerated = 0
    head_checks = 0
    body_vars = exec_.body_vars
    for atom_index, fact, __ in seeds:
        seed = _seed_from_fact(body[atom_index], fact)
        if seed is None:
            continue
        for trigger in matcher.homomorphisms(
            dependency.body, instance, seed=seed, budget=budget
        ):
            enumerated += 1
            key = tuple(trigger[v] for v in body_vars)
            if key in seen:
                continue
            seen.add(key)
            exported = {
                v: trigger[v] for v in exec_.exported if v in trigger
            }
            head_checks += 1
            if matcher.has(dependency.head, instance, seed=exported):
                continue  # head satisfied: trigger not active
            pending.append((
                exec_.index,
                dependency,
                dict(trigger) if record_env else exported,
                exported,
                None,
            ))
    return pending, enumerated, head_checks


def _chase_delta(
    start: Instance,
    tgds: Sequence[TGD],
    equality_deps: Sequence[Union[EGD, FunctionalDependency]],
    *,
    max_rounds: Optional[int],
    max_facts: Optional[int],
    record_steps: bool,
    factory: NullFactory,
    stop_when: Optional[Callable[[Instance], bool]],
    matcher,
    budget: Optional[Budget] = None,
) -> ChaseResult:
    """Semi-naive chase: only delta-touching triggers are enumerated.

    Each round is a collect/fire pair.  Collection — the read-only
    enumeration of delta-touching triggers — runs **per rule**: every
    rule's seeds and dedup set are rule-local.  Collector results are
    concatenated in rule-index order, which reproduces the naive
    engine's firing order (heads are instantiated at *firing* time, in
    that order).
    """
    stats = ChaseStats()
    steps: Optional[list[ChaseStep]] = [] if record_steps else None
    state = _DeltaState(start, equality_deps, steps, stats, matcher)
    # Static relation → (rule index, body atom index) dependency map.
    body_map: dict[str, list[tuple[int, int]]] = {}
    for index, dependency in enumerate(tgds):
        for atom_index, atom in enumerate(dependency.body):
            body_map.setdefault(atom.relation, []).append((index, atom_index))
    rule_execs = [
        _RuleExec(index, dependency) for index, dependency in enumerate(tgds)
    ]
    use_int = isinstance(matcher, Matcher)
    record_env = steps is not None
    rounds = 0

    def result(outcome: ChaseOutcome) -> ChaseResult:
        return ChaseResult(
            state.instance, outcome, rounds, steps or [],
            state.uf.resolved(), stats,
        )

    def collect(rule_index: int, seeds: list) -> tuple[list, int, int]:
        exec_ = rule_execs[rule_index]
        if use_int:
            return _collect_restricted_int(
                exec_, seeds, state.instance, matcher, budget, record_env
            )
        return _collect_restricted_obj(
            exec_, seeds, state.instance, matcher, budget, record_env
        )

    try:
        state.apply_equalities(0)
    except _Unsatisfiable:
        return result(ChaseOutcome.FAILED)
    if stop_when is not None and stop_when(state.instance):
        return result(ChaseOutcome.EARLY_STOP)

    while True:
        # Cooperative cancellation: the round boundary is the chase's
        # coarse check; matcher calls below carry the budget for the
        # fine-grained (per backtrack batch) checks inside a round.
        if budget is not None:
            budget.check()
        if max_rounds is not None and rounds >= max_rounds:
            return result(ChaseOutcome.BOUND_REACHED)
        rounds += 1
        # Bucket the delta's seeds per rule as (atom index, fact,
        # interned row) triples; unification against the body atom
        # happens inside the collectors (in int space on the int
        # path).  A trigger can be reachable from several of its
        # delta facts; the rule-local dedup sets collapse the
        # duplicates.
        delta = state.take_trigger_delta()
        instance = state.instance
        term_ids = instance._term_ids
        seeds_by_rule: dict[int, list] = {}
        for fact in delta:
            if fact not in instance:
                continue  # rewritten away by a later merge
            targets = body_map.get(fact.relation)
            if not targets:
                continue
            row = tuple(term_ids[term] for term in fact.terms)
            for rule_index, atom_index in targets:
                seeds_by_rule.setdefault(rule_index, []).append(
                    (atom_index, fact, row)
                )

        # Collect per rule and merge in rule order (the naive engine's
        # order): the firing-time re-check makes a round's outcome
        # depend on firing order, so matching the reference order keeps
        # the engines interchangeable.
        pending: list = []
        for rule_index in sorted(seeds_by_rule):
            entries, enumerated, head_checks = collect(
                rule_index, seeds_by_rule[rule_index]
            )
            pending.extend(entries)
            stats.triggers_enumerated += enumerated
            stats.head_checks += head_checks

        added_any = False
        id_terms = instance.id_terms
        for __, dependency, trigger, exported, head_rows in pending:
            # Re-check activeness: an earlier firing in this round may
            # already satisfy this trigger.  Full-TGD entries re-probe
            # their instantiated head rows directly; the rest go through
            # the matcher's generation-tagged check cache.
            stats.head_checks += 1
            if head_rows is not None:
                if _head_rows_present(instance, head_rows):
                    continue
            elif matcher.has(dependency.head, instance, seed=exported):
                continue
            if head_rows is not None:
                # Full TGD with fully interned head rows: the
                # produced facts are the rows read back through the
                # interner — no substitution pass needed.
                produced = tuple(
                    Atom(
                        relation,
                        tuple(id_terms[value] for value in row),
                    )
                    for relation, row in head_rows
                )
            else:
                produced = _instantiate_head(
                    dependency, trigger, factory
                )
            new_here = [f for f in produced if state._add(f)]
            if new_here:
                added_any = True
                if steps is not None:
                    steps.append(
                        TGDStep(
                            dependency, trigger, tuple(new_here), rounds
                        )
                    )
            if max_facts is not None and len(instance) > max_facts:
                return result(ChaseOutcome.BOUND_REACHED)

        try:
            state.apply_equalities(rounds)
        except _Unsatisfiable:
            return result(ChaseOutcome.FAILED)

        if stop_when is not None and stop_when(state.instance):
            return result(ChaseOutcome.EARLY_STOP)
        if not added_any:
            return result(ChaseOutcome.FIXPOINT)


# ----------------------------------------------------------------------
# Naive (reference) engine
# ----------------------------------------------------------------------


def _chase_naive(
    start: Instance,
    tgds: Sequence[TGD],
    equality_deps: Sequence[Union[EGD, FunctionalDependency]],
    *,
    max_rounds: Optional[int],
    max_facts: Optional[int],
    record_steps: bool,
    factory: NullFactory,
    stop_when: Optional[Callable[[Instance], bool]],
    matcher,
    budget: Optional[Budget] = None,
) -> ChaseResult:
    """Round-based reference chase: full re-enumeration every round."""
    stats = ChaseStats()
    instance = start.copy()
    steps: Optional[list[ChaseStep]] = [] if record_steps else None
    substitution: dict[GroundTerm, GroundTerm] = {}
    rounds = 0

    def result(outcome: ChaseOutcome) -> ChaseResult:
        return ChaseResult(
            instance, outcome, rounds, steps or [], substitution, stats
        )

    try:
        _apply_equalities(
            instance, equality_deps, substitution, steps, 0, stats, matcher
        )
    except _Unsatisfiable:
        return result(ChaseOutcome.FAILED)
    if stop_when is not None and stop_when(instance):
        return result(ChaseOutcome.EARLY_STOP)

    while True:
        if budget is not None:
            budget.check()
        if max_rounds is not None and rounds >= max_rounds:
            return result(ChaseOutcome.BOUND_REACHED)
        rounds += 1
        new_facts: list[tuple[TGD, dict, tuple[Atom, ...]]] = []
        # Collect triggers against the instance as of the round start.
        for dependency in tgds:
            for trigger in list(
                matcher.homomorphisms(
                    dependency.body, instance, budget=budget
                )
            ):
                stats.triggers_enumerated += 1
                stats.head_checks += 1
                if not dependency.is_active_trigger(
                    trigger, instance, matcher
                ):
                    continue
                produced = _instantiate_head(dependency, trigger, factory)
                new_facts.append((dependency, dict(trigger), produced))

        added_any = False
        for dependency, trigger, produced in new_facts:
            # Re-check activeness: an earlier firing in this round may
            # already satisfy this trigger.
            exported = {
                v: trigger[v]
                for v in dependency.exported_variables()
                if v in trigger
            }
            stats.head_checks += 1
            if matcher.has(dependency.head, instance, seed=exported):
                continue
            new_here = [f for f in produced if instance.add(f)]
            if new_here:
                added_any = True
                if steps is not None:
                    steps.append(
                        TGDStep(dependency, trigger, tuple(new_here), rounds)
                    )
            if max_facts is not None and len(instance) > max_facts:
                return result(ChaseOutcome.BOUND_REACHED)

        try:
            _apply_equalities(
                instance, equality_deps, substitution, steps, rounds,
                stats, matcher,
            )
        except _Unsatisfiable:
            return result(ChaseOutcome.FAILED)

        if stop_when is not None and stop_when(instance):
            return result(ChaseOutcome.EARLY_STOP)
        if not added_any:
            return result(ChaseOutcome.FIXPOINT)


def chase(
    start: Instance,
    dependencies: Iterable[Dependency],
    *,
    max_rounds: Optional[int] = None,
    max_facts: Optional[int] = None,
    record_steps: bool = False,
    null_factory: Optional[NullFactory] = None,
    stop_when: Optional[Callable[[Instance], bool]] = None,
    engine: str = "delta",
    matcher=None,
    budget: Optional[Budget] = None,
) -> ChaseResult:
    """Chase `start` with the dependencies.

    The input instance is not modified.  See the module docstring for the
    outcome semantics.  ``stop_when`` is checked after every
    round (and once before the first round) and short-circuits the run —
    used by the containment solver to stop as soon as the target query
    matches.

    ``engine`` selects the implementation:

    * ``"delta"`` (default) — the semi-naive engine: per-round delta fact
      sets, trigger search seeded from new facts only, indexed equality
      merging, union-find substitution tracking.  This is the fast path.
    * ``"naive"`` — the reference engine that re-enumerates all triggers
      over the whole instance every round.  Same observable semantics
      (outcomes, final instance up to null renaming); kept for
      cross-checking and as an executable specification.

    ``matcher`` supplies the homomorphism engine — any object with the
    `repro.matching.Matcher` interface.  ``None`` (default) uses the
    process-wide planned matcher; callers holding a
    `repro.service.CompiledSchema` should pass its per-fingerprint
    matcher so compiled plans and check caches are shared across runs,
    and the cross-check/benchmark suites pass
    `repro.matching.NaiveMatcher` to run the same engine on the
    uncompiled reference search.

    ``budget`` makes the run cooperatively cancellable: it is checked
    at every round boundary (alongside ``max_rounds``/``max_facts``)
    and threaded into the matcher's trigger searches, so an exhausted
    deadline raises `repro.runtime.DeadlineExceeded` out of the chase
    within one backtrack batch.
    """
    if engine not in ("delta", "naive"):
        raise ValueError(f"unknown chase engine: {engine}")
    tgds = [d for d in dependencies if isinstance(d, TGD)]
    equality_deps = [
        d
        for d in dependencies
        if isinstance(d, (EGD, FunctionalDependency))
    ]
    factory = null_factory or NullFactory(prefix="c")
    runner = _chase_delta if engine == "delta" else _chase_naive
    with stage("chase"):
        return runner(
            start,
            tgds,
            equality_deps,
            max_rounds=max_rounds,
            max_facts=max_facts,
            record_steps=record_steps,
            factory=factory,
            stop_when=stop_when,
            matcher=matcher if matcher is not None else default_matcher(),
            budget=budget,
        )


def satisfies(instance: Instance, dependencies: Iterable[Dependency]) -> bool:
    """True iff the instance satisfies all the dependencies."""
    return all(dep.satisfied_by(instance) for dep in dependencies)
