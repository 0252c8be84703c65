"""The planned, memoizing homomorphism matcher.

`Matcher` is the execution engine over `repro.matching.plan`:

* **plan cache** — compiled `MatchPlan`s memoized per
  (atoms, rigidity, seed-shape) key in a bounded LRU, so the join order
  and instruction tuples are derived once per shape ever;
* **check cache** — boolean `has` results cached on the instance's
  ``match_cache`` and invalidated by its per-relation generation
  counters: an entry stays valid exactly while no fact of any relation
  the plan touches was added or removed.  Both positive and negative
  results are cached (the restricted chase's activeness re-checks are
  the canonical consumer);
* **ground probes** — plans whose every atom is ground under the seed
  shape skip both search and cache and test fact membership directly.

The module also hosts the two query-shape predicates the rewriting
engine needs — exact isomorphism (an injective, variable-to-variable
planned search against the frozen right-hand side) and homomorphic
subsumption — so every decision procedure in the library bottoms out in
the same compiled search.

A `Matcher` is thread-safe for concurrent use on distinct instances
(the plan cache takes a lock; check-cache state lives on the instance
being searched).  `repro.service.CompiledSchema` owns one matcher per
schema fingerprint; free functions share the process-wide
`default_matcher()`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ..data.instance import Instance
from ..logic.atoms import Atom
from ..logic.terms import GroundTerm, Null, Term, Variable, fresh_null
from ..runtime import Budget
from .intexec import (
    int_find,
    int_ground_probe,
    int_has,
    int_search,
)
from .plan import MatchPlan, plan_key

Assignment = dict[Term, GroundTerm]

#: Default bound on memoized plans (LRU eviction past this).
DEFAULT_PLAN_CACHE_SIZE = 4096
#: Per-instance check-cache entries before a wholesale clear.
DEFAULT_CHECK_CACHE_LIMIT = 65536
#: Replan-on-drift: a memoized plan is recompiled when some relation it
#: touches has grown or shrunk past this factor relative to the
#: cardinality snapshot its join order was chosen under.  The damping
#: keeps tiny instances from thrashing (0 → 31 facts is not drift;
#: 100 → 10000 is).
DRIFT_FACTOR = 8
DRIFT_DAMPING = 4
#: Plan-cache hits between two drift checks of the same plan (the very
#: first reuse is always checked; see `MatchPlan.drift_countdown`).
DRIFT_CHECK_STRIDE = 16
#: Stop replanning a key after this many recompiles: a key probed
#: against many differently-sized instances (the rewriting engine's
#: subsumption sweeps) would otherwise recompile on every alternation.
MAX_REPLANS_PER_KEY = 16
#: Frozen right-hand sides memoized for isomorphism checks (the
#: rewriting dedup compares each candidate against every kept state of
#: its shape bucket, so the same right side recurs across comparisons).
FROZEN_ISO_CACHE_SIZE = 1024


# ----------------------------------------------------------------------
# Term-space isomorphism search (plan execution itself is in `intexec`)
# ----------------------------------------------------------------------
def _probe(entry, instance: Instance, assignment: Mapping) -> bool:
    """Membership test for an atom ground under the plan."""
    terms = tuple(
        term if rigid else assignment[term]
        for rigid, term in entry.probe_template
    )
    return Atom(entry.relation, terms) in instance


def _candidates(entry, instance: Instance, assignment: Mapping) -> Iterable[Atom]:
    """Most selective index bucket for the atom's known positions."""
    best = None
    best_size = -1
    for position, term in entry.rigid:
        facts = instance.facts_with(entry.relation, position, term)
        size = len(facts)
        if size <= 1:
            return facts
        if best is None or size < best_size:
            best = facts
            best_size = size
    for position, term in entry.bound_checks:
        facts = instance.facts_with(
            entry.relation, position, assignment[term]
        )
        size = len(facts)
        if size <= 1:
            return facts
        if best is None or size < best_size:
            best = facts
            best_size = size
    if best is not None:
        return best
    return instance.facts_of(entry.relation)


def _find_injective(
    plan: MatchPlan,
    instance: Instance,
    assignment: Assignment,
    used: set[GroundTerm],
    targets: frozenset[GroundTerm],
    depth: int,
) -> bool:
    """Find one injective, `targets`-valued completion of `assignment`."""
    compiled = plan.compiled
    if depth == len(compiled):
        return True
    entry = compiled[depth]
    if entry.probe_template is not None:
        return _probe(entry, instance, assignment) and _find_injective(
            plan, instance, assignment, used, targets, depth + 1
        )
    for fact in _candidates(entry, instance, assignment):
        terms = fact.terms
        if len(terms) != entry.arity:
            continue
        ok = all(terms[p] == t for p, t in entry.rigid) and all(
            assignment[t] == terms[p] for p, t in entry.bound_checks
        )
        if not ok:
            continue
        newly: list[Term] = []
        failed = False
        for position, term in entry.binds:
            value = terms[position]
            current = assignment.get(term)
            if current is None:
                if value not in targets or value in used:
                    failed = True
                    break
                assignment[term] = value
                used.add(value)
                newly.append(term)
            elif current != value:
                failed = True
                break
        if not failed and _find_injective(
            plan, instance, assignment, used, targets, depth + 1
        ):
            return True
        for term in newly:
            used.discard(assignment[term])
            del assignment[term]
    return False


def _drifted(plan: MatchPlan, instance: Instance) -> bool:
    """Has any touched relation's cardinality left the snapshot band?"""
    for relation, snapshot in zip(plan.relations, plan.stats_snapshot):
        current = len(instance.facts_of(relation)) + DRIFT_DAMPING
        recorded = snapshot + DRIFT_DAMPING
        if current > recorded * DRIFT_FACTOR or recorded > current * DRIFT_FACTOR:
            return True
    return False


def freeze_atoms(atoms: Sequence[Atom]) -> tuple[Instance, frozenset]:
    """Freeze a CQ body into an instance: variables become tagged nulls.

    Returns the instance and the set of nulls standing for variables
    (the injective-targets set of the isomorphism check).  The nulls
    are globally fresh, so a rigid null appearing in the atoms matched
    *against* the frozen instance can never alias a variable image.
    """
    freezing: dict[Variable, Null] = {}
    frozen = []
    for atom in atoms:
        terms = []
        for term in atom.terms:
            if isinstance(term, Variable):
                null = freezing.get(term)
                if null is None:
                    null = fresh_null("frz")
                    freezing[term] = null
                terms.append(null)
            else:
                terms.append(term)
        frozen.append(Atom(atom.relation, tuple(terms)))
    return Instance(frozen), frozenset(freezing.values())


# ----------------------------------------------------------------------
# The matcher
# ----------------------------------------------------------------------
class Matcher:
    """Planned homomorphism search with cross-call memoization.

    ::

        matcher = Matcher()
        for h in matcher.homomorphisms(body, instance, seed=seed): ...
        matcher.has(head, instance, seed=exported)   # cached check
        matcher.stats()["check_hits"]                # cache traffic
    """

    def __init__(
        self,
        *,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
        check_cache_limit: int = DEFAULT_CHECK_CACHE_LIMIT,
    ) -> None:
        self.plan_cache_size = plan_cache_size
        self.check_cache_limit = check_cache_limit
        self._plans: OrderedDict[tuple, MatchPlan] = OrderedDict()
        self._frozen_iso: OrderedDict[
            tuple, tuple[Instance, frozenset]
        ] = OrderedDict()
        self._lock = threading.Lock()
        self._counters = {
            "plans_compiled": 0,
            "plan_hits": 0,
            "plan_evictions": 0,
            "drift_checks": 0,
            "replans": 0,
            "enumerations": 0,
            "checks": 0,
            "ground_probe_checks": 0,
            "check_hits": 0,
            "check_misses": 0,
            "check_evictions": 0,
            "iso_checks": 0,
            "subsumption_checks": 0,
        }

    # -- plans ---------------------------------------------------------
    def plan_for(
        self,
        atoms: Sequence[Atom],
        instance: Instance,
        *,
        seed: Optional[Mapping[Term, GroundTerm]] = None,
        flexible_nulls: bool = False,
    ) -> MatchPlan:
        """The memoized plan for this search shape (compiling on miss).

        The join order of a fresh plan is chosen from `instance`'s index
        statistics, and the plan is reused for every instance searched
        under the same key — **unless** the cardinalities of the
        relations it touches have drifted past `DRIFT_FACTOR` from the
        snapshot the order was chosen under, in which case the join
        order is recompiled against the current statistics
        (replan-on-drift; `stats()["replans"]` counts recompiles).
        Single-atom plans have no order to get wrong and are never
        drift-checked.
        """
        key = plan_key(atoms, flexible_nulls, seed)
        counters = self._counters
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                counters["plan_hits"] += 1
                if (
                    len(plan.compiled) > 1
                    and plan.replan_count < MAX_REPLANS_PER_KEY
                ):
                    plan.drift_countdown -= 1
                    if plan.drift_countdown <= 0:
                        plan.drift_countdown = DRIFT_CHECK_STRIDE
                        counters["drift_checks"] += 1
                        if _drifted(plan, instance):
                            replacement = MatchPlan(key, instance)
                            replacement.replan_count = plan.replan_count + 1
                            self._plans[key] = replacement
                            counters["replans"] += 1
                            return replacement
                return plan
            plan = MatchPlan(key, instance)
            counters["plans_compiled"] += 1
            self._plans[key] = plan
            while len(self._plans) > self.plan_cache_size:
                self._plans.popitem(last=False)
                counters["plan_evictions"] += 1
            return plan

    # -- enumeration ---------------------------------------------------
    def homomorphisms(
        self,
        atoms: Sequence[Atom],
        instance: Instance,
        *,
        seed: Optional[Mapping[Term, GroundTerm]] = None,
        flexible_nulls: bool = False,
        budget: Optional[Budget] = None,
    ) -> Iterator[Assignment]:
        """Enumerate homomorphisms of `atoms` into `instance`.

        Yields full assignments (seed entries included), like the
        historical `repro.logic.homomorphism.homomorphisms`; enumeration
        order is unspecified.  The instance must not be mutated while
        the iterator is live.  ``budget`` (when given) is ticked per
        candidate fact: an exhausted budget raises `DeadlineExceeded`
        out of the iterator.
        """
        plan = self.plan_for(
            atoms, instance, seed=seed, flexible_nulls=flexible_nulls
        )
        self._counters["enumerations"] += 1
        return int_search(plan, instance, seed, budget)

    def find(
        self,
        atoms: Sequence[Atom],
        instance: Instance,
        *,
        seed: Optional[Mapping[Term, GroundTerm]] = None,
        flexible_nulls: bool = False,
        budget: Optional[Budget] = None,
    ) -> Optional[Assignment]:
        """One homomorphism, or None."""
        plan = self.plan_for(
            atoms, instance, seed=seed, flexible_nulls=flexible_nulls
        )
        return int_find(plan, instance, seed, budget)

    def has(
        self,
        atoms: Sequence[Atom],
        instance: Instance,
        *,
        seed: Optional[Mapping[Term, GroundTerm]] = None,
        flexible_nulls: bool = False,
        budget: Optional[Budget] = None,
    ) -> bool:
        """Cached existence check.

        Fully ground plans probe the fact indexes directly (cheaper than
        any cache).  Other results are cached on the instance and stay
        valid while the generation counters of every relation the plan
        touches are unchanged — so the restricted chase's activeness
        re-checks and a containment loop's per-round query probes only
        recompute when a relevant relation actually changed.

        A `DeadlineExceeded` raised mid-search propagates *before* the
        cache write below — an aborted check never stores a partial
        (wrong) boolean.
        """
        plan = self.plan_for(
            atoms, instance, seed=seed, flexible_nulls=flexible_nulls
        )
        counters = self._counters
        counters["checks"] += 1
        if plan.all_ground:
            counters["ground_probe_checks"] += 1
            return int_ground_probe(plan, instance, seed)
        cache = instance.match_cache
        generations = instance.generations(plan.relations)
        key = (plan.key, frozenset(seed.items()) if seed else None)
        entry = cache.get(key)
        if entry is not None and entry[1] == generations:
            counters["check_hits"] += 1
            return entry[0]
        counters["check_misses"] += 1
        result = int_has(plan, instance, seed, budget)
        # Concurrency note (the tests/concurrency battery leans on
        # this): the cache is deliberately lock-free.  Entries are
        # tagged with the generations read *before* the search — if
        # another thread mutates the instance mid-search, the computed
        # result is stored under a now-stale tag, and because
        # generation counters only ever increase, no later read can
        # match that tag: the entry is dead, never wrong.  Concurrent
        # clear/insert interleavings can at worst drop an entry
        # (re-derived on the next miss).  This holds for threads
        # sharing a *quiescent* instance (the serving layer's case);
        # mutating an instance while another thread searches it remains
        # outside the contract of `Instance`'s live index views.
        if len(cache) >= self.check_cache_limit:
            cache.clear()
            counters["check_evictions"] += 1
        cache[key] = (result, generations)
        return result

    # -- query-shape predicates ---------------------------------------
    def is_isomorphic(
        self, left: Sequence[Atom], right: Sequence[Atom]
    ) -> bool:
        """Exact isomorphism of two duplicate-free CQ bodies.

        True iff a bijective variable renaming maps one atom set onto
        the other; decided as an injective planned search of `left`
        against `right` frozen, with bindings restricted to the frozen
        variable images (so variables map to variables only, which
        together with equal sizes and variable counts forces an atom
        bijection).  Inputs are compared as atom *sets* (duplicates
        dropped — CQ bodies have set semantics).
        """
        left = tuple(dict.fromkeys(left))
        right = tuple(dict.fromkeys(right))
        self._counters["iso_checks"] += 1
        if len(left) != len(right):
            return False
        left_vars = {
            t for a in left for t in a.terms if isinstance(t, Variable)
        }
        # Frozen right-hand sides are memoized: the rewriting dedup
        # compares many candidates against the same kept states.
        with self._lock:
            entry = self._frozen_iso.get(right)
            if entry is not None:
                self._frozen_iso.move_to_end(right)
        if entry is None:
            entry = freeze_atoms(right)
            with self._lock:
                self._frozen_iso[right] = entry
                while len(self._frozen_iso) > FROZEN_ISO_CACHE_SIZE:
                    self._frozen_iso.popitem(last=False)
        frozen, targets = entry
        # freeze_atoms maps each distinct variable to a distinct null,
        # so |targets| is the right side's variable count.
        if len(left_vars) != len(targets):
            return False
        plan = self.plan_for(left, frozen)
        return _find_injective(plan, frozen, {}, set(), targets, 0)

    def subsumes(
        self, smaller: Sequence[Atom], larger: Sequence[Atom]
    ) -> bool:
        """True iff `smaller` hom-maps into `larger` (as Boolean CQs:
        every instance satisfying `larger` satisfies `smaller`)."""
        frozen, __ = freeze_atoms(larger)
        return self.maps_into(smaller, frozen)

    def maps_into(
        self,
        atoms: Sequence[Atom],
        frozen: Instance,
        *,
        plan: Optional[MatchPlan] = None,
    ) -> bool:
        """Subsumption against an already-frozen right-hand side (use
        `freeze_atoms` once when testing many candidates).

        ``plan`` short-circuits the plan-cache lookup: a caller probing
        one left-hand side against many frozen instances (the rewriting
        engine's pruning pass) fetches the plan once via `plan_for` and
        passes it back, skipping the per-probe key hashing.
        """
        self._counters["subsumption_checks"] += 1
        if plan is None:
            plan = self.plan_for(tuple(atoms), frozen)
        return int_has(plan, frozen, None, None)

    # -- diagnostics ---------------------------------------------------
    def stats(self) -> dict:
        """Plan/check cache traffic counters (approximate under races)."""
        return {
            "strategy": "planned",
            "plans_cached": len(self._plans),
            **self._counters,
        }

    def __repr__(self) -> str:
        return f"Matcher({len(self._plans)} plans cached)"


# ----------------------------------------------------------------------
# The process-wide default matcher (free-function consumers)
# ----------------------------------------------------------------------
_DEFAULT_MATCHER = Matcher()


def default_matcher() -> Matcher:
    """The shared matcher behind the `repro.logic.homomorphism` wrappers
    and every consumer not holding a `CompiledSchema`."""
    return _DEFAULT_MATCHER
