"""Complete containment for linear TGDs via backward UCQ rewriting.

Inclusion dependencies — and, crucially, the linear TGDs produced by the
paper's *linearization* technique (Prop 5.5 / App E.3) — form a
*finite-unification set*: the certain-answer rewriting of a CQ under them
is a finite UCQ (Calì–Gottlob–Lembo-style PerfectRef).  This yields a
**terminating and complete** decision procedure for containment:

    Q ⊆Σ Q'   iff   CanonDB(Q) satisfies some disjunct of rewrite(Q', Σ)

which complements the chase route (complete only on terminating classes).
The deciders for IDs and bounded-width IDs use this module after
linearizing, exactly as Theorem 5.4 prescribes.

The work is organized around `RewriteEngine`, an *incremental* rewriter
over one fixed rule set:

* at construction the rules are validated, renamed apart once, and
  indexed by head relation/arity (the only rules that can resolve
  against an atom);
* every backward-resolution step is compiled per **atom pattern** (the
  atom's relation plus its variable-repetition/constant shape and which
  of its variables are shared with the rest of the query) and memoized —
  the unification work is done once per (pattern, rule) ever;
* query states are kept in **canonical form** (variables renamed by a
  deterministic scheme), and the full expansion of each canonical state
  is memoized, so rewriting query N+1 reuses every frontier state
  already explored for queries 1..N that is still cached;
* the state and whole-result memos are LRU tables capped at
  `MAX_CACHED_STATES` / `MAX_CACHED_RESULTS`, so distinct-query
  traffic cannot grow an engine without bound (an evicted entry is
  recomputed, never served wrong);
* emitted UCQs are deduplicated by canonical isomorphism class and
  sorted deterministically, so the output (and any cache key derived
  from it) is stable across runs and across engine instances.

Deciding ``chase(I, Σ) ⊨ Q`` goes through `RewriteEngine.entails`,
which rewrites Q **piece by piece** instead of as one product UCQ
(the rewriting of a star join has one disjunct per combination of its
atoms' rewritings — 4^k of them for k lookups under an exact dump):

* the *affected positions* of the rules (existential head positions,
  closed under frontier propagation) are computed once per engine.
  Every other position holds only terms of I in any chase, so a query
  variable with an occurrence at a non-affected position is *rigid*:
  it can only map into adom(I);
* the query splits into *pieces*, the connected components of its
  atoms under shared non-rigid variables;
* each piece is rewritten as the Boolean CQ ``P ∧ ANSWER(x̄)``, x̄ its
  join variables (rigid variables that occur in another piece too).
  `ANSWER` is a reserved relation no rule mentions, so its atom is
  never resolved and x̄ counts as shared: no step unifies x̄ with an
  existential, while factorization may still identify entries of x̄.
  The rewriting code is unchanged and its memos now hit per piece
  shape; ``max_disjuncts`` caps each piece's frontier;
* each piece's disjuncts are evaluated over I into a table of x̄
  tuples, and the tables are hash-joined on their shared variables,
  stopping at the first empty table or join.  A YES carries the
  matching piece disjuncts, concatenated, as one CQ certificate.

`RewriteEngine.rewrite` — the whole-query UCQ — stays public; the raw
``RewriteEngine(rules, subsumption=False).rewrite(Q)`` probed over I is
the test oracle for `entails`.  The free `rewrite()` keeps its
historical signature as a thin compile-on-the-fly wrapper.  Only
single-head linear TGDs are supported (every rule emitted by our
linearization has this shape); the engine raises otherwise.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterable, Optional, Sequence

from ..constraints.tgd import TGD
from ..data.instance import Instance
from ..defaults import DEFAULT_MAX_DISJUNCTS
from ..logic.atoms import Atom
from ..logic.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..logic.terms import Constant, Null, Term, Variable
from ..matching.matcher import default_matcher, freeze_atoms
from ..obs.timing import stage
from ..runtime import Budget
from .decision import Decision

#: A canonical Boolean CQ body: atoms over `_q*` variables in sorted order.
State = tuple[Atom, ...]

#: Canonical-state expansions a `RewriteEngine` keeps (least recently
#: used evicted first).  A state with its successors takes about 1 KB,
#: so this bounds the memo at a few MB per engine.
MAX_CACHED_STATES = 4096

#: Whole rewriting results a `RewriteEngine` keeps (least recently used
#: evicted first; an evicted result is recomputed).
MAX_CACHED_RESULTS = 512

#: The reserved relation carrying a piece's join variables through its
#: rewriting (`RewriteEngine.entails`).  No rule may mention it.
ANSWER = "__answer__"


def _check_limit(max_disjuncts: int) -> int:
    """A disjunct budget below 1 is a caller error, not an overflow:
    the start state alone is one disjunct."""
    if max_disjuncts < 1:
        raise ValueError(f"max_disjuncts must be >= 1, got {max_disjuncts}")
    return max_disjuncts


class RewritingError(ValueError):
    """Raised on unsupported inputs (non-linear rules, non-Boolean CQs)."""


class RewritingBudgetExceeded(RewritingError):
    """The rewriting grew past ``max_disjuncts`` (Q remains undecided).

    A typed subclass so service layers can surface the budget as a
    structured error (``as_detail``) instead of a bare traceback, while
    existing ``except RewritingError`` handlers keep working.
    ``reached`` is the frontier size at which the overflow was detected
    — always ``max_disjuncts + 1``, whether the overflow is found live
    or on a memoized result, so replays of one request report the same
    error regardless of engine cache warmth.
    """

    def __init__(self, max_disjuncts: int, reached: int) -> None:
        super().__init__(
            f"rewriting exceeded {max_disjuncts} disjuncts "
            f"(reached {reached}); raise max_disjuncts to continue"
        )
        self.max_disjuncts = max_disjuncts
        self.reached = reached

    def as_detail(self) -> dict:
        """The structured wire form (`DecideResponse.error`, CLI JSON)."""
        return {
            "type": "RewritingBudgetExceeded",
            "max_disjuncts": self.max_disjuncts,
            "reached": self.reached,
        }


# ----------------------------------------------------------------------
# Unification on term equivalence classes
# ----------------------------------------------------------------------
class _Unifier:
    """Union-find over terms with constant-clash detection."""

    def __init__(self) -> None:
        self._parent: dict[Term, Term] = {}

    def find(self, term: Term) -> Term:
        parent = self._parent.setdefault(term, term)
        if parent is term:
            return term
        root = self.find(parent)
        self._parent[term] = root
        return root

    def union(self, left: Term, right: Term) -> bool:
        """Merge classes; return False on a constant/null clash."""
        left_root, right_root = self.find(left), self.find(right)
        if left_root == right_root:
            return True
        left_rigid = not isinstance(left_root, Variable)
        right_rigid = not isinstance(right_root, Variable)
        if left_rigid and right_rigid:
            return False
        if left_rigid:
            self._parent[right_root] = left_root
        else:
            self._parent[left_root] = right_root
        return True

    def classes(self) -> dict[Term, list[Term]]:
        groups: dict[Term, list[Term]] = {}
        for term in list(self._parent):
            groups.setdefault(self.find(term), []).append(term)
        return groups


# ----------------------------------------------------------------------
# Canonical states
# ----------------------------------------------------------------------
def _shape(a: Atom) -> tuple:
    """A variable-blind pattern of one atom (repetitions + constants)."""
    pattern = []
    first_seen: dict[Term, int] = {}
    for term in a.terms:
        if isinstance(term, Variable):
            pattern.append(("v", first_seen.setdefault(term, len(first_seen))))
        else:
            pattern.append(("c", repr(term)))
    return (a.relation, tuple(pattern))


#: Interned canonical/fresh variables (the hot loop allocates none).
#: The pools are process-global — engines on different schemas share
#: them — so growth takes a lock; reads are safe because the pools only
#: ever append.
_CANONICAL_VARS: list[Variable] = []
_FRESH_VARS: list[Variable] = []
_POOL_LOCK = threading.Lock()


def _interned(pool: list[Variable], prefix: str, index: int) -> Variable:
    if index < len(pool):
        return pool[index]
    with _POOL_LOCK:
        while len(pool) <= index:
            pool.append(Variable(f"{prefix}{len(pool)}"))
    return pool[index]


def canonical_state(atoms: Iterable[Atom]) -> State:
    """A renaming-invariant normal form of a Boolean CQ body.

    Atoms are ordered by a variable-blind shape, variables renamed to
    ``_q0, _q1, ...`` by first occurrence, duplicates dropped, and the
    result sorted deterministically.  Alpha-equivalent bodies presented
    in the same atom order map to the same state (shape-sort ties may
    distinguish some isomorphic bodies — see the isomorphism dedup at
    emission — which costs duplicates, never correctness).
    """
    ordered = sorted(dict.fromkeys(atoms), key=_shape)
    renaming: dict[Variable, int] = {}
    rebuilt = []
    for a in ordered:
        terms = []
        sort_terms = []
        for t in a.terms:
            if isinstance(t, Variable):
                index = renaming.get(t)
                if index is None:
                    index = len(renaming)
                    renaming[t] = index
                terms.append(_interned(_CANONICAL_VARS, "_q", index))
                sort_terms.append((0, index))
            else:
                terms.append(t)
                sort_terms.append((1, repr(t)))
        rebuilt.append(
            ((a.relation, tuple(sort_terms)), Atom(a.relation, tuple(terms)))
        )
    rebuilt.sort(key=lambda pair: pair[0])
    return tuple(dict.fromkeys(a for __, a in rebuilt))


def _isomorphic(left: State, right: State) -> bool:
    """Exact isomorphism of two CQ bodies (bijective variable renaming).

    Decided by the compiled matching core: an injective planned search
    of `left` against `right` frozen, bindings restricted to variable
    images (`repro.matching.Matcher.is_isomorphic`).  Kept as a free
    function for callers outside an engine; `RewriteEngine` dedups on
    its own matcher.
    """
    return default_matcher().is_isomorphic(left, right)


def _factorizations(atoms: State) -> Iterable[tuple[Atom, ...]]:
    """Unify pairs of same-relation atoms (the 'reduce' step)."""
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            if atoms[i].relation != atoms[j].relation:
                continue
            if atoms[i].arity != atoms[j].arity:
                continue
            unifier = _Unifier()
            ok = True
            for left, right in zip(atoms[i].terms, atoms[j].terms):
                if not unifier.union(left, right):
                    ok = False
                    break
            if not ok:
                continue
            substitution = {
                term: unifier.find(term) for term in list(unifier._parent)
            }
            merged = tuple(
                dict.fromkeys(a.substitute(substitution) for a in atoms)
            )
            if len(merged) < len(atoms):
                yield merged


def _affected_positions(rules: Sequence[TGD]) -> frozenset[tuple[str, int]]:
    """The (relation, position) pairs a chase under ``rules`` can fill
    with a fresh null: existential head positions, closed under
    frontier propagation (a head position is affected when every body
    occurrence of its variable is).  Keyed by relation name alone, so a
    relation used at two arities is over-approximated — which only
    makes fewer variables rigid."""
    affected: set[tuple[str, int]] = set()
    for rule in rules:
        head = rule.head[0]
        existentials = set(rule.existential_variables())
        for i, term in enumerate(head.terms):
            if term in existentials:
                affected.add((head.relation, i))
    changed = True
    while changed:
        changed = False
        for rule in rules:
            body, head = rule.body[0], rule.head[0]
            for i, term in enumerate(head.terms):
                if not isinstance(term, Variable):
                    continue
                if (head.relation, i) in affected:
                    continue
                if all(
                    (body.relation, j) in affected
                    for j, other in enumerate(body.terms)
                    if other == term
                ):
                    affected.add((head.relation, i))
                    changed = True
    return frozenset(affected)


# ----------------------------------------------------------------------
# The incremental engine
# ----------------------------------------------------------------------
#: A compiled backward-resolution step: the body relation of the rule,
#: the produced atom as tokens over the source atom's local variables
#: (("v", local_id) | ("c", constant) | ("f", fresh_id)), and the
#: equalities the head unification forces on the rest of the query.
_Step = tuple[str, tuple, tuple]


class RewriteEngine:
    """Incremental backward UCQ rewriting over one fixed linear-TGD set.

    Construction validates and indexes the rules; `rewrite` memoizes
    per-atom-pattern resolution steps, canonical-state expansions, and
    whole results, so a batch of distinct queries over the same rules
    shares every step already derived.  The expansion and result memos
    are LRU tables capped at `MAX_CACHED_STATES` and
    `MAX_CACHED_RESULTS` (evictions are counted in `stats`); the step
    memo is bounded by rules × atom patterns and is not capped.
    Thread-safe (one coarse lock — the memo tables are shared mutable
    state).

    ::

        engine = RewriteEngine(system.rules)
        ucq = engine.rewrite(query)          # complete UCQ rewriting
        engine.stats()["expansions_reused"]  # cross-query cache traffic
    """

    def __init__(
        self,
        rules: Sequence[TGD],
        *,
        max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
        subsumption: bool = False,
        matcher=None,
    ) -> None:
        #: The compiled matcher running the isomorphism dedup (and the
        #: optional subsumption pruning).  `CompiledSchema` passes its
        #: per-fingerprint matcher so rewriting shares its plan cache.
        self._matcher = matcher if matcher is not None else default_matcher()
        # Construction-time only: memoized results are keyed by the
        # canonical start state alone, so flipping the flag on a live
        # engine would serve output computed under the other setting.
        self._subsumption = subsumption
        for rule in rules:
            if len(rule.body) != 1 or len(rule.head) != 1:
                raise RewritingError(
                    f"rewriting needs single-head linear TGDs, got {rule}"
                )
            if ANSWER in (rule.body[0].relation, rule.head[0].relation):
                raise RewritingError(
                    f"relation {ANSWER!r} is reserved, got {rule}"
                )
        # Rename every rule apart once, into a reserved namespace that
        # cannot collide with canonical state variables (`_q*`), pattern
        # variables (`_p*`), or application-fresh variables (`_f*`).
        self.rules: tuple[TGD, ...] = tuple(
            self._reserved(rule, index) for index, rule in enumerate(rules)
        )
        self.max_disjuncts = _check_limit(max_disjuncts)
        #: (head relation, arity) -> indices of rules that resolve there.
        self._rules_by_head: dict[tuple[str, int], tuple[int, ...]] = {}
        for index, rule in enumerate(self.rules):
            head = rule.head[0]
            key = (head.relation, head.arity)
            self._rules_by_head[key] = self._rules_by_head.get(key, ()) + (
                index,
            )
        #: atom pattern -> compiled steps (the per-atom rewrite memo).
        self._steps: dict[tuple, tuple[_Step, ...]] = {}
        #: canonical state -> canonical successor states (LRU).
        self._expansions: OrderedDict[State, tuple[State, ...]] = (
            OrderedDict()
        )
        #: initial canonical state -> (frontier size, emitted disjuncts)
        #: (LRU).
        self._results: OrderedDict[
            State, tuple[int, tuple[State, ...]]
        ] = OrderedDict()
        #: `_affected_positions` of the rules, built on first `pieces`.
        self._affected: Optional[frozenset[tuple[str, int]]] = None
        self._lock = threading.RLock()
        self._counters = {
            "rewrites": 0,
            "result_hits": 0,
            "states": 0,
            "expansions_built": 0,
            "expansions_reused": 0,
            "state_evictions": 0,
            "result_evictions": 0,
            "atom_patterns_compiled": 0,
            "atom_pattern_hits": 0,
            "disjuncts_emitted": 0,
            "disjuncts_deduped": 0,
            "subsumption_checks": 0,
            "disjuncts_subsumed": 0,
        }

    @property
    def subsumption(self) -> bool:
        """Whether emitted disjuncts hom-implied by smaller kept ones
        are dropped.  Fixed at construction (memoized results do not
        record which setting produced them)."""
        return self._subsumption

    def _remember(
        self, memo: OrderedDict, key: State, value, cap: int, counter: str
    ) -> None:
        """Insert into an LRU memo, evicting the oldest past ``cap``."""
        memo[key] = value
        while len(memo) > cap:
            memo.popitem(last=False)
            self._counters[counter] += 1

    @staticmethod
    def _reserved(rule: TGD, index: int) -> TGD:
        renaming = {
            v: Variable(f"_r{index}_{v.name}")
            for v in set(rule.body_variables()) | set(rule.head_variables())
        }
        return TGD(
            tuple(a.substitute(renaming) for a in rule.body),
            tuple(a.substitute(renaming) for a in rule.head),
            rule.name,
        )

    # ------------------------------------------------------------------
    # Per-atom-pattern step compilation
    # ------------------------------------------------------------------
    def _atom_steps(
        self, a: Atom, shared: frozenset[int], local_of: dict[Variable, int]
    ) -> tuple[_Step, ...]:
        """Compiled steps for one atom occurrence.

        ``shared`` holds the local ids of the atom's variables that also
        occur elsewhere in the query; together with the atom's shape it
        fully determines applicability and effect of every rule, so the
        result is memoized across states *and* across queries.
        """
        pattern = tuple(
            ("v", local_of[t]) if isinstance(t, Variable) else ("c", t)
            for t in a.terms
        )
        key = (a.relation, pattern, shared)
        steps = self._steps.get(key)
        if steps is not None:
            self._counters["atom_pattern_hits"] += 1
            return steps
        self._counters["atom_patterns_compiled"] += 1
        variables = {
            lid: Variable(f"_p{lid}") for lid in set(local_of.values())
        }
        terms = tuple(
            variables[token[1]] if token[0] == "v" else token[1]
            for token in pattern
        )
        patom = Atom(a.relation, terms)
        compiled = []
        for rule_index in self._rules_by_head.get((a.relation, a.arity), ()):
            step = self._compile_step(patom, variables, shared, rule_index)
            if step is not None:
                compiled.append(step)
        steps = tuple(compiled)
        self._steps[key] = steps
        return steps

    def _compile_step(
        self,
        patom: Atom,
        variables: dict[int, Variable],
        shared: frozenset[int],
        rule_index: int,
    ) -> Optional[_Step]:
        """One backward-resolution step of a rule against an atom pattern.

        Returns None if the rule is not applicable (head does not unify,
        or an existential variable of the head would be exported into
        the rest of the query).
        """
        rule = self.rules[rule_index]
        head = rule.head[0]
        unifier = _Unifier()
        for query_term, head_term in zip(patom.terms, head.terms):
            if not unifier.union(query_term, head_term):
                return None

        existentials = set(rule.existential_variables())
        body_vars = set(rule.body_variables())
        local_id = {var: lid for lid, var in variables.items()}
        classes = unifier.classes()
        for members in classes.values():
            witnesses = sum(1 for m in members if m in existentials)
            if not witnesses:
                continue
            if witnesses > 1:
                # Two existential variables get two distinct fresh
                # nulls; no query term can be both.
                return None
            # This class witnesses an existential position of the head.
            # Every query term in it must be a variable occurring nowhere
            # else, and only at existential positions of the head.
            for member in members:
                if member in existentials:
                    continue
                if isinstance(member, (Constant, Null)):
                    return None
                if member in body_vars:
                    # Exported rule variable unified with an existential.
                    return None
                if local_id[member] in shared:
                    return None
                for i, term in enumerate(patom.terms):
                    if term == member and not (
                        isinstance(head.terms[i], Variable)
                        and head.terms[i] in existentials
                    ):
                        return None

        rule_vars = body_vars | set(rule.head_variables())

        def representative(term: Term) -> Term:
            root = unifier.find(term)
            members = classes.get(root, [root])
            for candidate in members:
                if isinstance(candidate, (Constant, Null)):
                    return candidate
            for candidate in members:
                if isinstance(candidate, Variable) and candidate not in rule_vars:
                    return candidate
            return root

        substitution = {
            term: representative(term) for term in list(unifier._parent)
        }
        new_atom = rule.body[0].substitute(substitution)

        fresh_ids: dict[Variable, int] = {}

        def token_of(term: Term) -> tuple:
            if isinstance(term, Variable):
                if term in local_id:
                    return ("v", local_id[term])
                # A rule variable surviving into the rewritten query: it
                # must be instantiated fresh at every application.
                if term not in fresh_ids:
                    fresh_ids[term] = len(fresh_ids)
                return ("f", fresh_ids[term])
            return ("c", term)

        produced = tuple(token_of(t) for t in new_atom.terms)
        merges = tuple(
            (lid, token_of(representative(var)))
            for var, lid in local_id.items()
            if representative(var) != var
        )
        return (new_atom.relation, produced, merges)

    # ------------------------------------------------------------------
    # State expansion
    # ------------------------------------------------------------------
    def _apply(self, state: State, index: int, step: _Step,
               var_of_local: dict[int, Variable]) -> State:
        relation, produced, merges = step
        substitution: dict[Term, Term] = {}
        for lid, (kind, value) in merges:
            substitution[var_of_local[lid]] = (
                value if kind == "c" else var_of_local[value]
            )
        rest = state[:index] + state[index + 1:]
        if substitution:
            rest = tuple(a.substitute(substitution) for a in rest)
        terms = []
        for kind, value in produced:
            if kind == "v":
                terms.append(var_of_local[value])
            elif kind == "c":
                terms.append(value)
            else:
                terms.append(_interned(_FRESH_VARS, "_f", value))
        return canonical_state(rest + (Atom(relation, tuple(terms)),))

    def _expand(self, state: State) -> tuple[State, ...]:
        cached = self._expansions.get(state)
        if cached is not None:
            self._expansions.move_to_end(state)
            self._counters["expansions_reused"] += 1
            return cached
        successors: list[State] = []
        for factored in _factorizations(state):
            successors.append(canonical_state(factored))
        occurrences: dict[Variable, int] = {}
        for a in state:
            for v in a.variables():
                occurrences[v] = occurrences.get(v, 0) + a.terms.count(v)
        for index, a in enumerate(state):
            local_of: dict[Variable, int] = {}
            for t in a.terms:
                if isinstance(t, Variable) and t not in local_of:
                    local_of[t] = len(local_of)
            shared = frozenset(
                lid
                for v, lid in local_of.items()
                if occurrences[v] > a.terms.count(v)
            )
            var_of_local = {lid: v for v, lid in local_of.items()}
            for step in self._atom_steps(a, shared, local_of):
                successors.append(self._apply(state, index, step, var_of_local))
        result = tuple(dict.fromkeys(successors))
        self._remember(
            self._expansions, state, result, MAX_CACHED_STATES,
            "state_evictions",
        )
        self._counters["expansions_built"] += 1
        return result

    # ------------------------------------------------------------------
    # Deterministic, isomorphism-deduplicated emission
    # ------------------------------------------------------------------
    @staticmethod
    def _emission_key(state: State) -> tuple:
        return (
            len(state),
            tuple(
                (a.relation, tuple(repr(t) for t in a.terms)) for a in state
            ),
        )

    def _emit(
        self, states: Iterable[State], budget: Optional[Budget] = None
    ) -> tuple[State, ...]:
        ordered = sorted(states, key=self._emission_key)
        buckets: dict[tuple, list[State]] = {}
        kept: list[State] = []
        matcher = self._matcher
        for state in ordered:
            if budget is not None:
                budget.tick()
            invariant = tuple(sorted(_shape(a) for a in state))
            bucket = buckets.setdefault(invariant, [])
            if any(matcher.is_isomorphic(state, other) for other in bucket):
                self._counters["disjuncts_deduped"] += 1
                continue
            bucket.append(state)
            kept.append(state)
        if self._subsumption:
            kept = self._prune_subsumed(kept, budget)
        self._counters["disjuncts_emitted"] += len(kept)
        return tuple(kept)

    def _prune_subsumed(
        self, ordered: list[State], budget: Optional[Budget] = None
    ) -> list[State]:
        """Drop disjuncts hom-implied by a smaller kept disjunct.

        A homomorphism p → CanonDB(q) means q ⊨ p, so any instance
        satisfying q already satisfies p and q adds nothing to the
        union: completeness of the rewriting is preserved.  States
        arrive smallest-first, so kept disjuncts only ever subsume
        later (larger-or-equal) ones — deterministic output.

        The pass is quadratic in the disjunct count, so two things keep
        it cheap on wide rewritings: a homomorphism preserves relations
        and constants, so a kept disjunct whose relation set (or
        constant set) is not contained in the candidate's cannot map
        into it — checked on precomputed frozensets before any search —
        and each kept disjunct's match plan is fetched once and reused
        across every candidate it is probed against.  A candidate is
        frozen into an instance only once some kept disjunct passes
        both prefilters.
        """
        matcher = self._matcher
        kept: list[State] = []
        kept_relations: list[frozenset] = []
        kept_constants: list[frozenset] = []
        kept_plans: list = []
        for state in ordered:
            if budget is not None:
                budget.tick()
            state_relations = frozenset(a.relation for a in state)
            state_constants = frozenset(
                t
                for a in state
                for t in a.terms
                if not isinstance(t, Variable)
            )
            frozen = None
            subsumed = False
            for index, smaller in enumerate(kept):
                if len(smaller) > len(state):
                    continue
                if not kept_relations[index] <= state_relations:
                    continue
                if not kept_constants[index] <= state_constants:
                    continue
                self._counters["subsumption_checks"] += 1
                if frozen is None:
                    frozen, __ = freeze_atoms(state)
                plan = kept_plans[index]
                if plan is None:
                    plan = matcher.plan_for(smaller, frozen)
                    kept_plans[index] = plan
                if matcher.maps_into(smaller, frozen, plan=plan):
                    subsumed = True
                    break
            if subsumed:
                self._counters["disjuncts_subsumed"] += 1
                continue
            kept.append(state)
            kept_relations.append(state_relations)
            kept_constants.append(state_constants)
            kept_plans.append(None)
        return kept

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def rewrite(
        self,
        query: ConjunctiveQuery,
        *,
        max_disjuncts: Optional[int] = None,
        budget: Optional[Budget] = None,
    ) -> UnionOfConjunctiveQueries:
        """Perfect UCQ rewriting of a Boolean CQ under the engine's rules.

        Every disjunct q of the result satisfies q ⊨Σ query, and the
        union is complete: for any instance I, ``chase(I, Σ) ⊨ query``
        iff I satisfies some disjunct.  Disjuncts are deduplicated by
        isomorphism class and emitted in a deterministic order.  Raises
        `RewritingBudgetExceeded` past the disjunct budget, and
        ``ValueError`` for a budget below 1.

        ``budget`` is checked once per expansion step (each state popped
        off the BFS queue) and ticked through the emission/pruning
        passes; `repro.runtime.DeadlineExceeded` propagates *before*
        the result memo is written, so an aborted rewrite leaves only
        complete artifacts behind (``_expansions`` entries are whole
        per-state expansions — valid regardless of which rewrite built
        them).
        """
        if query.free_variables:
            raise RewritingError("rewriting is implemented for Boolean CQs")
        limit = (
            self.max_disjuncts
            if max_disjuncts is None
            else _check_limit(max_disjuncts)
        )
        with stage("rewrite"), self._lock:
            self._counters["rewrites"] += 1
            start = canonical_state(query.atoms)
            cached = self._results.get(start)
            if cached is not None:
                self._results.move_to_end(start)
                frontier_size, disjuncts = cached
                self._counters["result_hits"] += 1
                if frontier_size > limit:
                    raise RewritingBudgetExceeded(limit, limit + 1)
            else:
                seen = {start}
                frontier = [start]
                queue = [start]
                while queue:
                    if budget is not None:
                        budget.check()
                    for successor in self._expand(queue.pop()):
                        if successor not in seen:
                            seen.add(successor)
                            frontier.append(successor)
                            queue.append(successor)
                            if len(frontier) > limit:
                                raise RewritingBudgetExceeded(
                                    limit, len(frontier)
                                )
                self._counters["states"] += len(frontier)
                disjuncts = self._emit(frontier, budget)
                self._remember(
                    self._results, start, (len(frontier), disjuncts),
                    MAX_CACHED_RESULTS, "result_evictions",
                )
        return UnionOfConjunctiveQueries(
            tuple(
                ConjunctiveQuery(atoms, (), f"{query.name}_rw{i}")
                for i, atoms in enumerate(disjuncts)
            ),
            name=f"{query.name}_rewriting",
        )

    # ------------------------------------------------------------------
    # Piece-wise entailment
    # ------------------------------------------------------------------
    def pieces(
        self, query: ConjunctiveQuery
    ) -> list[tuple[tuple[Atom, ...], tuple[Variable, ...]]]:
        """The pieces of a Boolean CQ with their join variables.

        A variable with an occurrence at a non-affected position is
        *rigid*: it can only map into the start instance.  Pieces are
        the connected components of the atoms under shared non-rigid
        variables, in order of their first atom; a piece's join
        variables are its rigid variables that occur in another piece
        too, in order of first occurrence.
        """
        affected = self._affected
        if affected is None:
            # Idempotent, so a race only computes it twice.
            affected = self._affected = _affected_positions(self.rules)
        atoms = query.atoms
        rigid = {
            term
            for a in atoms
            for i, term in enumerate(a.terms)
            if isinstance(term, Variable) and (a.relation, i) not in affected
        }
        parent = list(range(len(atoms)))

        def find(index: int) -> int:
            while parent[index] != index:
                parent[index] = parent[parent[index]]
                index = parent[index]
            return index

        first_atom: dict[Variable, int] = {}
        for index, a in enumerate(atoms):
            for term in a.terms:
                if isinstance(term, Variable) and term not in rigid:
                    parent[find(index)] = find(
                        first_atom.setdefault(term, index)
                    )
        groups: dict[int, list[Atom]] = {}
        for index, a in enumerate(atoms):
            groups.setdefault(find(index), []).append(a)
        pieces = []
        for group in groups.values():
            variables = tuple(
                dict.fromkeys(
                    term
                    for a in group
                    for term in a.terms
                    if isinstance(term, Variable)
                )
            )
            pieces.append((tuple(group), variables))
        spread: dict[Variable, int] = {}
        for __, variables in pieces:
            for variable in variables:
                spread[variable] = spread.get(variable, 0) + 1
        return [
            (
                group,
                tuple(
                    v for v in variables if v in rigid and spread[v] > 1
                ),
            )
            for group, variables in pieces
        ]

    def entails(
        self,
        start: Instance,
        query: ConjunctiveQuery,
        *,
        max_disjuncts: Optional[int] = None,
        budget: Optional[Budget] = None,
    ) -> Decision:
        """Decide ``chase(start, rules) ⊨ query`` piece by piece.

        Each piece P of `pieces` with join variables x̄ is rewritten as
        ``P ∧ ANSWER(x̄)`` (no answer atom when x̄ is empty), its
        disjuncts are evaluated over ``start`` into a table of x̄
        tuples, and the tables are hash-joined on shared variables.
        The first empty table or join answers NO without rewriting the
        remaining pieces.  A YES carries the matching piece disjuncts as
        one CQ certificate.  ``detail`` records ``disjuncts`` (summed
        over the pieces rewritten) and ``pieces``.

        ``max_disjuncts`` caps each piece's frontier
        (`RewritingBudgetExceeded`); ``budget`` is polled by every piece
        rewriting and ticked by the evaluation.
        """
        if query.free_variables:
            raise RewritingError("rewriting is implemented for Boolean CQs")
        if any(a.relation == ANSWER for a in query.atoms):
            raise RewritingError(f"relation {ANSWER!r} is reserved")
        pieces = self.pieces(query)
        disjuncts = 0
        columns: dict[Variable, int] = {}
        # join-variable values (in `columns` order) -> the disjunct each
        # piece so far matched them with.
        rows: dict[tuple, tuple[State, ...]] = {(): ()}
        for index, (atoms, answer) in enumerate(pieces):
            if answer:
                atoms = atoms + (Atom(ANSWER, answer),)
            # Through the public `rewrite`, so every piece's rewriting
            # is one call a tracer or profiler can attribute.
            rewriting = self.rewrite(
                ConjunctiveQuery(atoms, (), f"{query.name}_p{index}"),
                max_disjuncts=max_disjuncts,
                budget=budget,
            )
            states = tuple(d.atoms for d in rewriting.disjuncts)
            disjuncts += len(states)
            with stage("match"):
                table = self._answers(states, answer, start, budget)
            rows, columns = _join(
                rows, columns, table, answer, pieces[index + 1:]
            )
            if not rows:
                return Decision.no(
                    f"piece-wise rewriting: piece {index + 1} of "
                    f"{len(pieces)} has no match joining the earlier ones",
                    disjuncts=disjuncts,
                    pieces=len(pieces),
                )
        witness = next(iter(rows.values()))
        return Decision.yes(
            "piece-wise rewriting matches the start instance "
            f"(pieces: {len(pieces)})",
            certificate=_certificate(pieces, witness, f"{query.name}_pw"),
            disjuncts=disjuncts,
            pieces=len(pieces),
        )

    def _answers(
        self,
        states: tuple[State, ...],
        answer: tuple[Variable, ...],
        start: Instance,
        budget: Optional[Budget],
    ) -> dict[tuple, State]:
        """Each answer tuple of a piece's disjuncts over ``start``,
        mapped to the first disjunct producing it."""
        matcher = self._matcher
        if not answer:
            for state in states:
                if matcher.has(state, start, budget=budget):
                    return {(): state}
            return {}
        table: dict[tuple, State] = {}
        for state in states:
            body = tuple(a for a in state if a.relation != ANSWER)
            [head] = [a for a in state if a.relation == ANSWER]
            bound = {t for a in body for t in a.terms}
            assert all(
                t in bound for t in head.terms if isinstance(t, Variable)
            ), f"unbound answer variable in {state}"
            for assignment in matcher.homomorphisms(
                body, start, budget=budget
            ):
                table.setdefault(
                    tuple(
                        assignment[t] if isinstance(t, Variable) else t
                        for t in head.terms
                    ),
                    state,
                )
        return table

    def stats(self) -> dict:
        """Cache-traffic counters (cross-query reuse shows up here;
        ``state_evictions``/``result_evictions`` count LRU evictions)."""
        with self._lock:
            return {
                "rules": len(self.rules),
                "cached_results": len(self._results),
                "cached_states": len(self._expansions),
                "cached_atom_patterns": len(self._steps),
                **self._counters,
            }

    def __repr__(self) -> str:
        return (
            f"RewriteEngine({len(self.rules)} rules, "
            f"{len(self._expansions)} states cached)"
        )


def _join(
    rows: dict[tuple, tuple[State, ...]],
    columns: dict[Variable, int],
    table: dict[tuple, State],
    answer: tuple[Variable, ...],
    later: Sequence[tuple[tuple[Atom, ...], tuple[Variable, ...]]],
) -> tuple[dict[tuple, tuple[State, ...]], dict[Variable, int]]:
    """Hash-join one piece's answer table into the rows so far, then
    project the rows onto the variables later pieces still join on
    (keeping one witness per projected row)."""
    shared = [i for i, v in enumerate(answer) if v in columns]
    fresh = [i for i, v in enumerate(answer) if v not in columns]
    probe = [columns[answer[i]] for i in shared]
    by_key: dict[tuple, list[tuple[tuple, State]]] = {}
    for values, state in table.items():
        by_key.setdefault(tuple(values[i] for i in shared), []).append(
            (values, state)
        )
    order = list(columns) + [answer[i] for i in fresh]
    needed = {v for __, variables in later for v in variables}
    keep = [p for p, v in enumerate(order) if v in needed]
    joined: dict[tuple, tuple[State, ...]] = {}
    for row, witness in rows.items():
        for values, state in by_key.get(tuple(row[p] for p in probe), ()):
            full = row + tuple(values[i] for i in fresh)
            joined.setdefault(tuple(full[p] for p in keep), witness + (state,))
    return joined, {order[p]: n for n, p in enumerate(keep)}


def _certificate(
    pieces: Sequence[tuple[tuple[Atom, ...], tuple[Variable, ...]]],
    witness: Sequence[State],
    name: str,
) -> ConjunctiveQuery:
    """The matched piece disjuncts as one Boolean CQ.

    Each disjunct's answer terms become its piece's join variables —
    identified with each other, or with a constant, where the disjunct
    identifies them — and its other variables are renamed apart per
    piece.  The CQ holds on the start instance and entails the target
    under the rules.
    """
    unifier = _Unifier()
    atoms: list[Atom] = []
    for index, ((__, answer), state) in enumerate(zip(pieces, witness)):
        renaming: dict[Term, Term] = {}
        for a in state:
            if a.relation != ANSWER:
                continue
            for variable, term in zip(answer, a.terms):
                if isinstance(term, Variable) and term not in renaming:
                    renaming[term] = variable
                else:
                    unifier.union(variable, renaming.get(term, term))
        for a in state:
            if a.relation == ANSWER:
                continue
            for term in a.terms:
                if isinstance(term, Variable) and term not in renaming:
                    renaming[term] = Variable(f"{term.name}_{index}")
            atoms.append(a.substitute(renaming))
    merged = {term: unifier.find(term) for term in list(unifier._parent)}
    if merged:
        atoms = [a.substitute(merged) for a in atoms]
    return ConjunctiveQuery(tuple(dict.fromkeys(atoms)), (), name)


# ----------------------------------------------------------------------
# Free-function wrappers (compile on the fly)
# ----------------------------------------------------------------------
def rewrite(
    query: ConjunctiveQuery,
    rules: Sequence[TGD],
    *,
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    subsumption: bool = False,
) -> UnionOfConjunctiveQueries:
    """Perfect UCQ rewriting of a Boolean CQ under single-head linear TGDs.

    A thin wrapper constructing a throwaway `RewriteEngine`; callers
    rewriting many queries over one rule set should hold an engine (or a
    `repro.service.CompiledSchema`, which owns one per fingerprint) to
    share the memoized steps.  ``subsumption=True`` additionally drops
    disjuncts hom-implied by smaller ones (logically equivalent, smaller
    output).
    """
    engine = RewriteEngine(
        rules, max_disjuncts=max_disjuncts, subsumption=subsumption
    )
    return engine.rewrite(query)


def linear_contains(
    query: ConjunctiveQuery,
    target: ConjunctiveQuery,
    rules: Sequence[TGD],
    *,
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    engine: Optional[RewriteEngine] = None,
) -> Decision:
    """Decide ``query ⊆Σ target`` for single-head linear TGDs Σ.

    Decided by `RewriteEngine.entails` over CanonDB(query): complete and
    terminating (up to the disjunct safety valve, which caps each
    piece).  Pass an ``engine`` over the same rules to share rewriting
    work across calls.
    """
    try:
        if engine is None:
            engine = RewriteEngine(rules, max_disjuncts=max_disjuncts)
        canonical, __ = query.canonical_instance()
        return engine.entails(
            canonical, target, max_disjuncts=max_disjuncts
        )
    except RewritingBudgetExceeded as error:
        return Decision.unknown(str(error), error=error.as_detail())
    except RewritingError as error:
        return Decision.unknown(str(error))
