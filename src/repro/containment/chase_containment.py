"""Query containment under constraints via chase proofs.

``Q ⊆Σ Q'`` holds iff every instance satisfying Q and Σ satisfies Q'
(paper §2).  The chase decides this: chase the canonical database of Q
with Σ; the containment holds iff Q' matches the result.

Soundness is unconditional: a match of Q' in any chase state certifies
the containment; a fixpoint without a match refutes it (the chase result
is a universal model).  When the chase is cut off by a bound, the answer
is UNKNOWN — callers pick bounds from class-specific termination
guarantees (see `default_bound_for`).
"""

from __future__ import annotations

import functools
from typing import Iterable, Optional, Sequence

from ..chase.engine import ChaseOutcome, Dependency, chase
from ..obs.timing import stage
from ..constraints.analysis import is_weakly_acyclic
from ..constraints.tgd import TGD
from ..data.instance import Instance
from ..logic.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..matching.matcher import default_matcher
from .decision import Decision

#: Default round cap when no termination guarantee applies.
DEFAULT_MAX_ROUNDS = 30
#: Default fact cap (guards against breadth explosion).
DEFAULT_MAX_FACTS = 200_000


def default_bound_for(
    dependencies: Sequence[Dependency], query_size: int
) -> Optional[int]:
    """A round bound that is complete when one is known, else None.

    * FDs / EGDs only: merges only, linear rounds suffice;
    * full TGDs (+ FDs): the chase terminates; a crude complete bound is
      the number of possible facts, but the restricted chase reaches its
      fixpoint on its own, so no bound is needed;
    * weakly-acyclic TGDs: same;
    * otherwise None (caller should treat BOUND_REACHED as UNKNOWN).
    """
    tgds = [d for d in dependencies if isinstance(d, TGD)]
    if not tgds:
        return None  # chase terminates by itself (merges only)
    if all(t.is_full() for t in tgds):
        return None  # terminates: no fresh nulls
    if is_weakly_acyclic(tgds):
        return None  # terminates by the weak-acyclicity theorem
    return DEFAULT_MAX_ROUNDS + query_size


def _match_stage(fn):
    """Attribute a decider's own work to the ``match`` timing stage.

    The inner `chase` pushes its own ``chase`` stage, so only the
    decision shell (canonical instance, target probes, verdict
    mapping) lands in ``match`` — stages stay exclusive.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with stage("match"):
            return fn(*args, **kwargs)

    return wrapper


@_match_stage
def contains(
    query: ConjunctiveQuery,
    target: ConjunctiveQuery | UnionOfConjunctiveQueries,
    dependencies: Iterable[Dependency],
    *,
    max_rounds: Optional[int] = None,
    max_facts: Optional[int] = DEFAULT_MAX_FACTS,
    engine: str = "delta",
    matcher=None,
) -> Decision:
    """Decide ``query ⊆_dependencies target`` by chasing.

    ``target`` may be a CQ or a UCQ.  The chase stops as soon as the
    target matches (YES), at a fixpoint (NO), or at the bound (UNKNOWN).
    ``engine`` picks the chase implementation (``"delta"``/``"naive"``,
    see `repro.chase.engine.chase`); ``matcher`` the homomorphism engine
    — pass a `CompiledSchema`'s matcher to share compiled plans across
    calls.  The per-round target probe goes through the matcher's check
    cache, so rounds that do not touch the target's relations skip the
    match search entirely.
    """
    dependencies = list(dependencies)
    canonical, __ = query.canonical_instance()
    matcher = matcher if matcher is not None else default_matcher()

    if isinstance(target, UnionOfConjunctiveQueries):
        target_holds = lambda inst: any(  # noqa: E731
            matcher.has(cq.atoms, inst) for cq in target.disjuncts
        )
        target_size = max(len(cq.atoms) for cq in target.disjuncts)
    else:
        target_holds = lambda inst: matcher.has(  # noqa: E731
            target.atoms, inst
        )
        target_size = len(target.atoms)

    if max_rounds is None:
        max_rounds = default_bound_for(dependencies, target_size)

    result = chase(
        canonical,
        dependencies,
        max_rounds=max_rounds,
        max_facts=max_facts,
        stop_when=target_holds,
        engine=engine,
        matcher=matcher,
    )
    if result.outcome is ChaseOutcome.FAILED:
        return Decision.yes(
            "premises unsatisfiable under the constraints "
            "(chase failed on a constant clash)",
            rounds=result.rounds,
        )
    if result.outcome is ChaseOutcome.EARLY_STOP:
        return Decision.yes(
            f"target query matched at chase round {result.rounds}",
            certificate=result,
            rounds=result.rounds,
        )
    if result.outcome is ChaseOutcome.FIXPOINT:
        if target_holds(result.instance):  # defensive; stop_when catches it
            return Decision.yes(
                "target query holds in the chase fixpoint",
                certificate=result,
                rounds=result.rounds,
            )
        return Decision.no(
            "chase reached a fixpoint (universal model) without a match",
            certificate=result,
            rounds=result.rounds,
        )
    return Decision.unknown(
        f"chase bound reached after {result.rounds} rounds "
        f"({len(result.instance)} facts) without a match",
        rounds=result.rounds,
        facts=len(result.instance),
    )


@_match_stage
def certain_answer_boolean(
    instance: Instance,
    query: ConjunctiveQuery,
    dependencies: Iterable[Dependency],
    *,
    max_rounds: Optional[int] = None,
    max_facts: Optional[int] = DEFAULT_MAX_FACTS,
    engine: str = "delta",
    matcher=None,
) -> Decision:
    """Certain-answer test: does `query` hold in every model of the
    dependencies containing `instance`?

    Used by the universal plan (paper §3 / our DESIGN §3): the plan
    saturates the accessible part and returns the certain answers over it.
    """
    dependencies = list(dependencies)
    matcher = matcher if matcher is not None else default_matcher()
    if max_rounds is None:
        max_rounds = default_bound_for(dependencies, len(query.atoms))
    result = chase(
        instance,
        dependencies,
        max_rounds=max_rounds,
        max_facts=max_facts,
        stop_when=lambda inst: matcher.has(query.atoms, inst),
        engine=engine,
        matcher=matcher,
    )
    if result.outcome is ChaseOutcome.FAILED:
        return Decision.yes("constraints unsatisfiable on the accessed data")
    if result.outcome is ChaseOutcome.EARLY_STOP:
        return Decision.yes(
            f"query certain after {result.rounds} chase rounds",
            certificate=result,
        )
    if result.outcome is ChaseOutcome.FIXPOINT:
        return Decision.no(
            "query absent from the universal model of the accessed data",
            certificate=result,
        )
    return Decision.unknown(
        f"chase bound reached after {result.rounds} rounds", rounds=result.rounds
    )
