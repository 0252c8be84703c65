"""Cross-check: the delta (semi-naive) engine ≡ the naive reference.

The delta engine must produce identical `ChaseOutcome`s, round counts,
and final instances (up to null renaming), and so must
the delta engine run on the naive reference matcher (its generic,
dict-environment trigger collector) against the same engine on the
planned `Matcher` (its int-space collector).  The
randomized sweeps chase generated workloads on both engines and compare;
they are marked ``slow`` and excluded from the tier-1 fast path
(run them with ``pytest -m slow``).  A seeded smoke version always runs.
"""

import random

import pytest

from repro.chase import ChaseOutcome, chase
from repro.constraints import EGD, fd, tgd
from repro.data import Instance
from repro.logic import Atom, Constant, Null, atom
from repro.logic.homomorphism import instance_homomorphism
from repro.logic.terms import NullFactory
from repro.matching import Matcher, NaiveMatcher


#: Above this size, skip the (worst-case exponential) homomorphism
#: check and rely on the structural comparison only.
_HOM_CHECK_LIMIT = 60


def equivalent_up_to_null_renaming(left: Instance, right: Instance) -> bool:
    """Same constants, same per-relation sizes, homomorphic both ways."""
    if len(left) != len(right):
        return False
    if left.constants() != right.constants():
        return False
    if len(left.nulls()) != len(right.nulls()):
        return False
    for relation in set(left.relations()) | set(right.relations()):
        if len(left.facts_of(relation)) != len(right.facts_of(relation)):
            return False
    if len(left) > _HOM_CHECK_LIMIT:
        return True  # structural checks only; hom search can blow up
    return (
        instance_homomorphism(left, right) is not None
        and instance_homomorphism(right, left) is not None
    )


def _random_workload(rng: random.Random):
    """A small random chase workload: instance + mixed dependencies."""
    relations = {"R": 2, "S": 2, "T": 1, "U": 3}
    constants = [Constant(f"c{i}") for i in range(rng.randint(2, 5))]
    nulls = [Null(f"seed{i}") for i in range(rng.randint(0, 3))]
    terms = constants + nulls

    facts = []
    for __ in range(rng.randint(2, 10)):
        relation = rng.choice(list(relations))
        arity = relations[relation]
        facts.append(
            Atom(relation, tuple(rng.choice(terms) for __ in range(arity)))
        )
    instance = Instance(facts)

    rules = []
    templates = [
        "R(x, y) -> S(y, x)",
        "S(x, y) -> R(x, y)",
        "R(x, y), S(y, z) -> R(x, z)",
        "T(x) -> R(x, z)",
        "R(x, y) -> T(y)",
        "R(x, y) -> exists z. S(y, z)",
        "S(x, y) -> exists z. U(x, y, z)",
        "U(x, y, z) -> R(x, z)",
        "T(x) -> exists w. U(x, w, w)",
    ]
    for __ in range(rng.randint(1, 4)):
        rules.append(tgd(rng.choice(templates)))
    if rng.random() < 0.6:
        rules.append(fd("R", [0], 1))
    if rng.random() < 0.4:
        rules.append(fd("U", [0, 1], 2))
    if rng.random() < 0.3:
        body = (atom("S", "x", "y"), atom("S", "y", "x"))
        rules.append(EGD(body, body[0].terms[0], body[0].terms[1]))
    return instance, rules


def _run_both(instance, rules, *, max_rounds=6, max_facts=120):
    results = {}
    for engine in ("naive", "delta"):
        results[engine] = chase(
            instance,
            rules,
            max_rounds=max_rounds,
            max_facts=max_facts,
            engine=engine,
            null_factory=NullFactory(prefix=f"{engine[0]}"),
        )
    return results["naive"], results["delta"]


def _assert_equivalent(naive, delta, seed):
    context = f"seed={seed}"
    assert naive.outcome is delta.outcome, (
        f"{context}: outcome {naive.outcome} != {delta.outcome}"
    )
    assert naive.rounds == delta.rounds, (
        f"{context}: rounds {naive.rounds} != {delta.rounds}"
    )
    if naive.outcome in (ChaseOutcome.FAILED, ChaseOutcome.BOUND_REACHED):
        # FAILED: no meaningful instance.  BOUND_REACHED: the fact cap
        # cuts mid-round, and the engines fire a round's triggers in
        # different orders, so they legitimately stop on different
        # subsets of the same round's output — only outcome and round
        # count are comparable.
        return
    assert equivalent_up_to_null_renaming(naive.instance, delta.instance), (
        f"{context}: instances differ:\n"
        f"naive: {naive.instance}\ndelta: {delta.instance}"
    )


class TestSeededEquivalence:
    """Fast deterministic cross-checks (always run)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_workloads_agree(self, seed):
        rng = random.Random(seed)
        instance, rules = _random_workload(rng)
        naive, delta = _run_both(instance, rules)
        _assert_equivalent(naive, delta, seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_delta_on_naive_matcher_agrees(self, seed):
        rng = random.Random(seed)
        instance, rules = _random_workload(rng)
        planned, reference = (
            chase(
                instance,
                rules,
                max_rounds=6,
                max_facts=120,
                matcher=matcher,
                null_factory=NullFactory(prefix="d"),
            )
            for matcher in (Matcher(), NaiveMatcher())
        )
        _assert_equivalent(reference, planned, seed)
        assert reference.stats.searches == planned.stats.searches

    def test_transitive_closure_agrees(self):
        instance = Instance(
            Atom("E", (Constant(i), Constant(i + 1))) for i in range(12)
        )
        rules = [
            tgd("E(x, y) -> T(x, y)"), tgd("T(x, y), E(y, z) -> T(x, z)")
        ]
        naive, delta = _run_both(instance, rules)
        _assert_equivalent(naive, delta, "tc")
        assert set(naive.instance) == set(delta.instance)  # no nulls at all

    def test_failure_agrees(self):
        instance = Instance(
            [Atom("R", (Constant(1), Constant("a"))),
             Atom("R", (Constant(1), Constant("b")))]
        )
        naive, delta = _run_both(instance, [fd("R", [0], 1)])
        assert naive.outcome is delta.outcome is ChaseOutcome.FAILED

    def test_substitution_constant_targets_agree(self):
        instance = Instance(
            [Atom("R", (Constant(1), Null("a"))),
             Atom("R", (Constant(1), Constant("v")))]
        )
        naive, delta = _run_both(instance, [fd("R", [0], 1)])
        assert naive.substitution == delta.substitution == {
            Null("a"): Constant("v")
        }


@pytest.mark.slow
class TestRandomizedEquivalence:
    """Broad randomized sweeps (excluded from the tier-1 fast path)."""

    @pytest.mark.parametrize("seed", range(250))
    def test_restricted_sweep(self, seed):
        rng = random.Random(10_000 + seed)
        instance, rules = _random_workload(rng)
        naive, delta = _run_both(instance, rules)
        _assert_equivalent(naive, delta, 10_000 + seed)

    @pytest.mark.parametrize("seed", range(60))
    def test_early_stop_agrees(self, seed):
        rng = random.Random(30_000 + seed)
        instance, rules = _random_workload(rng)
        target = Atom("R", (Constant("c0"), Constant("c1")))
        naive, delta = _run_both_with_stop(instance, rules, target)
        assert naive.outcome is delta.outcome
        assert naive.rounds == delta.rounds


def _run_both_with_stop(instance, rules, target):
    results = {}
    for engine in ("naive", "delta"):
        results[engine] = chase(
            instance,
            rules,
            max_rounds=5,
            max_facts=120,
            stop_when=lambda inst: target in inst,
            engine=engine,
            null_factory=NullFactory(prefix=f"{engine[0]}"),
        )
    return results["naive"], results["delta"]


class TestSearchEffort:
    """The delta engine must not search more than the naive engine."""

    def test_delta_searches_at_most_naive(self):
        # Seeded micro-benchmark: transitive closure over a path —
        # many rounds, so naive re-enumeration dominates.
        instance = Instance(
            Atom("E", (Constant(i), Constant(i + 1))) for i in range(12)
        )
        rules = [
            tgd("E(x, y) -> T(x, y)"), tgd("T(x, y), E(y, z) -> T(x, z)")
        ]
        naive, delta = _run_both(instance, rules)
        assert delta.stats.searches <= naive.stats.searches
        # ... and on a workload this shape, strictly far fewer.
        assert delta.stats.searches < naive.stats.searches / 2

    def test_fd_heavy_workload(self):
        instance = Instance(
            Atom("R", (Constant("k"), Null(f"n{i}"))) for i in range(40)
        )
        naive, delta = _run_both(instance, [fd("R", [0], 1)])
        assert delta.stats.merges == naive.stats.merges == 39
        assert delta.stats.searches <= naive.stats.searches
