"""Cross-check: the delta chase is deterministic, exactly.

Null labels are assigned at firing time in trigger order, and the
matcher's plan and check caches only memoize searches.  So a chase run
must be *identical* — not just equivalent up to null renaming — no
matter what state the matcher carries in: same facts, same null labels,
same outcome, round count, recorded steps, EGD substitution and trigger
statistics for a fresh `Matcher`, for one already warmed by an earlier
run, and for one whose caches are too small to hold anything.  Sessions
reuse one matcher across every decision, so this is what makes a served
decision independent of the requests before it.  The naive reference
engine, the oracle of the delta engine, must be just as deterministic.
A seeded sample always runs in tier 1; the broad sweep is marked
``slow``.
"""

import random

import pytest

from repro.chase import ChaseOutcome, chase
from repro.constraints import EGD, fd, tgd
from repro.data import Instance
from repro.logic import Atom, Constant, Null
from repro.logic.atoms import atom
from repro.logic.terms import NullFactory
from repro.matching import Matcher

RELATIONS = {"R": 2, "S": 2, "T": 1, "U": 3}

#: Rule templates mixing full/existential TGDs so several rules are
#: active per round.
TEMPLATES = [
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


def _random_workload(rng: random.Random):
    constants = [Constant(f"c{i}") for i in range(rng.randint(2, 5))]
    nulls = [Null(f"seed{i}") for i in range(rng.randint(0, 3))]
    terms = constants + nulls

    facts = []
    for __ in range(rng.randint(2, 10)):
        relation = rng.choice(list(RELATIONS))
        arity = RELATIONS[relation]
        facts.append(
            Atom(relation, tuple(rng.choice(terms) for __ in range(arity)))
        )
    instance = Instance(facts)

    rules = [
        tgd(template)
        for template in rng.sample(TEMPLATES, rng.randint(2, 6))
    ]
    if rng.random() < 0.6:
        rules.append(fd("R", [0], 1))
    if rng.random() < 0.4:
        rules.append(fd("U", [0, 1], 2))
    if rng.random() < 0.3:
        body = (atom("S", "x", "y"), atom("S", "y", "x"))
        rules.append(EGD(body, body[0].terms[0], body[0].terms[1]))
    return instance, rules


def _run(
    instance, rules, *, matcher, engine="delta", max_rounds=6, max_facts=120
):
    return chase(
        instance,
        rules,
        max_rounds=max_rounds,
        max_facts=max_facts,
        record_steps=True,
        matcher=matcher,
        null_factory=NullFactory(prefix="p"),
        engine=engine,
    )


def _assert_identical(first, second, context):
    assert first.outcome is second.outcome, (
        f"{context}: outcome {first.outcome} != {second.outcome}"
    )
    assert first.rounds == second.rounds, (
        f"{context}: rounds {first.rounds} != {second.rounds}"
    )
    # Exact equality, null labels included.
    assert first.instance == second.instance, (
        f"{context}: instances differ:\n"
        f"first: {first.instance}\nsecond: {second.instance}"
    )
    assert first.substitution == second.substitution, (
        f"{context}: EGD substitutions differ"
    )
    assert len(first.steps) == len(second.steps), (
        f"{context}: step counts differ"
    )
    for left, right in zip(first.steps, second.steps):
        assert left == right, f"{context}: steps diverge: {left} != {right}"
    assert (
        first.stats.triggers_enumerated == second.stats.triggers_enumerated
    ), f"{context}: trigger enumeration counts differ"
    assert first.stats.merges == second.stats.merges


def _assert_matcher_state_irrelevant(instance, rules, *, context, **options):
    fresh = _run(instance, rules, matcher=Matcher(), **options)
    warmed = Matcher()
    _run(instance, rules, matcher=warmed, **options)
    _assert_identical(
        fresh,
        _run(instance, rules, matcher=warmed, **options),
        f"{context} warm matcher",
    )
    starved = Matcher(plan_cache_size=1, check_cache_limit=1)
    _assert_identical(
        fresh,
        _run(instance, rules, matcher=starved, **options),
        f"{context} starved caches",
    )
    return fresh


def check_one_case(seed: int, engine: str = "delta") -> None:
    rng = random.Random(seed)
    instance, rules = _random_workload(rng)
    _assert_matcher_state_irrelevant(
        instance, rules, context=f"seed={seed} engine={engine}", engine=engine
    )


class TestSeededDeterminism:
    """Fast deterministic cross-checks (always run in tier 1)."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_workloads_identical(self, seed):
        check_one_case(seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_naive_engine_identical(self, seed):
        check_one_case(seed, engine="naive")

    def test_transitive_closure_identical(self):
        instance = Instance(
            Atom("E", (Constant(i), Constant(i + 1))) for i in range(16)
        )
        rules = [
            tgd("E(x, y) -> P(x, y)"),
            tgd("P(x, y), E(y, z) -> P(x, z)"),
        ]
        result = _assert_matcher_state_irrelevant(
            instance, rules, context="tc",
            max_rounds=40, max_facts=500,
        )
        # Full closure of the 17-node chain: C(17, 2) P facts + 16 E.
        assert len(result.instance) == 16 + 17 * 16 // 2

    def test_failure_identical(self):
        """An FD clash on constants fails the same way every run."""
        instance = Instance(
            [
                Atom("R", (Constant("a"), Constant("b"))),
                Atom("R", (Constant("a"), Constant("c"))),
            ]
        )
        rules = [fd("R", [0], 1), tgd("R(x, y) -> S(y, x)")]
        result = _assert_matcher_state_irrelevant(
            instance, rules, context="fd clash"
        )
        assert result.outcome is ChaseOutcome.FAILED


@pytest.mark.slow
class TestDeterminismSweeps:
    """Broad randomized sweeps (nightly; run with ``pytest -m slow``)."""

    @pytest.mark.parametrize("seed", range(60))
    def test_restricted_sweep(self, seed):
        check_one_case(70_000 + seed)
