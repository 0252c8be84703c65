"""Cross-check: the interned int-slot executor ≡ the naive reference.

`Matcher` lowers plans to flat integer step arrays and runs the
backtracking search over interned row tuples; `NaiveMatcher` is the
uncompiled backtracking search over `Atom`/term dictionaries.  Both must
enumerate exactly the same homomorphism sets on every (atom set,
instance, seed, rigidity) combination — plans and interning are pure
representation changes.  The randomized sweeps cover joins, repeated
variables, constants, rigid and flexible nulls, and partial seeds; a
seeded sample always runs in tier 1, the broad sweep is marked ``slow``
and also audits the instance's incremental indexes and interning tables
via `Instance.validate_indexes`.

The replan tests cover the stale-plan trap: a plan compiled against a
tiny instance must not pin its join order (or its interned probe
context) forever once the instance has grown orders of magnitude.
"""

import random

import pytest

from repro.data import Instance
from repro.logic import Atom, Constant, Null, Variable
from repro.matching import Matcher, NaiveMatcher
from repro.matching.matcher import DRIFT_FACTOR

RELATIONS = {"R": 2, "S": 2, "T": 1, "U": 3}


def _random_instance(rng: random.Random) -> Instance:
    constants = [Constant(f"c{i}") for i in range(rng.randint(2, 5))]
    nulls = [Null(f"n{i}") for i in range(rng.randint(0, 3))]
    terms = constants + nulls
    facts = []
    for __ in range(rng.randint(2, 14)):
        relation = rng.choice(list(RELATIONS))
        arity = RELATIONS[relation]
        facts.append(
            Atom(relation, tuple(rng.choice(terms) for __ in range(arity)))
        )
    return Instance(facts)


def _random_atoms(rng: random.Random) -> tuple[Atom, ...]:
    variables = [Variable(f"x{i}") for i in range(4)]
    constants = [Constant(f"c{i}") for i in range(3)]
    nulls = [Null(f"n{i}") for i in range(2)]
    atoms = []
    for __ in range(rng.randint(1, 4)):
        relation = rng.choice(list(RELATIONS))
        arity = RELATIONS[relation]
        atom_terms = []
        for __ in range(arity):
            kind = rng.random()
            if kind < 0.65:
                atom_terms.append(rng.choice(variables))
            elif kind < 0.9:
                atom_terms.append(rng.choice(constants))
            else:
                atom_terms.append(rng.choice(nulls))
        atoms.append(Atom(relation, tuple(atom_terms)))
    return tuple(atoms)


def _random_seed(rng: random.Random, atoms, instance):
    if rng.random() < 0.4:
        return None
    variables = sorted(
        {t for a in atoms for t in a.terms if isinstance(t, Variable)},
        key=repr,
    )
    if not variables:
        return None
    domain = sorted(instance.active_domain(), key=repr)
    if not domain:
        return None
    seed = {}
    for variable in rng.sample(variables, rng.randint(1, len(variables))):
        if rng.random() < 0.7:
            seed[variable] = rng.choice(domain)
    return seed or None


def _as_set(homomorphisms):
    return {tuple(sorted(h.items(), key=repr)) for h in homomorphisms}


def check_one_case(seed: int, *, validate: bool = False) -> None:
    rng = random.Random(seed)
    instance = _random_instance(rng)
    atoms = _random_atoms(rng)
    flexible = rng.random() < 0.4
    seeding = _random_seed(rng, atoms, instance)

    int_matcher = Matcher()
    naive_matcher = NaiveMatcher()

    kwargs = dict(seed=seeding, flexible_nulls=flexible)
    int_homs = _as_set(int_matcher.homomorphisms(atoms, instance, **kwargs))
    naive_homs = _as_set(
        naive_matcher.homomorphisms(atoms, instance, **kwargs)
    )
    assert int_homs == naive_homs, (
        f"case {seed}: int executor and naive reference diverge "
        f"(int={len(int_homs)}, naive={len(naive_homs)})"
    )

    assert int_matcher.has(atoms, instance, **kwargs) == bool(naive_homs)
    int_found = int_matcher.find(atoms, instance, **kwargs)
    assert (int_found is not None) == bool(naive_homs)
    if int_found is not None:
        assert tuple(sorted(int_found.items(), key=repr)) in naive_homs

    if validate:
        instance.validate_indexes()


@pytest.mark.parametrize("seed", range(25))
def test_int_equals_naive_sample(seed):
    check_one_case(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(400))
def test_int_equals_naive_sweep(seed):
    """Broad randomized sweep (nightly; run with ``pytest -m slow``)."""
    check_one_case(50_000 + seed, validate=True)


def test_null_handling_matches_naive_reference():
    """Rigid vs flexible nulls behave identically in the int executor
    and the naive reference."""
    n = Null("n0")
    instance = Instance(
        [
            Atom("R", (Constant("a"), n)),
            Atom("R", (n, Constant("b"))),
        ]
    )
    x, y = Variable("x"), Variable("y")
    atoms = (Atom("R", (x, y)),)
    query_null = (Atom("R", (Constant("a"), Null("other"))),)
    for flexible in (False, True):
        int_homs = _as_set(
            Matcher().homomorphisms(atoms, instance, flexible_nulls=flexible)
        )
        naive_homs = _as_set(
            NaiveMatcher().homomorphisms(
                atoms, instance, flexible_nulls=flexible
            )
        )
        assert int_homs == naive_homs
        # A rigid query null only matches itself; a flexible one unifies.
        assert Matcher().has(
            query_null, instance, flexible_nulls=flexible
        ) == NaiveMatcher().has(
            query_null, instance, flexible_nulls=flexible
        ) == flexible


class TestReplanOnDrift:
    """The stale-plan trap: grow the instance, keep matching correct."""

    def test_grow_then_match_replans(self):
        """A plan compiled on 2 facts survives a 1000-fact growth spurt.

        Adversarial shape: at compile time S is tiny and R is tiny, so
        any join order looks fine; afterwards R explodes while S stays
        small.  The matcher must notice the drift, recompile, and keep
        returning the exact match set.
        """
        matcher = Matcher()
        instance = Instance(
            [
                Atom("R", (Constant("a"), Constant("b"))),
                Atom("S", (Constant("b"), Constant("hit"))),
            ]
        )
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        atoms = (Atom("R", (x, y)), Atom("S", (y, z)))
        assert matcher.has(atoms, instance)
        baseline_replans = matcher.stats()["replans"]

        grown = instance.copy()
        for i in range(DRIFT_FACTOR * 125):
            grown.add(Atom("R", (Constant(f"g{i}"), Constant(f"g{i + 1}"))))
        grown.add(Atom("S", (Constant("g999"), Constant("end"))))

        matches = _as_set(matcher.homomorphisms(atoms, grown))
        expected = {
            tuple(
                sorted(
                    {x: Constant("a"), y: Constant("b"), z: Constant("hit")}
                    .items(),
                    key=repr,
                )
            ),
            tuple(
                sorted(
                    {
                        x: Constant("g998"),
                        y: Constant("g999"),
                        z: Constant("end"),
                    }.items(),
                    key=repr,
                )
            ),
        }
        assert matches == expected
        assert matcher.stats()["replans"] > baseline_replans, (
            "matcher kept the stale plan after a "
            f"{DRIFT_FACTOR * 125}-fact growth spurt"
        )
        assert matcher.stats()["drift_checks"] > 0
        grown.validate_indexes()

    def test_shrink_also_triggers_replan(self):
        """Drift is symmetric: a plan from a big instance replans small."""
        matcher = Matcher()
        facts = [
            Atom("R", (Constant(f"a{i}"), Constant(f"a{i + 1}")))
            for i in range(DRIFT_FACTOR * 50)
        ]
        big = Instance(facts)
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        # Single-atom plans are never drift-checked (no order to get
        # wrong), so use a join.
        atoms = (Atom("R", (x, y)), Atom("R", (y, z)))
        assert matcher.has(atoms, big)

        small = Instance([Atom("R", (Constant("p"), Constant("q")))])
        before = matcher.stats()["replans"]
        assert not matcher.has(atoms, small)
        # Drift checks are strided, so force enough lookups to hit one.
        for __ in range(64):
            matcher.find(atoms, small)
        assert matcher.stats()["replans"] > before
