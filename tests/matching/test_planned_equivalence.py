"""Cross-check: the planned matcher ≡ the naive reference search.

The planned matcher (`repro.matching.Matcher`) must enumerate exactly
the homomorphism set of the naive backtracking reference
(`repro.matching.NaiveMatcher`) on every (atom set, instance, seed,
rigidity) combination — plans, caches, and probes are pure speedups.
The randomized sweeps generate mixed workloads (joins, repeated
variables, constants, rigid and flexible nulls, partial seeds) and
compare enumerations and found/has answers; a seeded sample always
runs in tier 1, the full sweep is marked ``slow``.
The same generator also exercises cache warmth: each case is matched
twice on one matcher, with a mutation in between, so stale cache
entries would be caught as a planned/naive divergence.
"""

import random

import pytest

from repro.data import Instance
from repro.logic import Atom, Constant, Null, Variable
from repro.matching import Matcher, NaiveMatcher

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
    """A partial assignment over the atoms' variables (sometimes empty)."""
    if rng.random() < 0.5:
        return None
    domain = sorted(instance.active_domain(), key=repr)
    if not domain:
        return None
    variables = sorted(
        {t for a in atoms for t in a.terms if isinstance(t, Variable)},
        key=repr,
    )
    if not variables:
        return None
    picked = rng.sample(variables, rng.randint(1, len(variables)))
    return {v: rng.choice(domain) for v in picked}


def _as_set(homomorphisms):
    return {frozenset(h.items()) for h in homomorphisms}


def check_one_case(seed: int) -> None:
    rng = random.Random(seed)
    instance = _random_instance(rng)
    atoms = _random_atoms(rng)
    flexible = rng.random() < 0.3
    partial = _random_seed(rng, atoms, instance)
    planned = Matcher()
    naive = NaiveMatcher()

    def compare() -> None:
        expected = _as_set(
            naive.homomorphisms(
                atoms, instance, seed=partial, flexible_nulls=flexible
            )
        )
        actual = _as_set(
            planned.homomorphisms(
                atoms, instance, seed=partial, flexible_nulls=flexible
            )
        )
        assert actual == expected, (
            f"case {seed}: planned enumerated {len(actual)} assignments, "
            f"naive {len(expected)}\natoms={atoms}\ninstance={instance}\n"
            f"seed={partial} flexible={flexible}"
        )
        assert planned.has(
            atoms, instance, seed=partial, flexible_nulls=flexible
        ) == bool(expected)
        found = planned.find(
            atoms, instance, seed=partial, flexible_nulls=flexible
        )
        assert (found is not None) == bool(expected)
        if found is not None:
            assert frozenset(found.items()) in expected

    compare()
    # Mutate and compare again on the same matcher: generation-counter
    # invalidation must keep the caches honest.
    mutation = rng.random()
    facts = sorted(instance, key=repr)
    if mutation < 0.5 and facts:
        instance.discard(rng.choice(facts))
    else:
        relation = rng.choice(list(RELATIONS))
        domain = sorted(instance.active_domain(), key=repr) or [
            Constant("c0")
        ]
        instance.add(
            Atom(
                relation,
                tuple(
                    rng.choice(domain)
                    for __ in range(RELATIONS[relation])
                ),
            )
        )
    compare()


@pytest.mark.parametrize("seed", range(40))
def test_planned_equals_naive_sample(seed):
    """Seeded tier-1 sample of the cross-check sweep."""
    check_one_case(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(40, 540))
def test_planned_equals_naive_sweep(seed):
    """The full randomized sweep (nightly; run with ``pytest -m slow``)."""
    check_one_case(seed)
