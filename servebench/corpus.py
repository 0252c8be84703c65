"""Seeded request corpora for the served-decision benchmark.

Every (schema, query) pair comes from `repro.workloads.generators` and
carries the generating family's ``expected_answerable`` as its ground
truth.  Fresh canonical forms are derived from generator output only by
two transformations that preserve monotone answerability, because the
problem is invariant under isomorphism and the generated schemas mention
no constants:

* an injective renaming of the query's constants (fresh quoted strings
  and fresh integers -- the parser reads bare identifiers as variables,
  so constants are always rendered quoted or numeric);
* a permutation of the interchangeable lookup relations ``L0..Ln-1`` of
  `lookup_chain_workload`, which maps the generator's prefix join onto
  any join subset of the same size and leaves the schema unchanged.

The family *sizes* are fixed per workload; the seed picks constants,
join subsets, truth mix and order.  That keeps the per-request cost mix
the same from seed to seed while no two seeds send the same inputs.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.io import schema_to_dict
from repro.logic.queries import ConjunctiveQuery
from repro.logic.terms import Constant, Variable
from repro.workloads import generators
from repro.workloads.generators import Workload as GeneratedPair

#: The fleet's live-fingerprint capacity: 2 workers x the default
#: ``--max-fingerprints`` of 64.
FLEET_FINGERPRINT_CAPACITY = 2 * 64
#: schema-churn working set, as a multiple of that capacity.  Above 2x
#: so that an unlucky ring split still leaves every worker over its
#: own 64-entry LRU.
CHURN_CAPACITY_MULTIPLE = 3


def term_text(term) -> str:
    if isinstance(term, Variable):
        return term.name
    if not isinstance(term, Constant):
        raise TypeError(f"cannot render term {term!r} in a query")
    if isinstance(term.value, str):
        if "'" in term.value:
            raise ValueError(f"constant {term.value!r} cannot be quoted")
        return f"'{term.value}'"
    if isinstance(term.value, int) and not isinstance(term.value, bool):
        return str(term.value)
    raise TypeError(f"cannot render constant {term.value!r}")


def query_text(query: ConjunctiveQuery) -> str:
    """The parser's text form of a Boolean CQ body."""
    if query.free_variables:
        raise ValueError("the corpus sends Boolean queries only")
    return ", ".join(
        f"{atom.relation}({', '.join(term_text(t) for t in atom.terms)})"
        for atom in query.atoms
    )


@dataclass(frozen=True)
class Request:
    """One decide frame plus the ground truth it is checked against."""

    family: str
    query: str
    expected: bool
    schema_json: str = field(repr=False)

    @property
    def frame(self) -> bytes:
        return (
            '{"query": %s, "schema": %s}\n'
            % (json.dumps(self.query), self.schema_json)
        ).encode("utf-8")

    @property
    def schema(self) -> dict:
        return json.loads(self.schema_json)


class _Schemas:
    """Serializes each generated schema once, so every request of one
    schema sends the byte-identical spelling (as a real client would)."""

    def __init__(self) -> None:
        # id(pair) -> (pair, spelling); holding the pair keeps its id
        # from being reused.
        self._json: dict[int, tuple[GeneratedPair, str]] = {}

    def request(
        self, family: str, pair: GeneratedPair, query: ConjunctiveQuery
    ) -> Request:
        entry = self._json.get(id(pair))
        if entry is None:
            entry = (
                pair,
                json.dumps(schema_to_dict(pair.schema), sort_keys=True),
            )
            self._json[id(pair)] = entry
        spelling = entry[1]
        if pair.expected_answerable is None:
            raise ValueError(f"{pair.name} carries no ground truth")
        return Request(
            family, query_text(query), bool(pair.expected_answerable), spelling
        )


class _FreshConstants:
    """Injective constant renaming with values no other request uses."""

    def __init__(self, rng: random.Random, prefix: str) -> None:
        self._tag = f"{prefix}{rng.randrange(16 ** 6):06x}"
        self._serial = itertools.count(rng.randrange(10 ** 6, 10 ** 7))

    def rename(self, query: ConjunctiveQuery) -> ConjunctiveQuery:
        mapping = {}
        for constant in query.constants():
            serial = next(self._serial)
            if isinstance(constant.value, str):
                mapping[constant] = Constant(f"{self._tag}n{serial}")
            else:
                mapping[constant] = Constant(serial)
        return query.substitute(mapping)


def lookup_subset_query(
    pair: GeneratedPair, subset: tuple[int, ...]
) -> ConjunctiveQuery:
    """The generator's ``query_length=len(subset)`` join moved onto the
    lookups in ``subset`` by a permutation of the interchangeable
    ``L`` relations (an automorphism of the schema)."""
    renaming = {f"L{i}": f"L{target}" for i, target in enumerate(subset)}
    return pair.query.rename_relations(lambda name: renaming.get(name, name))


@dataclass
class Workload:
    """What one benchmark workload sends.

    ``warmup`` is sent during set-up, pass by pass (every response is
    still checked); ``timed`` yields the timed phase's requests in
    order, and is finite only when the workload can run out of fresh
    inputs.
    """

    name: str
    warmup: list[list[Request]]
    timed: Callable[[], Iterator[Request]]


# ----------------------------------------------------------------------
# hot-repeat: one schema per Table 1 route, a fixed cycle of pairs
# ----------------------------------------------------------------------
def hot_repeat(seed: int) -> Workload:
    rng = random.Random(f"hot-repeat:{seed}")
    schemas = _Schemas()
    fresh = _FreshConstants(rng, "h")
    corpus: list[Request] = []
    # FD simplification: 3 determined-column (YES) + 2 undetermined (NO).
    for ask_undetermined in (False, False, False, True, True):
        pair = generators.fd_determinacy_workload(
            4, bound=1, ask_undetermined=ask_undetermined
        )
        corpus.append(schemas.request("fd", pair, fresh.rename(pair.query)))
    # ID linearization: the directory dump (YES) + 4 lookup joins under
    # a bounded dump (NO).
    lookups = 8
    dump = generators.lookup_chain_workload(
        lookups, dump_bound=5, query_length=0
    )
    corpus.append(schemas.request("ids", dump, dump.query))
    pair = generators.lookup_chain_workload(
        lookups, dump_bound=5, query_length=2
    )
    subsets = list(itertools.combinations(range(lookups), 2))
    for subset in rng.sample(subsets, 4):
        corpus.append(
            schemas.request("ids", pair, lookup_subset_query(pair, subset))
        )
    # UIDs + FDs separability: 5 fresh (person, department) probes.
    pair = generators.uid_fd_workload(3, bound=10)
    for __ in range(5):
        corpus.append(
            schemas.request("uids-fds", pair, fresh.rename(pair.query))
        )
    # Choice simplification: the family's one query.
    pair = generators.tgd_transfer_workload(2)
    corpus.append(schemas.request("choice", pair, pair.query))
    rng.shuffle(corpus)
    # Three warm-up passes: the first teaches the dispatcher each
    # schema's fingerprint route, the next two fill the decision caches
    # of both round-robin sessions the pool keeps per fingerprint on
    # the worker that route lands on (each schema sends an odd number
    # of pairs per pass, so a pair alternates between them).
    return Workload(
        "hot-repeat",
        warmup=[list(corpus), list(corpus), list(corpus)],
        timed=lambda: itertools.cycle(corpus),
    )


# ----------------------------------------------------------------------
# cold-distinct: every timed query is a new canonical form
# ----------------------------------------------------------------------
#: Lookup relations in the cold-distinct ID schemas.  Joins of 2 or 3
#: of them give 435 + 4060 distinct queries per schema.
COLD_LOOKUPS = 30
#: Join sizes the lookup streams alternate between.
COLD_JOIN_SIZES = (2, 3)


def _lookup_stream(
    schemas: _Schemas, family: str, bound: Optional[int], rng: random.Random
) -> Iterator[Request]:
    pools = {}
    for size in COLD_JOIN_SIZES:
        subsets = list(itertools.combinations(range(COLD_LOOKUPS), size))
        rng.shuffle(subsets)
        pair = generators.lookup_chain_workload(
            COLD_LOOKUPS, dump_bound=bound, query_length=size
        )
        pools[size] = (pair, subsets)
    for size in itertools.cycle(COLD_JOIN_SIZES):
        # A drained size falls through to the next one.
        for candidate in (size, *COLD_JOIN_SIZES):
            pair, subsets = pools[candidate]
            if subsets:
                subset = subsets.pop()
                yield schemas.request(
                    family, pair, lookup_subset_query(pair, subset)
                )
                break
        else:
            return


def _renamed_stream(
    schemas: _Schemas, family: str, pair: GeneratedPair, fresh: _FreshConstants
) -> Iterator[Request]:
    while True:
        yield schemas.request(family, pair, fresh.rename(pair.query))


def cold_distinct(seed: int) -> Workload:
    rng = random.Random(f"cold-distinct:{seed}")
    schemas = _Schemas()
    fresh = _FreshConstants(rng, "w")
    fd_yes = generators.fd_determinacy_workload(4, bound=1)
    fd_no = generators.fd_determinacy_workload(
        4, bound=1, ask_undetermined=True
    )
    uid_fd = generators.uid_fd_workload(3, bound=10)
    # One throwaway per schema builds the lazy compiled artifacts; none
    # of these canonical forms recurs in the timed stream.
    warmup = [
        schemas.request("fd", fd_yes, fresh.rename(fd_yes.query)),
        schemas.request("uids-fds", uid_fd, fresh.rename(uid_fd.query)),
    ]
    for bound in (5, None):
        dump = generators.lookup_chain_workload(
            COLD_LOOKUPS, dump_bound=bound, query_length=0
        )
        warmup.append(schemas.request("ids", dump, dump.query))
    stream_seed = rng.randrange(2 ** 32)

    def timed() -> Iterator[Request]:
        # Rebuilt per call from the same seed: every consumer (e2e run,
        # each ladder rung) sees the identical stream.
        rng = random.Random(stream_seed)
        fresh = _FreshConstants(rng, "c")
        bounded = random.Random(rng.random())
        exact = random.Random(rng.random())
        streams = [
            _renamed_stream(schemas, "fd", fd_yes, fresh),
            _renamed_stream(schemas, "fd", fd_no, fresh),
            _renamed_stream(schemas, "uids-fds", uid_fd, fresh),
            _lookup_stream(schemas, "ids-bounded", 5, bounded),
            _lookup_stream(schemas, "ids-exact", None, exact),
        ]
        while streams:
            for stream in list(streams):
                request = next(stream, None)
                if request is None:
                    streams.remove(stream)
                else:
                    yield request

    return Workload("cold-distinct", warmup=[warmup], timed=timed)


# ----------------------------------------------------------------------
# schema-churn: a working set of schemas past the fleet's capacity
# ----------------------------------------------------------------------
def _churn_grid() -> list[GeneratedPair]:
    """Ground-truth pairs over every route, one schema each, by varying
    the family parameters."""
    grid: list[GeneratedPair] = []
    for size in range(1, 11):
        for bound in range(1, 10):
            grid.append(
                generators.fd_determinacy_workload(
                    size, bound=bound, ask_undetermined=(size + bound) % 2 == 0
                )
            )
            grid.append(generators.uid_fd_workload(size, bound=bound))
            grid.append(
                generators.uid_fd_workload(size, with_fd=False, bound=bound)
            )
            grid.append(
                generators.lookup_chain_workload(
                    size,
                    dump_bound=None if bound == 9 else bound,
                    query_length=1,
                )
            )
    for depth in range(1, 41):
        grid.append(
            generators.id_chain_workload(depth, query_index=depth // 2)
        )
    for sources in range(1, 7):
        grid.append(generators.tgd_transfer_workload(sources))
    for width in range(1, 6):
        for bounded in (True, False):
            grid.append(generators.id_width_workload(width, bounded=bounded))
    return grid


def schema_churn(seed: int) -> Workload:
    rng = random.Random(f"schema-churn:{seed}")
    schemas = _Schemas()
    fresh = _FreshConstants(rng, "s")
    size = CHURN_CAPACITY_MULTIPLE * FLEET_FINGERPRINT_CAPACITY
    corpus = [
        schemas.request("churn", pair, fresh.rename(pair.query))
        for pair in rng.sample(_churn_grid(), size)
    ]
    return Workload(
        "schema-churn",
        warmup=[list(corpus)],
        timed=lambda: itertools.cycle(corpus),
    )


WORKLOADS = {
    "hot-repeat": hot_repeat,
    "cold-distinct": cold_distinct,
    "schema-churn": schema_churn,
}
