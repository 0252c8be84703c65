"""Seeded workload generators for tests and benchmarks.

Each family is parameterized and carries *known ground truth* about
monotone answerability, so the benchmarks can both validate the deciders
(reproducing Table 1's simplifiability/decidability claims) and measure
their scaling (reproducing the complexity shape of each row):

* `lookup_chain_workload` — the Example 1.2/1.3 pattern scaled: a
  directory dump plus n by-id lookup relations under IDs; answerable
  exactly when the dump is unbounded;
* `lookup_fanout_workload` — the same relations with the IDs reversed,
  a star join that stays one rewriting piece (a slow request);
* `id_width_workload` — IDs of growing width w (the EXPTIME dimension of
  Thm 5.3 vs the NP dimension of Thm 5.4);
* `fd_determinacy_workload` — the Example 1.5 pattern scaled: a bound-1
  lookup with m determined and one undetermined column;
* `uid_fd_workload` — mixed UIDs + FDs (Thm 7.2);
* `tgd_transfer_workload` — Example 6.1 scaled to n parallel sources
  (choice simplification, Thm 6.3/7.1);
* `directory_instance` — data for plan-execution benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..constraints.fd import fd
from ..constraints.tgd import inclusion_dependency, tgd
from ..data.instance import Instance
from ..logic.atoms import Atom, atom
from ..logic.queries import ConjunctiveQuery, boolean_cq
from ..logic.terms import Constant
from ..schema.schema import Schema


@dataclass
class Workload:
    """A schema + query pair with its known answerability status."""

    name: str
    schema: Schema
    query: ConjunctiveQuery
    expected_answerable: Optional[bool] = None
    notes: str = ""


def lookup_chain_workload(
    lookups: int,
    *,
    dump_bound: Optional[int] = None,
    query_length: Optional[int] = None,
) -> Workload:
    """Directory + n lookup relations joined on id, under IDs.

    ``Dir(id)`` has an input-free method with optional result bound;
    each ``L_i(id, payload)`` has an exact by-id method and the ID
    ``L_i[0] ⊆ Dir[0]``.  The query joins the first ``query_length``
    lookups on a shared id.  Ground truth: answerable iff the dump is
    unbounded (with a bound, matching tuples can be hidden) — except the
    trivial length-0 query.
    """
    if query_length is None:
        query_length = lookups
    schema = Schema()
    schema.add_relation("Dir", 1)
    schema.add_method("dump", "Dir", inputs=[], result_bound=dump_bound)
    for i in range(lookups):
        name = f"L{i}"
        schema.add_relation(name, 2)
        schema.add_method(f"by_id_{i}", name, inputs=[0])
        schema.add_constraint(
            inclusion_dependency(name, (0,), "Dir", (0,), 2, 1)
        )
    atoms = [atom(f"L{i}", "x", f"y{i}") for i in range(query_length)]
    if not atoms:
        atoms = [atom("Dir", "x")]
    query = boolean_cq(atoms, name=f"Qchain{query_length}")
    expected = dump_bound is None or query_length == 0
    return Workload(
        f"lookup-chain-{lookups}-bound{dump_bound}",
        schema,
        query,
        expected,
        "Example 1.2/1.3 scaled",
    )


def lookup_fanout_workload(lookups: int) -> Workload:
    """Bounded directory + n lookup relations, every directory id in each.

    Like `lookup_chain_workload`, but the IDs run the other way,
    ``Dir[0] ⊆ L_i[0]``, the dump is bounded, and the query joins all n
    lookups on one id.  The join id only occurs at positions the chase
    can fill with nulls, so the whole query is one rewriting piece and
    deciding it takes time exponential in n (seconds at n = 7): the
    family serves as a deliberately slow request.  Ground truth: not
    answerable — a directory id witnesses the join, but with the
    directory empty an id in every lookup cannot be found.
    """
    schema = Schema()
    schema.add_relation("Dir", 1)
    schema.add_method("dump", "Dir", inputs=[], result_bound=5)
    for i in range(lookups):
        name = f"L{i}"
        schema.add_relation(name, 2)
        schema.add_method(f"by_id_{i}", name, inputs=[0])
        schema.add_constraint(
            inclusion_dependency("Dir", (0,), name, (0,), 1, 2)
        )
    query = boolean_cq(
        [atom(f"L{i}", "x", f"y{i}") for i in range(lookups)],
        name=f"Qfanout{lookups}",
    )
    return Workload(
        f"lookup-fanout-{lookups}",
        schema,
        query,
        False,
        "one-piece star join (slow-request family)",
    )


def id_chain_workload(depth: int, *, query_index: Optional[int] = None) -> Workload:
    """A linear ID chain R_0 ⊆ R_1 ⊆ ... ⊆ R_depth, top-dumped.

    ``R_depth`` has an unbounded input-free dump; every ``R_i`` has an
    exact membership check keyed on its single column.  The query asks
    ``R_i(x)`` (default: the bottom of the chain).  Ground truth: YES —
    any R_i value reaches R_depth through the chain, so the dump
    surfaces it and the membership check confirms it.

    The interesting property for the rewriting engine: the backward
    rewritings of the queries ``R_0(x) .. R_depth(x)`` are *nested* —
    query i's frontier is a subset of query i+1's — so a distinct-query
    batch over one schema is the worst case for per-query rewriting and
    the best case for cross-query frontier memoization.
    """
    if query_index is None:
        query_index = 0
    schema = Schema()
    for i in range(depth + 1):
        name = f"R{i}"
        schema.add_relation(name, 1)
        schema.add_method(f"check_{i}", name, inputs=[0])
        if i:
            schema.add_constraint(
                inclusion_dependency(f"R{i - 1}", (0,), name, (0,), 1, 1)
            )
    schema.add_method("dump", f"R{depth}", inputs=[])
    query = boolean_cq([atom(f"R{query_index}", "x")], name=f"Qlink{query_index}")
    return Workload(
        f"id-chain-{depth}",
        schema,
        query,
        True,
        "nested-rewriting family (cross-query reuse stress)",
    )


def id_width_workload(width: int, *, bounded: bool = True) -> Workload:
    """A width-w ID feeding a bounded dump — scales the width dimension.

    ``A`` (arity w) has an input-free dump (bounded or not); the ID
    ``A[0..w-1] ⊆ B[0..w-1]`` promises a B-fact per A-fact; ``B``
    (arity w+1) has a method keyed on the first w positions.  The query
    asks for a joined A,B pair: answerable — the dump provides *one* A
    tuple... with a bound the existence check still answers ∃A∧B since
    any returned A-tuple has a B-partner?  No: the query requires a
    *join*, and any single returned A-tuple joined with its B-partner
    witnesses it; conversely if Q holds, A is nonempty, so the access
    returns some A-tuple whose B-partner exists by the ID.  Answerable
    either way — the benchmark measures decision cost as w grows.
    """
    schema = Schema()
    schema.add_relation("A", width)
    schema.add_relation("B", width + 1)
    schema.add_method(
        "dumpA", "A", inputs=[], result_bound=5 if bounded else None
    )
    schema.add_method("getB", "B", inputs=list(range(width)))
    schema.add_constraint(
        inclusion_dependency(
            "A",
            tuple(range(width)),
            "B",
            tuple(range(width)),
            width,
            width + 1,
        )
    )
    variables = [f"x{i}" for i in range(width)]
    query = boolean_cq(
        [atom("A", *variables), atom("B", *(variables + ["z"]))],
        name=f"Qwidth{width}",
    )
    return Workload(
        f"id-width-{width}-{'bounded' if bounded else 'exact'}",
        schema,
        query,
        True,
        "width-scaling family (Thm 5.3 vs 5.4)",
    )


def fd_determinacy_workload(
    determined: int,
    *,
    bound: int = 1,
    ask_undetermined: bool = False,
) -> Workload:
    """Example 1.5 scaled: R(key, d1..dm, extra), FDs key → d_i.

    The by-key method has a result bound; queries about the determined
    columns are answerable, queries touching the extra column are not.
    """
    arity = determined + 2
    schema = Schema()
    schema.add_relation("R", arity)
    schema.add_method("by_key", "R", inputs=[0], result_bound=bound)
    for i in range(determined):
        schema.add_constraint(fd("R", [0], i + 1))
    terms: list = [Constant("k")]
    terms.extend(Constant(f"d{i}") for i in range(determined))
    if ask_undetermined:
        terms.append(Constant("extra"))
    else:
        terms.append(f"free_extra")
    query = boolean_cq([atom("R", *terms)], name="Qfd")
    return Workload(
        f"fd-det-{determined}-bound{bound}"
        + ("-undet" if ask_undetermined else ""),
        schema,
        query,
        not ask_undetermined,
        "Example 1.5 scaled",
    )


def uid_fd_workload(
    departments: int, *, with_fd: bool = True, bound: int = 10
) -> Workload:
    """University-style UIDs + FDs with n department relations.

    ``Person(id, dept)`` has a bound-`bound` by-id method and the FD
    id → dept; each ``Dept_i(id)`` has a Boolean method with the UID
    ``Person[1] ⊆ Dept_0[0]``-style links.  Query: is the person with a
    known id in department 'd0'?  Answerable with the FD (the returned
    tuple's dept column is trustworthy), not without.
    """
    schema = Schema()
    schema.add_relation("Person", 2)
    schema.add_method("by_id", "Person", inputs=[0], result_bound=bound)
    if with_fd:
        schema.add_constraint(fd("Person", [0], 1))
    for i in range(departments):
        name = f"Dept{i}"
        schema.add_relation(name, 1)
        schema.add_method(f"in_dept_{i}", name, inputs=[0])
        schema.add_constraint(
            inclusion_dependency("Person", (1,), name, (0,), 2, 1)
        )
    query = boolean_cq(
        [atom("Person", Constant(7), Constant("d0"))], name="Quidfd"
    )
    return Workload(
        f"uid-fd-{departments}-{'fd' if with_fd else 'nofd'}",
        schema,
        query,
        with_fd,
        "Thm 7.2 family",
    )


def tgd_transfer_workload(sources: int) -> Workload:
    """Example 6.1 scaled to n parallel bound-1 sources.

    Constraints ``T(y) ∧ S_i(x) → T(x)`` and ``T(y) → ∃x S_i(x)``;
    methods: bound-1 input-free on each S_i, Boolean on T.  The query
    ∃y T(y) is answerable (access any S_i, check membership in T).
    """
    schema = Schema()
    schema.add_relation("T", 1)
    schema.add_method("chkT", "T", inputs=[0])
    for i in range(sources):
        name = f"S{i}"
        schema.add_relation(name, 1)
        schema.add_method(f"getS{i}", name, inputs=[], result_bound=1)
        schema.add_constraint(tgd(f"T(y), {name}(x) -> T(x)"))
        schema.add_constraint(tgd(f"T(y) -> {name}(x)"))
    query = boolean_cq([atom("T", "y")], name="Qtgd")
    return Workload(
        f"tgd-transfer-{sources}",
        schema,
        query,
        True,
        "Example 6.1 scaled",
    )


def random_id_workload(
    seed: int,
    *,
    relations: int = 5,
    arity: int = 2,
    ids: int = 6,
    methods: int = 4,
    bound: Optional[int] = 5,
) -> Workload:
    """A random ID schema + random path query (no ground truth).

    Used by cross-validation benchmarks: the linearization and chase
    routes must agree whenever the chase is definitive.
    """
    rng = random.Random(seed)
    schema = Schema()
    names = [f"N{i}" for i in range(relations)]
    for name in names:
        schema.add_relation(name, arity)
    for i in range(ids):
        src, dst = rng.sample(names, 2)
        src_pos = rng.randrange(arity)
        dst_pos = rng.randrange(arity)
        schema.add_constraint(
            inclusion_dependency(
                src, (src_pos,), dst, (dst_pos,), arity, arity
            )
        )
    for i in range(methods):
        relation = rng.choice(names)
        input_free = rng.random() < 0.4
        inputs = [] if input_free else [rng.randrange(arity)]
        schema.add_method(
            f"m{i}",
            relation,
            inputs=inputs,
            result_bound=bound if rng.random() < 0.5 else None,
        )
    length = rng.randint(1, 3)
    atoms_list: list[Atom] = []
    var = "x0"
    for i in range(length):
        relation = rng.choice(names)
        nxt = f"x{i + 1}"
        # The path runs through the first two positions; the others get
        # fresh variables (a unary atom keeps only its first).
        terms = [var, nxt] + [f"z{i}_{j}" for j in range(2, arity)]
        atoms_list.append(atom(relation, *terms[:arity]))
        var = nxt
    query = boolean_cq(atoms_list, name=f"Qrand{seed}")
    return Workload(f"random-ids-{seed}", schema, query, None, "random")


def directory_instance(
    people: int, *, seed: int = 0, lookups: int = 1
) -> Instance:
    """Data for the lookup-chain schemas (plan-execution benchmarks)."""
    rng = random.Random(seed)
    instance = Instance()
    for person in range(people):
        instance.add(Atom("Dir", (Constant(person),)))
        for i in range(lookups):
            instance.add(
                Atom(
                    f"L{i}",
                    (Constant(person), Constant(rng.randrange(10))),
                )
            )
    return instance
