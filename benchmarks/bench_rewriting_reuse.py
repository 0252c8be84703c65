"""Cross-query rewriting reuse: the `RewriteEngine` vs per-query rewriting.

The ID-route deciders (Thm 5.3/5.4) answer through a backward UCQ
rewriting of the linearized system.  Before the engine, that rewriting
was recomputed from scratch for every query — the dominant cost on
distinct-query batches (`BENCH_service.json` recorded ~1.0x for
`lookup-chain-distinct`).  This suite measures what sharing one
`RewriteEngine` per compiled schema buys:

* **id-chain rewriting** — distinct queries ``R_0(x) .. R_n(x)`` down a
  linear ID chain: their rewriting frontiers are nested, so the shared
  engine expands each canonical state once ever while the per-query
  baseline re-derives the whole chain suffix for every query;
* **id-chain decide batch** — the same batch end to end through the ID
  decide route: legacy per-query free functions (fresh schema analysis
  + fresh rewriting, the pre-service API) vs one `Session` over one
  compiled schema owning one engine;
* **lookup-chain joins** — the `bench_service_throughput` distinct-join
  family: disjoint-relation joins share no frontier states, so the win
  here is the memoized per-atom rewrite steps and the compiled rule
  index (a smaller, honest number);
* **star joins** — ``L_0(x, y_0) .. L_{k-1}(x, y_{k-1})`` for k = 2..6
  under an exact and a bounded dump, decided through the ID route.
  The ID route rewrites each lookup atom as its own piece, so the work
  grows linearly in k where the whole-query UCQ has 4^k (exact) or
  2^k (bounded) disjuncts (``product_disjuncts``).  Each row then
  decides the shifted join over ``L_1 .. L_k``, whose k - 1 shared
  pieces are whole-result memo hits (``result_hits``).

Each record carries the engine's cache counters (expansions reused,
atom-pattern hits, states, result hits) so the time can be attributed.
Results persist to ``BENCH_rewriting.json``; ``--smoke`` shrinks sizes
for CI.
"""

from __future__ import annotations

import argparse
import os
import statistics
import time

from _harness import BenchRecord, write_bench_json

from repro.answerability import decide_monotone_answerability
from repro.answerability.axioms import prime_query
from repro.containment.rewriting import RewriteEngine
from repro.logic.atoms import atom
from repro.logic.queries import boolean_cq
from repro.matching.matcher import Matcher
from repro.service import Session, compile_schema
from repro.workloads import id_chain_workload, lookup_chain_workload


def _timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def _best(run, repeats: int = 4) -> float:
    return min(_timed(run) for __ in range(repeats))


def _chain_queries(depth: int):
    return [
        boolean_cq([atom(f"R{i}", "x")], name=f"Qlink{i}")
        for i in range(depth + 1)
    ]


def _join_queries(lengths: range):
    return [
        boolean_cq(
            [atom(f"L{i}", "x", f"y{i}") for i in range(length)],
            name=f"Qchain{length}",
        )
        for length in lengths
    ]


def _rewriting_family(name: str, schema, queries) -> BenchRecord:
    """Fresh `RewriteEngine` per query vs one shared engine, rewriting
    the primed queries of the linearized system (the ID-route hot path,
    isolated from compilation and matching)."""
    compiled = compile_schema(schema)
    system = compiled.linearization()
    targets = [prime_query(query) for query in queries]

    def per_query() -> None:
        for target in targets:
            RewriteEngine(system.rules).rewrite(target)

    def shared() -> None:
        engine = RewriteEngine(system.rules)
        for target in targets:
            engine.rewrite(target)

    # Agreement first: the shared engine must emit the same disjunct
    # sets as fresh per-query rewritings (determinism makes this ==).
    engine = RewriteEngine(system.rules)
    for target in targets:
        fresh = RewriteEngine(system.rules).rewrite(target)
        memoized = engine.rewrite(target)
        assert [repr(d.atoms) for d in fresh.disjuncts] == [
            repr(d.atoms) for d in memoized.disjuncts
        ], f"shared/fresh rewriting disagree on {target.name}"

    baseline = _best(per_query)
    with_engine = _best(shared)
    stats_engine = RewriteEngine(system.rules)
    for target in targets:
        stats_engine.rewrite(target)
    stats = stats_engine.stats()
    speedup = baseline / with_engine if with_engine else float("inf")
    print(
        f"  {name:34} per-query {baseline * 1000:9.2f} ms   "
        f"shared {with_engine * 1000:9.2f} ms   {speedup:6.1f}x"
    )
    return BenchRecord(
        name,
        with_engine,
        4,
        {
            "baseline_seconds": baseline,
            "speedup": round(speedup, 2),
            "queries": len(queries),
            "mode": "rewriting",
            "expansions_built": stats["expansions_built"],
            "expansions_reused": stats["expansions_reused"],
            "atom_patterns_compiled": stats["atom_patterns_compiled"],
            "atom_pattern_hits": stats["atom_pattern_hits"],
        },
    )


def _decide_family(name: str, schema, queries) -> BenchRecord:
    """The end-to-end distinct-query ID-route batch: legacy per-query
    free functions vs one session (compiled schema + shared engine)."""

    def legacy() -> None:
        for query in queries:
            decide_monotone_answerability(schema, query)

    def service() -> None:
        session = Session(compile_schema(schema))
        session.decide_many(queries)

    session = Session(compile_schema(schema))
    for query in queries:
        fresh = decide_monotone_answerability(schema, query)
        assert session.decide(query).decision == fresh.truth.value, (
            f"service/legacy disagree on {query.name}"
        )

    baseline = _best(legacy)
    with_service = _best(service)
    speedup = baseline / with_service if with_service else float("inf")
    print(
        f"  {name:34} legacy    {baseline * 1000:9.2f} ms   "
        f"shared {with_service * 1000:9.2f} ms   {speedup:6.1f}x"
    )
    return BenchRecord(
        name,
        with_service,
        4,
        {
            "baseline_seconds": baseline,
            "speedup": round(speedup, 2),
            "queries": len(queries),
            "mode": "decide-batch",
        },
    )


#: Star-join sizes of the piece-wise rows.
STAR_SIZES = range(2, 7)


def _star(lookups: range):
    return boolean_cq(
        [atom(f"L{i}", "x", f"y{i}") for i in lookups],
        name=f"Qstar{lookups.start}_{lookups.stop}",
    )


def _star_join_family(
    k: int, bound, *, repeats: int, product: bool
) -> BenchRecord:
    """A k-lookup star join through the ID decide route, then the
    shifted star join sharing k - 1 of its pieces.  Every repeat uses
    a fresh compiled schema with Σ^Lin and the engine prebuilt, so the
    timings are rewriting and matching only."""
    workload = lookup_chain_workload(k + 1, dump_bound=bound)
    first, shifted = _star(range(k)), _star(range(1, k + 1))
    expected = "yes" if bound is None else "no"
    firsts, shifts = [], []
    for __ in range(repeats):
        compiled = compile_schema(workload.schema)
        compiled.rewrite_engine()
        start = time.perf_counter()
        decision = decide_monotone_answerability(compiled, first).decision
        middle = time.perf_counter()
        again = decide_monotone_answerability(compiled, shifted).decision
        firsts.append(middle - start)
        shifts.append(time.perf_counter() - middle)
        assert decision.truth.value == again.truth.value == expected, (
            f"star join k={k} bound={bound}: {decision.truth.value}"
        )
    stats = compiled.engine_stats()
    product_disjuncts = None
    if product:
        # The whole-query UCQ the ID route probed before the piece
        # split, for the size comparison.
        system = compiled.linearization()
        ucq = RewriteEngine(system.rules, subsumption=True).rewrite(
            prime_query(first)
        )
        start_instance = system.initial_instance(first)
        matcher = Matcher()
        assert any(
            matcher.has(d.atoms, start_instance) for d in ucq.disjuncts
        ) == (expected == "yes")
        product_disjuncts = len(ucq.disjuncts)
    low, median, high = statistics.quantiles(firsts, n=4)
    shifted_median = statistics.median(shifts)
    name = f"star-join-{k}-{'exact' if bound is None else 'bounded'}"
    print(
        f"  {name:34} decide {median * 1000:7.2f} ms "
        f"(IQR {(high - low) * 1000:.2f})   "
        f"shifted {shifted_median * 1000:7.2f} ms   "
        f"states {stats['states']:4}   result hits {stats['result_hits']}"
    )
    return BenchRecord(
        name,
        min(firsts),
        repeats,
        {
            "mode": "star-join",
            "median_ms": round(median * 1000, 3),
            "iqr_ms": round((high - low) * 1000, 3),
            "shifted_median_ms": round(shifted_median * 1000, 3),
            "decision": decision.truth.value,
            "pieces": decision.detail["pieces"],
            "disjuncts": decision.detail["disjuncts"],
            "product_disjuncts": product_disjuncts,
            "states": stats["states"],
            "result_hits": stats["result_hits"],
        },
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="bench_rewriting_reuse")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI smoke runs (written to a .smoke.json "
        "sidecar so the committed BENCH_rewriting.json is untouched)",
    )
    parser.add_argument("--out", default=None, help="output path override")
    args = parser.parse_args(argv)

    depth = 8 if args.smoke else 32
    joins = 4 if args.smoke else 8
    lengths = range(1, (3 if args.smoke else 4) + 1)

    chain = id_chain_workload(depth)
    chain_queries = _chain_queries(depth)
    join_schema = lookup_chain_workload(joins, dump_bound=None).schema
    join_queries = _join_queries(lengths)

    print("rewriting reuse (per-query baseline vs shared RewriteEngine)")
    records = [
        _rewriting_family(
            f"id-chain-{depth}-rewriting", chain.schema, chain_queries
        ),
        _decide_family(
            f"id-chain-{depth}-decide-batch", chain.schema, chain_queries
        ),
        _rewriting_family(
            f"lookup-chain-{joins}-join-rewriting", join_schema, join_queries
        ),
    ]
    print("star joins through the piece-wise ID route")
    for bound in (None, 5):
        for k in STAR_SIZES:
            # The product UCQ of an exact 6-star takes seconds: the
            # smoke run skips it.
            records.append(
                _star_join_family(
                    k,
                    bound,
                    repeats=4 if args.smoke else 9,
                    product=not args.smoke or k <= 4,
                )
            )

    from pathlib import Path

    from _harness import ROOT

    if args.out is not None:
        out = Path(args.out)
    elif args.smoke:
        out = ROOT / "BENCH_rewriting.smoke.json"
    else:
        out = None  # write_bench_json's default: BENCH_rewriting.json
    path = write_bench_json(
        "rewriting",
        records,
        extra={"smoke": args.smoke, "host_cpus": os.cpu_count()},
        path=out,
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
