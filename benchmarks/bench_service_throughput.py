"""Service-layer throughput: compiled schemas + session caching.

Measures what the `repro.service` layer buys over the legacy free
functions, which re-derive the per-schema analysis (classification,
simplification, AMonDet axioms, linearization) on every call:

* **repeated-query decide** — the same query against the same schema N
  times: the session answers from its LRU decision cache after the
  first call;
* **distinct-query batch** — N *different* queries against one schema
  (no cache hits): the speedup isolates the compiled-schema
  amortization;
* **batch JSON round-trip** — `decide_many` plus response serialization,
  the CLI ``batch`` hot path.

Each workload family records the uncached baseline (fresh
`decide_monotone_answerability` per query, exactly what the pre-service
API did), the session time, and the speedup, persisted to
``BENCH_service.json``.  Run directly or via ``python -m benchmarks
--only service``; ``--smoke`` shrinks the sizes for CI.
"""

from __future__ import annotations

import argparse
import json
import time

from _harness import BenchRecord, write_bench_json

from repro.answerability import decide_monotone_answerability
from repro.logic.queries import boolean_cq
from repro.logic.atoms import atom
from repro.service import Session, compile_schema
from repro.workloads import (
    fd_determinacy_workload,
    id_chain_workload,
    lookup_chain_workload,
    query_q2,
    tgd_transfer_workload,
    university_schema,
    uid_fd_workload,
)


def _chain_queries(lengths: range):
    """Distinct join queries over one lookup-chain schema."""
    queries = []
    for length in lengths:
        atoms = [atom(f"L{i}", "x", f"y{i}") for i in range(length)]
        queries.append(boolean_cq(atoms, name=f"Qchain{length}"))
    return queries


def _timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def _family(
    name: str,
    schema,
    queries,
    *,
    repeats: int,
    serialize: bool = False,
) -> BenchRecord:
    """Time `repeats` passes over `queries`: legacy (fresh analysis per
    decide) vs a single session over a compiled schema."""

    def legacy() -> None:
        for __ in range(repeats):
            for query in queries:
                decide_monotone_answerability(schema, query)

    def service() -> None:
        session = Session(compile_schema(schema))
        for __ in range(repeats):
            responses = session.decide_many(queries)
            if serialize:
                for response in responses:
                    json.dumps(response.to_dict())

    # Verify agreement before timing (the point of the refactor is that
    # nothing semantic changed).
    session = Session(compile_schema(schema))
    for query in queries:
        legacy_result = decide_monotone_answerability(schema, query)
        assert (
            session.decide(query).decision == legacy_result.truth.value
        ), f"service/legacy disagree on {query!r}"

    baseline = min(_timed(legacy) for __ in range(4))
    with_service = min(_timed(service) for __ in range(4))
    speedup = baseline / with_service if with_service else float("inf")
    print(
        f"  {name:34} legacy {baseline * 1000:9.2f} ms   "
        f"service {with_service * 1000:9.2f} ms   {speedup:6.1f}x"
    )
    return BenchRecord(
        name,
        with_service,
        4,
        {
            "baseline_seconds": baseline,
            "speedup": round(speedup, 2),
            "queries": len(queries),
            "repeats": repeats,
            "mode": "repeated" if repeats > 1 else "distinct",
        },
    )


def _normalized(response) -> str:
    payload = response.to_dict()
    payload.pop("elapsed_ms", None)
    payload.pop("cached", None)
    return json.dumps(payload, sort_keys=True)


def _warm_restart_family(name: str, cases) -> BenchRecord:
    """Cold vs warm restart: first-pass latency over a durable store.

    ``cases`` is a list of ``(schema, queries)`` pairs — the working
    set a serving process held before it went down.  Both sides model
    the *restart*: fresh `Session`s over freshly compiled schemas,
    nothing carried over in memory.  The cold side recomputes every
    decision; the warm side reopens the cache directory the previous
    "process" populated and serves the same queries from the decision
    tier, the only durable answer cache.  The timed region is the full
    restart cost: store open (warm side only), schema compiles, and the
    first pass over every query.
    """
    import shutil
    import tempfile

    from repro.cache import open_directory

    total = sum(len(queries) for __, queries in cases)

    # Oracle first: persisted-then-loaded must be byte-identical to a
    # storeless fresh session (minus timing/cache markers) — the
    # equivalence gate, asserted in the benchmark itself.
    def run_pass(store):
        outputs = []
        durable_hits = 0
        for schema, queries in cases:
            session = Session(compile_schema(schema), store=store)
            outputs += [
                _normalized(session.decide(query)) for query in queries
            ]
            durable_hits += getattr(session, "durable_hits", 0)
        return outputs, durable_hits

    fresh, __ = run_pass(None)
    workdir = tempfile.mkdtemp(prefix="bench-warm-restart-")
    try:
        store = open_directory(workdir)
        written, __ = run_pass(store)
        store.close()
        assert written == fresh, f"store write changed answers in {name}"

        reopened = open_directory(workdir)
        try:
            loaded, durable_hits = run_pass(reopened)
            assert durable_hits == total, (
                f"{name}: expected every decision from the store, got "
                f"{durable_hits}/{total} durable hits"
            )
        finally:
            reopened.close()
        assert loaded == fresh, f"persisted/fresh disagree in {name}"

        def cold() -> None:
            run_pass(None)

        def warm() -> None:
            restart_store = open_directory(workdir)
            try:
                run_pass(restart_store)
            finally:
                restart_store.close()

        cold_seconds = min(_timed(cold) for __ in range(4))
        warm_seconds = min(_timed(warm) for __ in range(4))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    print(
        f"  {name:34} cold   {cold_seconds * 1000:9.2f} ms   "
        f"warm    {warm_seconds * 1000:9.2f} ms   {speedup:6.1f}x"
    )
    return BenchRecord(
        name,
        warm_seconds,
        4,
        {
            "baseline_seconds": cold_seconds,
            "speedup": round(speedup, 2),
            "queries": total,
            "schemas": len(cases),
            "repeats": 1,
            "mode": "warm-restart",
            "baseline": "fresh sessions with no store: every decision "
            "recomputed after the restart (the warm side reopens the "
            "durable cache and serves the identical answers from it)",
        },
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="bench_service_throughput")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI smoke runs (written to a .smoke.json "
        "sidecar so the committed BENCH_service.json is untouched)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default: BENCH_service.json at the repo "
        "root, or BENCH_service.smoke.json under --smoke)",
    )
    args = parser.parse_args(argv)
    repeats = 5 if args.smoke else 50
    chain = 4 if args.smoke else 8
    # Backward UCQ rewriting grows ~5x per join atom; cap the distinct
    # query lengths so the family measures amortization, not rewriting.
    lengths = range(1, (3 if args.smoke else 4) + 1)

    fd_views = fd_determinacy_workload(6)
    uid_fd = uid_fd_workload(4)
    tgd_transfer = tgd_transfer_workload(4)
    chain_schema = lookup_chain_workload(chain, dump_bound=None).schema
    chain_queries = _chain_queries(lengths)
    id_depth = 6 if args.smoke else 16
    id_chain_schema = id_chain_workload(id_depth).schema
    id_chain_queries = [
        boolean_cq([atom(f"R{i}", "x")], name=f"Qlink{i}")
        for i in range(id_depth + 1)
    ]

    print("service-layer throughput (legacy free functions vs Session)")
    records = [
        # Same query over and over: LRU decision cache + compiled schema.
        _family(
            f"university-q2-repeat-{repeats}",
            university_schema(ud_bound=100),
            [query_q2()],
            repeats=repeats,
        ),
        _family(
            f"fd-views-repeat-{repeats}",
            fd_views.schema,
            [fd_views.query],
            repeats=repeats,
        ),
        _family(
            f"uid-fd-repeat-{repeats}",
            uid_fd.schema,
            [uid_fd.query],
            repeats=repeats,
        ),
        _family(
            f"tgd-transfer-repeat-{repeats}",
            tgd_transfer.schema,
            [tgd_transfer.query],
            repeats=repeats,
        ),
        # Distinct queries, one schema: every decide is a decision-cache
        # miss, so this isolates compiled-schema amortization plus the
        # shared rewrite engine's per-atom-step reuse (the join queries
        # span disjoint relations, so no frontier states are shared).
        _family(
            f"lookup-chain-{chain}-distinct",
            chain_schema,
            chain_queries,
            repeats=1,
        ),
        # Distinct queries with *nested* rewriting frontiers: the shared
        # rewrite engine expands each canonical state once for the whole
        # batch (see bench_rewriting_reuse for the isolated numbers).
        _family(
            f"id-chain-{id_depth}-distinct",
            id_chain_schema,
            id_chain_queries,
            repeats=1,
        ),
        # The CLI batch hot path: decide_many + JSON serialization; the
        # second pass is served from the decision cache.
        _family(
            f"batch-json-chain-{chain}",
            chain_schema,
            chain_queries,
            repeats=2,
            serialize=True,
        ),
        # Durable-store warm restarts: a fresh process over a reopened
        # cache directory vs the same fresh process recomputing — the
        # headline number of the persistence tier.  Agreement between
        # persisted and fresh answers is asserted inside the family.
        _warm_restart_family(
            "warm-restart-repeated-mix",
            # The four repeated-query families above, restarted as one
            # working set: a multi-fingerprint store serving each
            # schema's hot query from the decision tier.
            [
                (university_schema(ud_bound=100), [query_q2()]),
                (fd_views.schema, [fd_views.query]),
                (uid_fd.schema, [uid_fd.query]),
                (tgd_transfer.schema, [tgd_transfer.query]),
            ],
        ),
        _warm_restart_family(
            f"warm-restart-id-chain-{id_depth}",
            [(id_chain_schema, id_chain_queries)],
        ),
    ]
    from pathlib import Path

    from _harness import ROOT

    if args.out is not None:
        out = Path(args.out)
    elif args.smoke:
        out = ROOT / "BENCH_service.smoke.json"
    else:
        out = None  # write_bench_json's default: BENCH_service.json
    path = write_bench_json(
        "service",
        records,
        extra={"smoke": args.smoke},
        path=out,
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
