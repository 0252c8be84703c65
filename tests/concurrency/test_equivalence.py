"""Concurrency equivalence: parallel serving must change nothing.

The serving layer's entire safety story rests on three claims the seed
suite never exercised under threads: `CompiledSchema` artifacts freeze
correctly under concurrent first use, `Session`'s decision cache and
the `Matcher`/`RewriteEngine` caches are thread-safe, and a
`SessionPool` routes concurrent mixed-fingerprint traffic to the same
answers a serial loop produces.

Every test here decides the same workload sequentially (the ground
truth) and concurrently (threads over shared state), then compares
*normalized* response payloads — `to_dict()` minus ``elapsed_ms`` and
``cached``, the only fields that legitimately depend on timing and on
which pooled session served the request.  Everything else — decision,
reason, route, constraint class, fingerprint, detail (including chase
certificates), structured errors — must be byte-identical.

A seeded tier-1 sample runs on every push; the randomized sweep
carries the ``slow`` marker and runs nightly.
"""

import json
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.io import DecideRequest, schema_to_dict
from repro.server import SessionPool
from repro.service import Session, compile_schema
from repro.workloads import (
    fd_determinacy_workload,
    id_chain_workload,
    lookup_chain_workload,
    random_id_workload,
    tgd_transfer_workload,
    uid_fd_workload,
    university_schema,
)

THREADS = 8


def normalized(payload: dict) -> str:
    """The byte form compared across serial/concurrent runs."""
    payload = dict(payload)
    payload.pop("elapsed_ms", None)
    payload.pop("cached", None)
    return json.dumps(payload, sort_keys=True)


def hammer(threads: int, work):
    """Run ``work(index)`` on `threads` threads, first call gated on a
    barrier so cold caches race for real; re-raise any failure."""
    barrier = threading.Barrier(threads)

    def task(index: int):
        barrier.wait()
        return work(index)

    with ThreadPoolExecutor(max_workers=threads) as executor:
        futures = [executor.submit(task, i) for i in range(threads)]
        return [future.result() for future in futures]


def corpus():
    """Mixed-fragment workloads: every Table-1 route is represented."""
    chain = lookup_chain_workload(3)
    return [
        (university_schema(ud_bound=100), "Udirectory(i, a, p)"),
        (university_schema(ud_bound=100), "Prof(i, n, 10000)"),
        (chain.schema, "L0(x, y), L1(x, z)"),
        (chain.schema, "L2(x, y)"),
        (fd_determinacy_workload(4).schema, fd_determinacy_workload(4).query),
        (uid_fd_workload(3).schema, uid_fd_workload(3).query),
        (tgd_transfer_workload(3).schema, tgd_transfer_workload(3).query),
        (id_chain_workload(6).schema, "R0(x)"),
    ]


class TestSharedSession:
    def test_threads_on_one_session_match_sequential(self):
        for schema, query in corpus():
            compiled = compile_schema(schema)
            baseline = normalized(Session(compiled).decide(query).to_dict())
            shared = Session(compiled)

            def work(index, shared=shared, query=query):
                return [
                    normalized(shared.decide(query).to_dict())
                    for __ in range(3)
                ]

            for responses in hammer(THREADS, work):
                assert all(r == baseline for r in responses)

    def test_decision_cache_eviction_race_stays_consistent(self):
        # A tiny LRU hammered with more distinct queries than it holds:
        # every thread races insert against eviction on every call.
        schema = id_chain_workload(7).schema
        queries = [f"R{i}(x)" for i in range(8)]
        compiled = compile_schema(schema)
        baselines = {
            q: normalized(Session(compiled).decide(q).to_dict())
            for q in queries
        }
        shared = Session(compiled, cache_size=2)

        def work(index):
            ordered = queries[index:] + queries[:index]
            return all(
                normalized(shared.decide(q).to_dict()) == baselines[q]
                for __ in range(3)
                for q in ordered
            )

        assert all(hammer(THREADS, work))

    def test_cold_compiled_schema_thundering_herd_builds_once(self):
        schema = uid_fd_workload(3).schema
        query = uid_fd_workload(3).query
        compiled = compile_schema(schema)
        session = Session(compiled)
        results = hammer(
            THREADS, lambda i: normalized(session.decide(query).to_dict())
        )
        assert len(set(results)) == 1
        # Every frozen artifact was built exactly once despite the herd.
        assert all(count == 1 for count in compiled.stats.values()), (
            compiled.stats
        )


class TestSharedCompiledSchema:
    def test_private_sessions_over_one_compiled_schema(self):
        for schema, query in corpus():
            compiled = compile_schema(schema)
            baseline = normalized(Session(compiled).decide(query).to_dict())
            results = hammer(
                THREADS,
                lambda i: normalized(
                    Session(compiled).decide(query).to_dict()
                ),
            )
            assert set(results) == {baseline}


class TestSharedPool:
    def _requests(self):
        return [
            DecideRequest(query=str(query) if isinstance(query, str)
                          else ", ".join(
                              f"{a.relation}({', '.join(map(str, a.terms))})"
                              for a in query.atoms),
                          schema=schema_to_dict(schema))
            for schema, query in corpus()
        ]

    def test_concurrent_mixed_fingerprints_match_sequential(self):
        requests = self._requests()
        serial = [
            normalized(SessionPool().process(r).to_dict())
            for r in requests
        ]
        pool = SessionPool()

        def work(index):
            # Each thread walks the mixed-fingerprint list from its own
            # offset, so different fingerprints collide at every step.
            ordered = requests[index:] + requests[:index]
            return {
                id(request): normalized(pool.process(request).to_dict())
                for request in ordered
            }

        expected = {
            id(request): serial[i] for i, request in enumerate(requests)
        }
        for result in hammer(THREADS, work):
            assert result == expected

    def test_pool_under_eviction_pressure_stays_correct(self):
        requests = self._requests()
        serial = [
            normalized(SessionPool().process(r).to_dict())
            for r in requests
        ]
        # Fewer live fingerprints than distinct schemas: constant
        # eviction and recompilation under concurrency.
        pool = SessionPool(max_fingerprints=2)

        def work(index):
            ordered = requests[index:] + requests[:index]
            return [
                normalized(pool.process(request).to_dict())
                for request in ordered
            ]

        expected = {
            normalized(SessionPool().process(r).to_dict())
            for r in requests
        }
        assert set(serial) == expected
        for result in hammer(THREADS, work):
            assert set(result) == expected
        assert pool.stats()["counters"]["evictions"] > 0


@pytest.mark.slow
class TestRandomizedSweep:
    def test_random_id_schemas_concurrent_equals_sequential(self):
        rng = random.Random(2026)
        for __ in range(40):
            seed = rng.randrange(10_000)
            workload = random_id_workload(seed)
            query = ", ".join(
                f"{a.relation}({', '.join(map(str, a.terms))})"
                for a in workload.query.atoms
            )
            compiled = compile_schema(workload.schema)
            baseline = normalized(
                Session(compiled).decide(query).to_dict()
            )
            shared = Session(compiled)
            results = hammer(
                THREADS,
                lambda i: normalized(shared.decide(query).to_dict()),
            )
            assert set(results) == {baseline}, f"seed {seed} diverged"

    def test_random_mixed_pool_traffic_sweep(self):
        rng = random.Random(4091)
        workloads = [random_id_workload(rng.randrange(10_000))
                     for __ in range(12)]
        requests = [
            DecideRequest(
                query=", ".join(
                    f"{a.relation}({', '.join(map(str, a.terms))})"
                    for a in w.query.atoms
                ),
                schema=schema_to_dict(w.schema),
            )
            for w in workloads
        ]
        serial = {
            id(r): normalized(SessionPool().process(r).to_dict())
            for r in requests
        }
        pool = SessionPool(max_fingerprints=6)

        def work(index):
            local = random.Random(index)
            mine = local.sample(requests, len(requests)) * 3
            return all(
                normalized(pool.process(r).to_dict()) == serial[id(r)]
                for r in mine
            )

        assert all(hammer(THREADS, work))
