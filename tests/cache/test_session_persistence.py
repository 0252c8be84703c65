"""Session-level persistence: the durable decision cache.

A `Session` bound to an `ArtifactStore` writes every clean decision
and plan through to the store and load-throughs on memory misses — so
a *fresh* session (new process, cold LRU) over the same store serves
the same responses without recomputing.  The durable key includes the
fingerprint, the canonical query, and every limit that can change the
answer.  Decisions and plans are the only durable answers: the ID
route's rewritings stay in memory.
"""

import hashlib
import json
import sqlite3
from contextlib import closing

from repro.cache import (
    STORE_FILENAME,
    ArtifactStore,
    MemoryKVStore,
    encode_envelope,
    open_directory,
)
from repro.io import DecideResponse, schema_to_dict
from repro.logic.terms import Variable
from repro.server import SessionLimits, SessionPool
from repro.service import Session, compile_schema
from repro.workloads import (
    id_chain_workload,
    lookup_chain_workload,
    university_schema,
)


def _rows(path) -> list:
    """Every row of a store file, read with plain SQL."""
    with closing(sqlite3.connect(path)) as conn:
        return sorted(conn.execute("SELECT * FROM cache").fetchall())


def normalized(payload: dict) -> str:
    payload = dict(payload)
    payload.pop("elapsed_ms", None)
    payload.pop("cached", None)
    return json.dumps(payload, sort_keys=True)


class TestDurableDecide:
    def test_fresh_session_serves_from_store(self):
        store = ArtifactStore(MemoryKVStore())
        compiled = compile_schema(university_schema())
        query = "Q(n) :- Prof(i, n, 10000)"

        first = Session(compiled, store=store)
        cold = first.decide(query)
        assert cold.cached is False

        second = Session(compiled, store=store)
        warm = second.decide(query)
        assert warm.cached is True
        assert second.durable_hits == 1
        assert normalized(warm.to_dict()) == normalized(cold.to_dict())
        # The load-through populated the memory LRU: the next lookup
        # does not touch the store again.
        hits_before = store.stats()["tiers"]["decision"]["hits"]
        second.decide(query)
        assert store.stats()["tiers"]["decision"]["hits"] == hits_before

    def test_survives_store_reopen_on_disk(self, tmp_path):
        compiled = compile_schema(id_chain_workload(4).schema)
        store = open_directory(tmp_path / "cache")
        cold = Session(compiled, store=store).decide("R0(x)")
        store.close()

        reopened = open_directory(tmp_path / "cache")
        try:
            warm = Session(compiled, store=reopened).decide("R0(x)")
            assert warm.cached is True
            assert normalized(warm.to_dict()) == normalized(cold.to_dict())
        finally:
            reopened.close()

    def test_limits_partition_the_durable_space(self):
        # A decision computed under one disjunct budget must not be
        # served to a session running under another.
        store = ArtifactStore(MemoryKVStore())
        compiled = compile_schema(id_chain_workload(4).schema)
        Session(compiled, store=store).decide("R0(x)")
        other = Session(compiled, store=store, max_disjuncts=7)
        response = other.decide("R0(x)")
        assert response.cached is False
        assert other.durable_hits == 0

    def test_finite_and_classical_keys_differ(self):
        store = ArtifactStore(MemoryKVStore())
        compiled = compile_schema(university_schema())
        query = "Q() :- Prof(i, n, s)"
        Session(compiled, store=store).decide(query)
        fresh = Session(compiled, store=store)
        assert fresh.decide(query, finite=True).cached is False

    def test_budget_errors_are_never_persisted(self):
        store = ArtifactStore(MemoryKVStore())
        compiled = compile_schema(id_chain_workload(6).schema)
        constrained = Session(compiled, store=store, max_disjuncts=1)
        response = constrained.decide("R0(x)")
        assert response.error is not None
        assert store.stats()["tiers"].get("decision", {}).get(
            "writes", 0
        ) == 0
        # And a fresh session recomputes (and re-hits the limit).
        again = Session(compiled, store=store, max_disjuncts=1).decide(
            "R0(x)"
        )
        assert again.cached is False
        assert again.error is not None

    def test_cache_info_and_stats_report_the_store(self):
        store = ArtifactStore(MemoryKVStore())
        session = Session(
            compile_schema(university_schema()), store=store
        )
        assert session.cache_info()["durable_hits"] == 0
        assert session.stats()["store"]["tiers"] == {}
        bare = Session(compile_schema(university_schema()))
        assert "durable_hits" not in bare.cache_info()
        assert "store" not in bare.stats()


class TestDurablePlan:
    def test_plan_round_trips_through_the_store(self):
        store = ArtifactStore(MemoryKVStore())
        chain = lookup_chain_workload(3)
        compiled = compile_schema(chain.schema)
        query = "Q() :- L0(x, y), L1(y, z)"

        cold = Session(compiled, store=store).plan(query)
        warm_session = Session(compiled, store=store)
        warm = warm_session.plan(query)
        assert warm.cached is True
        assert warm_session.durable_hits == 1
        assert normalized(warm.to_dict()) == normalized(cold.to_dict())

    def test_fingerprint_mismatch_entries_are_rejected(self):
        # An entry stored under the wrong namespace content (e.g. a
        # hand-edited store) must not be served: the payload's own
        # fingerprint is checked against the session's.
        store = ArtifactStore(MemoryKVStore())
        compiled = compile_schema(university_schema())
        session = Session(compiled, store=store)
        foreign = session.decide("Q() :- Udirectory(i, a, p)").to_dict()
        foreign["fingerprint"] = "0" * 64
        forged_key = session._durable_key("decide", "forged")
        store.store(
            "decision",
            f"decision:{compiled.fingerprint}",
            forged_key,
            foreign,
        )
        fresh = Session(compiled, store=store)
        assert fresh._durable_load(
            forged_key, DecideResponse.from_dict
        ) is None
        assert fresh.durable_hits == 0


def _write_legacy_rewrite_rows(store, compiled) -> tuple:
    """Persist every rewriting ``compiled``'s engine holds the way
    earlier builds did: tier ``rewrite``, namespace
    ``rewrite:{fingerprint}:sub``, keyed by the digest of the canonical
    start state.  Returns the namespace and the keys written."""
    def term(t):
        return ["v", t.name] if isinstance(t, Variable) else ["c", t.value]

    namespace = f"rewrite:{compiled.fingerprint}:sub"
    keys = []
    for start, (frontier, disjuncts) in (
        compiled.rewrite_engine()._results.items()
    ):
        key = hashlib.sha256(
            ";".join(repr(a) for a in start).encode("utf-8")
        ).hexdigest()
        wire = [
            [[a.relation, [term(t) for t in a.terms]] for a in state]
            for state in disjuncts
        ]
        payload = {"frontier": frontier, "disjuncts": wire}
        store.kv.put(namespace, key, encode_envelope("rewrite", payload))
        keys.append(key)
    return namespace, keys


class TestSingleDurableTier:
    QUERIES = ("R0(x)", "R1(x)", "Q() :- R0(x), R2(y)")

    def test_id_route_writes_only_the_decision_tier(self, tmp_path):
        store = open_directory(tmp_path / "cache")
        compiled = compile_schema(id_chain_workload(4).schema)
        session = Session(compiled, store=store)
        try:
            for query in self.QUERIES:
                assert session.decide(query).route == "linearization"
        finally:
            store.close()
        assert compiled.engine_stats()["rewrites"] > 0
        tiers = store.stats()["tiers"]
        assert set(tiers) == {"decision"}
        assert tiers["decision"]["writes"] == len(self.QUERIES)
        rows = _rows(tmp_path / "cache" / STORE_FILENAME)
        assert {namespace for namespace, *__ in rows} == {
            f"decision:{compiled.fingerprint}"
        }

    def test_legacy_rewrite_rows_leave_decisions_hitting(self, tmp_path):
        schema = id_chain_workload(4).schema
        fresh = [
            normalized(Session(schema).decide(query).to_dict())
            for query in self.QUERIES
        ]
        store = open_directory(tmp_path / "cache")
        writer = compile_schema(schema)
        for query in self.QUERIES:
            Session(writer, store=store).decide(query)
        namespace, keys = _write_legacy_rewrite_rows(store, writer)
        assert keys
        store.close()

        reopened = open_directory(tmp_path / "cache")
        try:
            session = Session(compile_schema(schema), store=reopened)
            served = [session.decide(query) for query in self.QUERIES]
            assert all(response.cached for response in served)
            assert session.durable_hits == len(self.QUERIES)
            assert [
                normalized(response.to_dict()) for response in served
            ] == fresh
            # The old rows are neither read nor purged.
            assert "rewrite" not in reopened.stats()["tiers"]
            assert sorted(reopened.kv.scan(namespace)) == sorted(keys)
        finally:
            reopened.close()


#: The ``cache`` table as builds with per-entry expiry created it: one
#: more, nullable ``expires_at`` column than the current layout.
PARENT_TABLE = (
    "CREATE TABLE cache ("
    "  namespace TEXT NOT NULL,"
    "  key TEXT NOT NULL,"
    "  value BLOB NOT NULL,"
    "  expires_at REAL,"
    "  PRIMARY KEY (namespace, key)"
    ")"
)


class TestParentLayout:
    QUERIES = TestSingleDurableTier.QUERIES

    def test_parent_written_store_hits_and_rewarms(self, tmp_path):
        schema = id_chain_workload(4).schema
        fresh = [
            normalized(Session(schema).decide(query).to_dict())
            for query in self.QUERIES
        ]
        # Stage the rows in memory, then write them into a file laid
        # out the way the earlier build laid it out.
        staging = ArtifactStore(MemoryKVStore())
        writer_pool = SessionPool(limits=SessionLimits(), store=staging)
        writer_pool.warm(schema_to_dict(university_schema()))
        writer = compile_schema(schema)
        writer_pool.warm(writer)
        for query in self.QUERIES:
            Session(writer, store=staging).decide(query)
        rewrite_namespace, __ = _write_legacy_rewrite_rows(staging, writer)
        namespaces = (
            f"decision:{writer.fingerprint}", "warmset", rewrite_namespace
        )
        path = tmp_path / "cache" / STORE_FILENAME
        path.parent.mkdir()
        with closing(sqlite3.connect(path)) as conn:
            conn.execute(PARENT_TABLE)
            conn.executemany(
                "INSERT INTO cache VALUES (?, ?, ?, NULL)",
                [
                    (namespace, key, staging.kv.get(namespace, key))
                    for namespace in namespaces
                    for key in staging.kv.scan(namespace)
                ],
            )
            conn.commit()
        before = _rows(path)
        assert {row[0] for row in before} == set(namespaces)

        reopened = open_directory(path.parent)
        try:
            session = Session(compile_schema(schema), store=reopened)
            served = [session.decide(query) for query in self.QUERIES]
            assert session.durable_hits == len(self.QUERIES)
            assert [
                normalized(response.to_dict()) for response in served
            ] == fresh
            restarted = SessionPool(limits=SessionLimits(), store=reopened)
            assert restarted.warm_from_store() == 2
            assert sorted(restarted.fingerprints()) == sorted(
                writer_pool.fingerprints()
            )
        finally:
            reopened.close()
        # Nothing was purged, rewritten or migrated.
        assert _rows(path) == before
