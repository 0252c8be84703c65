"""The event-loop cache lookup (`SessionPool.lookup` / `Session.lookup`).

A decide or plan frame on a schema spelling the pool knows (live or
recalled) is looked up on the server's event loop: exact text, then
parse and canonical key, then the session's LRU, then the durable
store.  A hit is served right there, without the compile or the
executor hop; a miss goes to a decision thread with its parsed state.
These tests pin that the loop-served reply and every counter are
exactly what the executor path would have produced, that quotas still
apply, that a miss is parsed once, and that the lookup never blocks the
loop on the pool lock.
"""

import asyncio
import json
import random
import sys
import threading

import pytest

from repro.cache import ArtifactStore, MemoryKVStore
from repro.io import schema_to_dict
from repro.logic.parser import parse_cq
from repro.obs.registry import MetricsRegistry
from repro.server import DecideServer, SessionPool
from repro.service import QuerySchemaError, Session
from repro.service.session import MAX_TEXTS_PER_ENTRY, Miss
from repro.workloads import (
    fd_determinacy_workload,
    id_width_workload,
    lookup_chain_workload,
    tgd_transfer_workload,
    uid_fd_workload,
    university_schema,
)

#: One workload per Table 1 route.
ROUTES = [
    ("fds", fd_determinacy_workload(3)),
    ("fds-undet", fd_determinacy_workload(3, ask_undetermined=True)),
    ("ids", lookup_chain_workload(3, dump_bound=None)),
    ("ids-bounded", lookup_chain_workload(3, dump_bound=5)),
    ("bounded-width", id_width_workload(2)),
    ("uids-fds", uid_fd_workload(3)),
    ("uids-nofd", uid_fd_workload(3, with_fd=False)),
    ("tgds", tgd_transfer_workload(3)),
]


def run(coroutine):
    return asyncio.run(coroutine)


def frame(workload, **extra) -> bytes:
    payload = {
        "query": repr(workload.query),
        "schema": schema_to_dict(workload.schema),
        **extra,
    }
    return json.dumps(payload).encode("utf-8") + b"\n"


def without_lookup(pool: SessionPool) -> SessionPool:
    """Force every frame onto the executor path."""
    pool.lookup = lambda request, text_key=None: None
    return pool


def comparable(reply: dict) -> dict:
    return {k: v for k, v in reply.items() if k != "elapsed_ms"}


async def replies(server: DecideServer, lines: list) -> list:
    got = []
    for line in lines:
        # Answered on the spot (bytes) or on the executor (awaitable).
        reply = server._process_line(line, "peer")
        if not isinstance(reply, bytes):
            reply = await reply
        got.append(json.loads(reply))
    return got


class TestSameReplies:
    @pytest.mark.parametrize(
        "name,workload", ROUTES, ids=[name for name, __ in ROUTES]
    )
    def test_loop_reply_equals_executor_reply(self, name, workload):
        lines = [
            frame(workload, id=1),
            frame(workload, id=2),
            frame(workload, op="plan", id=3),
            frame(workload, op="plan", id=4),
        ]

        async def scenario(pool):
            server = await DecideServer(pool, port=0).start()
            try:
                got = await replies(server, lines)
                return got, server.server_stats()["loop_hits"]
            finally:
                await server.close()

        # The executor path lands every repeat on the fingerprint's one
        # session, which cached the first.
        loop, loop_hits = run(scenario(SessionPool()))
        executor, executor_hits = run(
            scenario(without_lookup(SessionPool()))
        )
        assert (loop_hits, executor_hits) == (2, 0)
        assert loop[1]["cached"] is True and loop[3]["cached"] is True
        assert [comparable(r) for r in loop] == [
            comparable(r) for r in executor
        ]
        # ... and equal to a hit through the canonical-form key, which
        # a query object (no text) always takes.
        session = Session(workload.schema)
        parsed = parse_cq(repr(workload.query))
        session.decide(parsed)
        canonical = session.decide(parsed).to_dict()
        canonical["id"] = 2
        assert comparable(loop[1]) == comparable(canonical)


class TestAccounting:
    def test_counters_match_the_executor_path(self):
        workloads = [workload for __, workload in ROUTES[:4]]
        lines = [frame(w) for w in workloads] * 3 + [
            b'{"query": "Udirectory(i, a, p)"}\n',
            b'{"query": "Udirectory(i, a, p)"}\n',
        ]

        async def scenario(pool):
            server = await DecideServer(pool, port=0).start()
            try:
                await replies(server, lines)
                return pool.stats(), server.server_stats()
            finally:
                await server.close()

        def pool_of():
            return SessionPool(university_schema(ud_bound=100))

        loop_stats, loop_server = run(scenario(pool_of()))
        exec_stats, exec_server = run(scenario(without_lookup(pool_of())))
        # Every repeat is a loop hit, and so is the first "fds-undet"
        # frame: its query is an alpha variant of the "fds" one on the
        # same schema, answered through the canonical key.
        assert loop_server["loop_hits"] == 2 * len(workloads) + 2
        assert exec_server["loop_hits"] == 0
        assert loop_stats["counters"] == exec_stats["counters"]
        assert loop_stats["per_fingerprint"] == exec_stats["per_fingerprint"]
        for ours, theirs in zip(loop_stats["sessions"], exec_stats["sessions"]):
            assert ours["requests"] == theirs["requests"]
            assert ours["cache"] == theirs["cache"]
        assert loop_server["responses"] == exec_server["responses"]

    def test_rate_quota_sheds_would_be_loop_hits(self):
        async def scenario():
            pool = SessionPool(university_schema(ud_bound=100))
            server = await DecideServer(
                pool, port=0, client_rate=0.1, client_burst=2.0
            ).start()
            try:
                line = b'{"query": "Udirectory(i, a, p)"}\n'
                got = await replies(server, [line] * 5)
                return got, server.server_stats()
            finally:
                await server.close()

        got, stats = run(scenario())
        assert [("decision" in r) for r in got] == [True, True] + [False] * 3
        assert all(r["error"]["type"] == "Overloaded" for r in got[2:])
        assert stats["loop_hits"] == 1
        assert stats["overloaded"] == 3

    def test_expired_deadline_hit_is_still_served(self):
        async def scenario():
            pool = SessionPool(university_schema(ud_bound=100))
            server = await DecideServer(pool, port=0).start()
            try:
                first, late = await replies(
                    server,
                    [
                        b'{"query": "Udirectory(i, a, p)"}\n',
                        b'{"query": "Udirectory(i, a, p)", '
                        b'"deadline_ms": 1e-06}\n',
                    ],
                )
                return first, late, server.server_stats()
            finally:
                await server.close()

        first, late, stats = run(scenario())
        assert first["decision"] == late["decision"] == "yes"
        assert late["cached"] is True
        assert stats["loop_hits"] == 1
        assert stats["deadline_exceeded"] == 0


class TestOnTheSpot:
    def test_loop_answers_are_bytes_and_only_misses_await(self):
        # What the loop answers itself comes back as the reply line, so
        # the connection writes it without a Task; only the executor
        # path returns an awaitable.
        hot = b'{"query": "Udirectory(i, a, p)", "id": 1}\n'

        async def scenario():
            pool = SessionPool(university_schema(ud_bound=100))
            server = await DecideServer(pool, port=0).start()
            try:
                miss = server._process_line(hot, "peer")
                assert not isinstance(miss, bytes)
                decided = json.loads(await miss)
                spot = [
                    server._process_line(each, "peer")
                    for each in (
                        hot,
                        hot,
                        b'{"op": "ping"}\n',
                        b"{not json\n",
                        b'{"op": "stats"}\n',
                    )
                ]
                return decided, spot, server.server_stats()
            finally:
                await server.close()

        decided, spot, stats = run(scenario())
        assert decided["decision"] == "yes" and decided["cached"] is False
        assert all(isinstance(reply, bytes) for reply in spot)
        hit, again, pong, bad, __ = (json.loads(reply) for reply in spot)
        assert hit["cached"] is True and hit["id"] == 1
        assert comparable(again) == comparable(hit)
        assert pong == {"op": "pong"}
        assert "error" in bad
        # The hot line was decoded on its first two sightings and
        # served from the frame memo on its third; the malformed line
        # never counts as decoded.
        assert stats["frames"] == 6
        assert (stats["frames_parsed"], stats["memo_hits"]) == (4, 1)


class TestNeverBlocks:
    def test_ping_answered_while_a_compile_holds_the_pool_lock(
        self, monkeypatch
    ):
        pool = SessionPool(university_schema(ud_bound=100))
        building = threading.Event()
        release = threading.Event()
        original = SessionPool._build

        def slow_build(schema):
            building.set()
            release.wait(10)
            return original(schema)

        monkeypatch.setattr(SessionPool, "_build", staticmethod(slow_build))
        other = schema_to_dict(lookup_chain_workload(2).schema)
        hot = b'{"query": "Udirectory(i, a, p)", "id": "hot"}\n'

        async def exchange(address, line):
            reader, writer = await asyncio.open_connection(*address)
            writer.write(line)
            await writer.drain()
            return reader, writer

        async def scenario():
            server = await DecideServer(pool, port=0).start()
            compiling = None
            try:
                await replies(server, [hot])  # now a loop hit
                compiling = threading.Thread(
                    target=pool.session, args=(other,)
                )
                compiling.start()
                assert await asyncio.to_thread(building.wait, 30)
                hot_conn = await exchange(server.address, hot)
                ping_conn = await exchange(
                    server.address, b'{"op": "ping", "id": "p"}\n'
                )
                pong = await asyncio.wait_for(ping_conn[0].readline(), 10)
                # Answered while the compile still holds the lock: the
                # hot frame could not take it, so it waits on the
                # executor path, not on the loop.
                assert compiling.is_alive()
                release.set()
                decided = await asyncio.wait_for(hot_conn[0].readline(), 30)
                for __, writer in (hot_conn, ping_conn):
                    writer.close()
                return json.loads(pong), json.loads(decided), (
                    server.server_stats()
                )
            finally:
                release.set()
                if compiling is not None:
                    compiling.join(30)
                await server.close()

        pong, decided, stats = run(scenario())
        assert pong == {"op": "pong", "id": "p"}
        assert decided["decision"] == "yes" and decided["cached"] is True
        assert decided["id"] == "hot"
        assert stats["loop_hits"] == 0


class TestSessionLookup:
    def test_miss_counts_one_miss_and_resolve_counts_none(self):
        session = Session(university_schema(ud_bound=100))
        miss = session.lookup("decide", "Udirectory(i, a, p)")
        assert isinstance(miss, Miss) and miss.session is session
        assert session.cache_info()["misses"] == 1
        response = session.resolve(miss)
        assert response.decision == "yes" and response.cached is False
        assert session.cache_info()["misses"] == 1
        assert session.lookup("decide", "Udirectory(i, a, p)").cached

    def test_text_key_lives_and_dies_with_its_entry(self):
        session = Session(university_schema(ud_bound=100), cache_size=1)
        session.decide("Udirectory(i, a, p)")
        assert session.lookup("decide", "Udirectory(i, a, p)").cached
        assert isinstance(
            session.lookup("decide", "Udirectory(i, a, p)", True), Miss
        )
        assert isinstance(session.lookup("plan", "Udirectory(i, a, p)"), Miss)
        session.decide("Prof(i, n, 10000)")  # evicts the first entry
        assert ("decide", "Udirectory(i, a, p)", False) not in session._texts
        assert isinstance(
            session.lookup("decide", "Udirectory(i, a, p)"), Miss
        )
        assert session.lookup("decide", "Prof(i, n, 10000)").cached

    def test_alpha_variants_share_the_entry_under_their_own_texts(self):
        session = Session(university_schema(ud_bound=100))
        texts = [f"Udirectory(i{n}, a, p)" for n in range(6)]
        replies = [session.decide(text) for text in texts]
        assert [reply.cached for reply in replies] == [False] + [True] * 5
        assert session.cache_info()["size"] == 1
        # The newest texts are exact-text keys; the oldest made room
        # past the per-entry cap.
        kept = texts[-MAX_TEXTS_PER_ENTRY:]
        assert {text for __, text, ___ in session._texts} == set(kept)
        # Every text hits (the evicted ones through the canonical key),
        # each with its own parsed repr.
        for text, reply in zip(texts, replies):
            hit = session.lookup("decide", text)
            assert hit.cached and hit.query == reply.query
            assert comparable(hit.to_dict()) == comparable(
                {**reply.to_dict(), "cached": True}
            )

    def test_uncacheable_sessions_never_hit(self):
        session = Session(university_schema(ud_bound=100), cache_size=0)
        session.decide("Udirectory(i, a, p)")
        assert isinstance(
            session.lookup("decide", "Udirectory(i, a, p)"), Miss
        )

    def test_misfit_query_raises_before_any_cache(self):
        session = Session(university_schema(ud_bound=100))
        with pytest.raises(QuerySchemaError):
            session.lookup("decide", "Udirectory(i, a)")
        assert session.cache_info()["misses"] == 0

    def test_text_index_survives_racing_threads(self):
        # More threads than cores race decide/lookup on alpha variants
        # against a 2-entry LRU, so inserts, relinks and evictions
        # interleave.  A lost update would break the hit/miss count or
        # leave the text index out of step with the entries.
        oracle = Session(university_schema(ud_bound=100))
        bases = [
            "Udirectory({v}, a, p)",
            "Prof({v}, n, 10000)",
            "Q() :- Udirectory({v}, a, p), Prof({v}, n, s)",
        ]
        texts = [
            (base.format(v=f"i{n}"), oracle.decide(base.format(v="i")).decision)
            for base in bases
            for n in range(6)
        ]
        session = Session(university_schema(ud_bound=100), cache_size=2)
        decides = [0] * 8
        lookups = [0] * 8
        wrong = []
        errors = []

        def hammer(index: int) -> None:
            rng = random.Random(index)
            try:
                for __ in range(150):
                    text, decision = rng.choice(texts)
                    if rng.random() < 0.5:
                        reply = session.lookup("decide", text)
                        lookups[index] += 1
                        if isinstance(reply, Miss):
                            reply = session.resolve(reply)
                    else:
                        reply = session.decide(text)
                        decides[index] += 1
                    if reply.decision != decision:
                        wrong.append((text, reply.decision))
            except Exception as error:  # reported on the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=hammer, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert not wrong
        info = session.cache_info()
        # Every decide and every lookup counts one hit or one miss;
        # resolving a miss counts nothing.
        assert info["hits"] + info["misses"] == sum(decides) + sum(lookups)
        with session._lock:
            linked = {
                text: key
                for key, (__, entry_texts) in session._cache.items()
                for text in entry_texts
            }
            indexed = {
                text: key for text, (key, __) in session._texts.items()
            }
        assert linked == indexed
        assert info["size"] <= 2


def stage_counts(registry: MetricsRegistry) -> dict:
    """Observations per stage in ``repro_request_stage_ms``."""
    histograms = registry.snapshot()["histograms"]
    series = histograms.get("repro_request_stage_ms", {"series": []})
    return {s["labels"]["stage"]: s["count"] for s in series["series"]}


class TestLoopLookup:
    """Hits beyond the exact text — the canonical key, the durable store,
    recalled fingerprints — are answered on the loop; misses cross to a
    decision thread with their parsed state."""

    FIRST = lookup_chain_workload(2)
    SECOND = lookup_chain_workload(3)

    def recalled_scenario(self, line: bytes, registry=None):
        """Decide FIRST, evict it with SECOND, then send ``line`` on a
        fresh `pool.process` spy.  Returns the pool, the store, the
        reply to ``line`` (bytes when the loop answered), the loop hits
        it added, the `process` calls it made and the stage counts it
        added."""
        store = ArtifactStore(MemoryKVStore())
        pool = SessionPool(store=store, max_fingerprints=1)
        entered = []
        process = pool.process

        def spy(*args, **kwargs):
            entered.append(args)
            return process(*args, **kwargs)

        async def scenario():
            server = await DecideServer(
                pool, port=0, metrics=registry
            ).start()
            try:
                await replies(server, [frame(self.FIRST), frame(self.SECOND)])
                pool.process = spy
                hits = server.server_stats()["loop_hits"]
                stages = stage_counts(registry) if registry else {}
                reply = server._process_line(line, "peer")
                added = {
                    name: count - stages.get(name, 0)
                    for name, count in (
                        stage_counts(registry) if registry else {}
                    ).items()
                }
                return (
                    reply,
                    server.server_stats()["loop_hits"] - hits,
                    added,
                )
            finally:
                await server.close()

        reply, loop_hits, stages = run(scenario())
        return pool, store, reply, loop_hits, entered, stages

    def test_recalled_fingerprint_is_answered_from_the_store(self):
        pool, store, reply, loop_hits, entered, __ = self.recalled_scenario(
            frame(self.FIRST, id="back")
        )
        assert isinstance(reply, bytes)
        answer = json.loads(reply)
        assert answer["cached"] is True and answer["id"] == "back"
        expected = "yes" if self.FIRST.expected_answerable else "no"
        assert answer["decision"] == expected
        assert loop_hits == 1 and entered == []
        assert pool.stats()["counters"]["fingerprints_recalled"] == 1
        assert store.stats()["tiers"]["decision"]["hits"] == 1
        [entry] = pool._entries.values()
        assert entry.session.durable_hits == 1
        # Served without parsing the recalled schema.
        assert "schema" not in entry.compiled.stats

    def test_loop_answered_durable_hit_records_parse_and_persist(self):
        registry = MetricsRegistry()
        *__, loop_hits, ___, stages = self.recalled_scenario(
            frame(self.FIRST), registry
        )
        assert loop_hits == 1
        assert stages["parse"] == 1 and stages["persist"] == 1
        assert stages.get("queue", 0) == 0

    def test_misfit_query_on_a_recalled_entry_is_refused_on_the_loop(self):
        line = json.dumps(
            {
                "query": "L0(x)",
                "schema": schema_to_dict(self.FIRST.schema),
                "id": "bad",
            }
        ).encode("utf-8") + b"\n"
        pool, store, reply, loop_hits, entered, __ = self.recalled_scenario(
            line
        )
        assert isinstance(reply, bytes)
        error = json.loads(reply)
        assert error["error"]["type"] == "QuerySchemaError"
        assert error["id"] == "bad"
        assert loop_hits == 0 and entered == []
        assert pool.stats()["counters"]["fingerprints_recalled"] == 1
        [entry] = pool._entries.values()
        assert entry.session.cache_info()["misses"] == 0
        assert "schema" not in entry.compiled.stats

    def test_a_cold_miss_is_parsed_once(self, monkeypatch):
        from repro.service import session as session_module

        texts = []
        parse = session_module.parse_cq

        def counting(text):
            texts.append(text)
            return parse(text)

        monkeypatch.setattr(session_module, "parse_cq", counting)
        pool = SessionPool(university_schema(ud_bound=100))

        async def scenario():
            server = await DecideServer(pool, port=0).start()
            try:
                reply = server._process_line(
                    b'{"query": "Prof(i, n, 10000)"}\n', "peer"
                )
                assert not isinstance(reply, bytes)
                return json.loads(await reply)
            finally:
                await server.close()

        reply = run(scenario())
        assert reply["decision"] == "no" and reply["cached"] is False
        assert texts == ["Prof(i, n, 10000)"]
