"""In-process battery for the `FleetDispatcher`.

Real `DecideServer` workers in the same event loop (no subprocesses —
the process-level plumbing lives in ``test_fleet_process.py``), a real
dispatcher in front, real TCP both hops.  Covers routing stickiness,
learned-fingerprint convergence, the byte relay (reply lines pass
through undecoded, repeated frames parse once per process, frames take
the least busy channel), the fault invariant (worker loss → typed
retryable `WorkerLost`, never a wrong answer or hang), ring
re-admission, aggregated stats, and — for the dispatcher and a bare
server alike — drain and framing.
"""

import asyncio
import contextlib
import json
import re
import socket
import sys
import threading
from pathlib import Path

import pytest

from repro.io import schema_to_dict
from repro.server import DecideServer, FleetDispatcher, SessionPool
from repro.server import fleet as fleet_module
from repro.server.lines import MAX_FRAME_BYTES, READ_CHUNK_BYTES, SETTLE_S
from repro.workloads import (
    id_chain_workload,
    lookup_fanout_workload,
    university_schema,
)

UNIVERSITY_QUERY = "Udirectory(i,a,p)"

# The loop-probe tests' table: one workload per Table 1 route.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "server"))
from test_loop_probe import ROUTES  # noqa: E402

ELAPSED = re.compile(rb'"elapsed_ms": [-+.eE0-9]+')


def without_elapsed(lines: list) -> list:
    return [ELAPSED.sub(b'"elapsed_ms": _', line) for line in lines]


def run(coroutine):
    return asyncio.run(coroutine)


async def started_worker(**kwargs) -> DecideServer:
    pool = kwargs.pop("pool", None)
    if pool is None:
        pool = SessionPool(university_schema(ud_bound=100))
    server = DecideServer(pool, port=0, **kwargs)
    return await server.start()


async def started_dispatcher(
    workers: dict[str, DecideServer], **kwargs
) -> FleetDispatcher:
    dispatcher = FleetDispatcher(port=0, **kwargs)
    await dispatcher.start()
    for worker_id, server in workers.items():
        host, port = server.address
        await dispatcher.add_worker(worker_id, host, port)
    return dispatcher


async def exchange(dispatcher: FleetDispatcher, frames: list) -> list:
    """Send all frames on one client connection; one reply each."""
    host, port = dispatcher.address
    reader, writer = await asyncio.open_connection(host, port)
    for frame in frames:
        text = frame if isinstance(frame, str) else json.dumps(frame)
        writer.write(text.encode("utf-8") + b"\n")
    await writer.drain()
    replies = []
    for __ in frames:
        line = await asyncio.wait_for(reader.readline(), timeout=30)
        replies.append(json.loads(line))
    writer.close()
    await writer.wait_closed()
    return replies


async def shutdown(
    dispatcher: FleetDispatcher, *servers: DecideServer
) -> None:
    await dispatcher.close(drain_timeout=5)
    for server in servers:
        await server.close()


class TestProtocol:
    def test_ping_is_answered_locally(self):
        async def scenario():
            dispatcher = await started_dispatcher({})
            try:
                return await exchange(dispatcher, [{"op": "ping", "id": 9}])
            finally:
                await shutdown(dispatcher)

        (pong,) = run(scenario())
        assert pong == {"op": "pong", "id": 9}

    def test_decide_and_plan_forward_through_a_worker(self):
        async def scenario():
            worker = await started_worker()
            dispatcher = await started_dispatcher({"w0": worker})
            try:
                return await exchange(
                    dispatcher,
                    [
                        {"query": UNIVERSITY_QUERY, "id": 1},
                        {"op": "plan", "query": UNIVERSITY_QUERY, "id": 2},
                    ],
                )
            finally:
                await shutdown(dispatcher, worker)

        decided, plan = run(scenario())
        assert decided["decision"] == "yes" and decided["id"] == 1
        assert plan["answerable"] is True and plan["id"] == 2

    def test_malformed_frame_keeps_the_connection_open(self):
        async def scenario():
            worker = await started_worker()
            dispatcher = await started_dispatcher({"w0": worker})
            try:
                return await exchange(
                    dispatcher,
                    [
                        "{not json",
                        {"op": "no-such-op"},
                        {"query": UNIVERSITY_QUERY, "id": "after"},
                    ],
                )
            finally:
                await shutdown(dispatcher, worker)

        bad_json, bad_op, good = run(scenario())
        assert "error" in bad_json and "error" in bad_op
        assert good["decision"] == "yes" and good["id"] == "after"

    def test_empty_ring_sheds_with_retryable_overloaded(self):
        async def scenario():
            dispatcher = await started_dispatcher({})
            try:
                return await exchange(
                    dispatcher, [{"query": UNIVERSITY_QUERY, "id": 5}]
                )
            finally:
                await shutdown(dispatcher)

        (reply,) = run(scenario())
        error = reply["error"]
        assert error["type"] == "Overloaded"
        assert error["retryable"] is True
        assert reply["id"] == 5


class TestRouting:
    def test_one_schema_sticks_to_one_worker(self):
        schema = schema_to_dict(id_chain_workload(3).schema)

        async def scenario():
            workers = {
                "w0": await started_worker(),
                "w1": await started_worker(),
                "w2": await started_worker(),
            }
            dispatcher = await started_dispatcher(workers)
            try:
                frames = [
                    {"query": "Qlink0() :- R0(x)", "schema": schema, "id": i}
                    for i in range(12)
                ]
                replies = await exchange(dispatcher, frames)
                routed = {
                    worker_id: await started_worker_requests(server)
                    for worker_id, server in workers.items()
                }
                return replies, routed
            finally:
                await shutdown(dispatcher, *workers.values())

        async def started_worker_requests(server: DecideServer) -> int:
            return server.pool.stats()["counters"]["requests"]

        replies, routed = run(scenario())
        assert all(r["decision"] == "yes" for r in replies)
        # all 12 frames landed on exactly one worker's pool
        assert sorted(routed.values()) == [0, 0, 12]

    def test_spellings_of_one_schema_converge_via_learned_route(self):
        # Two spellings, same content: each spelling's maiden request
        # routes by its own serialization (and may land anywhere), but
        # the response teaches the dispatcher the content fingerprint —
        # after that, every spelling keys by the fingerprint and all
        # traffic for the schema collapses onto one canonical worker.
        schema = schema_to_dict(id_chain_workload(4).schema)
        respelled = json.loads(json.dumps(schema))
        respelled["relations"] = dict(
            reversed(list(schema["relations"].items()))
        )

        def counters(workers, key):
            return {
                worker_id: server.pool.stats()["counters"][key]
                for worker_id, server in workers.items()
            }

        async def scenario():
            workers = {f"w{i}": await started_worker() for i in range(4)}
            dispatcher = await started_dispatcher(workers)
            try:
                first = await exchange(
                    dispatcher,
                    [{"query": "Qlink0() :- R0(x)", "schema": schema}],
                )
                second = await exchange(
                    dispatcher,
                    [{"query": "Qlink0() :- R0(x)", "schema": respelled}],
                )
                requests_before = counters(workers, "requests")
                compiles_before = counters(workers, "schemas_compiled")
                steady = await exchange(
                    dispatcher,
                    [
                        {"query": "Qlink0() :- R0(x)", "schema": spelling}
                        for spelling in (schema, respelled) * 3
                    ],
                )
                deltas = {
                    worker_id: count - requests_before[worker_id]
                    for worker_id, count in counters(
                        workers, "requests"
                    ).items()
                }
                recompiled = counters(workers, "schemas_compiled")
                return (
                    first,
                    second,
                    steady,
                    deltas,
                    compiles_before,
                    recompiled,
                )
            finally:
                await shutdown(dispatcher, *workers.values())

        first, second, steady, deltas, before, after = run(scenario())
        assert first[0]["fingerprint"] == second[0]["fingerprint"]
        assert all(r["decision"] == "yes" for r in steady)
        # steady state: both spellings route to ONE canonical worker
        assert sorted(deltas.values()) == [0, 0, 0, 6]
        # ... and the steady-state traffic compiles nothing new
        assert after == before

    def test_distinct_schemas_spread_over_workers(self):
        schemas = [
            schema_to_dict(id_chain_workload(n).schema)
            for n in range(2, 14)
        ]

        async def scenario():
            workers = {f"w{i}": await started_worker() for i in range(4)}
            dispatcher = await started_dispatcher(workers)
            try:
                frames = [
                    {"query": "Qlink0() :- R0(x)", "schema": schema}
                    for schema in schemas
                ]
                replies = await exchange(dispatcher, frames)
                touched = sum(
                    1
                    for server in workers.values()
                    if server.pool.stats()["counters"]["requests"]
                )
                return replies, touched
            finally:
                await shutdown(dispatcher, *workers.values())

        replies, touched = run(scenario())
        assert all(r.get("decision") == "yes" for r in replies)
        # 12 distinct fingerprints over 4 workers: sharding must not be
        # degenerate (everything on one node).
        assert touched >= 2


class TestWorkerLoss:
    def test_lost_worker_fails_in_flight_frames_typed_and_retryable(self):
        # A "worker" that accepts the connection, reads one line, then
        # slams it shut: the dispatcher must fail the in-flight frame
        # with a retryable WorkerLost error — not a hang, not garbage.
        async def scenario():
            async def handler(reader, writer):
                await reader.readline()
                writer.close()

            trap = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = trap.sockets[0].getsockname()[1]
            dispatcher = FleetDispatcher(port=0, channels_per_worker=1)
            await dispatcher.start()
            await dispatcher.add_worker("trap", "127.0.0.1", port)
            try:
                return await asyncio.wait_for(
                    exchange(
                        dispatcher, [{"query": UNIVERSITY_QUERY, "id": 3}]
                    ),
                    timeout=10,
                )
            finally:
                await shutdown(dispatcher)
                trap.close()
                await trap.wait_closed()

        (reply,) = run(scenario())
        error = reply["error"]
        assert error["type"] == "WorkerLost"
        assert error["retryable"] is True
        assert error["retry_after_ms"] > 0
        assert reply["id"] == 3

    def test_oversized_worker_reply_is_a_lost_worker(self, monkeypatch):
        # A worker reply past the channel's line limit cannot be
        # resynchronized past: the in-flight frame fails as a typed
        # retryable WorkerLost, and the channel closes cleanly.
        limit = 4096
        monkeypatch.setattr(fleet_module, "CHANNEL_LIMIT_BYTES", limit)

        async def scenario():
            async def handler(reader, writer):
                await reader.readline()
                writer.write(b'"' + b"x" * (2 * limit) + b'"\n')
                await writer.drain()
                await reader.read()  # hold the connection open
                writer.close()

            fake = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = fake.sockets[0].getsockname()[1]
            dispatcher = FleetDispatcher(port=0, channels_per_worker=1)
            await dispatcher.start()
            await dispatcher.add_worker("fake", "127.0.0.1", port)
            (channel,) = dispatcher._workers["fake"].channels
            try:
                replies = await asyncio.wait_for(
                    exchange(
                        dispatcher, [{"query": UNIVERSITY_QUERY, "id": 4}]
                    ),
                    timeout=10,
                )
                return replies, channel.closed, dispatcher.workers
            finally:
                await shutdown(dispatcher)
                fake.close()
                await fake.wait_closed()

        (reply,), closed, workers = run(scenario())
        assert reply["error"]["type"] == "WorkerLost"
        assert reply["error"]["retryable"] is True
        assert reply["id"] == 4
        assert closed and workers == ()

    def test_dead_worker_is_evicted_and_traffic_reroutes(self):
        async def scenario():
            victim = await started_worker()
            survivor = await started_worker()
            dispatcher = await started_dispatcher(
                {"victim": victim, "survivor": survivor}
            )
            try:
                await victim.close()  # the process "dies"
                # Whatever frame hits the dead worker first comes back
                # WorkerLost; eviction then reroutes the rest.  Poll
                # until the ring has healed.
                outcomes = []
                for attempt in range(50):
                    (reply,) = await exchange(
                        dispatcher,
                        [{"query": UNIVERSITY_QUERY, "id": attempt}],
                    )
                    outcomes.append(reply)
                    if reply.get("decision") == "yes":
                        break
                    error = reply["error"]
                    assert error["retryable"] is True
                    assert error["type"] in ("WorkerLost", "Overloaded")
                    await asyncio.sleep(0.05)
                return outcomes, dispatcher.workers
            finally:
                await shutdown(dispatcher, survivor)

        outcomes, workers = run(scenario())
        assert outcomes[-1]["decision"] == "yes"
        assert workers == ("survivor",)

    def test_readded_worker_serves_its_shard_again(self):
        async def scenario():
            worker = await started_worker()
            dispatcher = await started_dispatcher({"w0": worker})
            try:
                (before,) = await exchange(
                    dispatcher, [{"query": UNIVERSITY_QUERY}]
                )
                await dispatcher.remove_worker("w0")
                (during,) = await exchange(
                    dispatcher, [{"query": UNIVERSITY_QUERY}]
                )
                host, port = worker.address
                await dispatcher.add_worker("w0", host, port)
                (after,) = await exchange(
                    dispatcher, [{"query": UNIVERSITY_QUERY}]
                )
                return before, during, after
            finally:
                await shutdown(dispatcher, worker)

        before, during, after = run(scenario())
        assert before["decision"] == "yes"
        assert during["error"]["type"] == "Overloaded"
        assert during["error"]["retryable"] is True
        assert after["decision"] == "yes"


@contextlib.asynccontextmanager
async def fake_worker(reply_for):
    """A worker that answers each request line with the reply line
    ``reply_for(frame)``, strictly in order per connection, like a real
    one.  Yields its port; on exit, waits
    for its connections to end (the dispatcher must be closed first)."""
    handlers = set()

    async def handler(reader, writer):
        handlers.add(asyncio.current_task())
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                writer.write(reply_for(json.loads(line)))
                await writer.drain()
        finally:
            writer.close()

    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    try:
        yield server.sockets[0].getsockname()[1]
    finally:
        server.close()
        await server.wait_closed()
        await asyncio.wait_for(
            asyncio.gather(*handlers, return_exceptions=True), 10
        )


class TestRelay:
    def test_worker_reply_bytes_reach_the_client_verbatim(self):
        # Unsorted keys, no spaces, an escaped character: a dispatcher
        # that decoded and re-encoded the reply would change the bytes.
        def reply_for(frame):
            return (
                b'{"id":%d,"fingerprint":"fp-1","decision":"yes",'
                b'"note":"caf\\u00e9"}\n' % frame["id"]
            )

        async def scenario():
            async with fake_worker(reply_for) as port:
                dispatcher = FleetDispatcher(port=0)
                await dispatcher.start()
                await dispatcher.add_worker("fake", "127.0.0.1", port)
                try:
                    reader, writer = await asyncio.open_connection(
                        *dispatcher.address
                    )
                    lines = []
                    for n in range(3):
                        writer.write(
                            json.dumps(
                                {"query": "R(x)", "schema": {}, "id": n}
                            ).encode()
                            + b"\n"
                        )
                        lines.append(
                            await asyncio.wait_for(reader.readline(), 10)
                        )
                    writer.close()
                    await writer.wait_closed()
                    return lines, dispatcher.fleet_stats()
                finally:
                    await shutdown(dispatcher)

        lines, stats = run(scenario())
        assert lines == [reply_for({"id": n}) for n in range(3)]
        assert stats["counters"]["routes_learned"] == 1

    def test_repeated_frames_stop_being_parsed(self, monkeypatch):
        decodes = []

        class CountingJson:
            dumps = staticmethod(json.dumps)

            @staticmethod
            def loads(data):
                decodes.append(data)
                return json.loads(data)

        monkeypatch.setattr(fleet_module, "json", CountingJson)
        frame = {
            "query": UNIVERSITY_QUERY,
            "schema": schema_to_dict(university_schema(ud_bound=100)),
            "id": 5,
        }

        async def scenario():
            worker = await started_worker()
            dispatcher = await started_dispatcher({"w0": worker})
            try:
                replies = await exchange(dispatcher, [frame] * 5)
                return (
                    replies,
                    dispatcher.fleet_stats()["counters"],
                    worker.server_stats(),
                )
            finally:
                await shutdown(dispatcher, worker)

        replies, fleet, server = run(scenario())
        assert [r["decision"] for r in replies] == ["yes"] * 5
        assert [r["cached"] for r in replies] == [False] + [True] * 4
        # Each hop decodes the line on its first two sightings (the
        # second admits it to the frame memo) and never again.
        for counters in (fleet, server):
            assert counters["frames"] == 5
            assert counters["frames_parsed"] == 2
            assert counters["memo_hits"] == 3
        assert server["loop_hits"] == 4
        # The dispatcher decoded one reply — the one that taught it the
        # schema's fingerprint — and relayed the rest undecoded.
        assert len(decodes) == 1
        assert fleet["replies_decoded"] == 1
        assert fleet["routes_learned"] == 1

    @pytest.mark.parametrize(
        "name,workload", ROUTES, ids=[name for name, __ in ROUTES]
    )
    def test_relayed_bytes_equal_the_workers_on_every_route(
        self, name, workload
    ):
        # The bytes a client reads through the dispatcher are the bytes
        # the same worker writes on a direct connection (but for the
        # lookup time), for decisions, plans and a refused query.
        schema = schema_to_dict(workload.schema)
        frames = [
            {"query": repr(workload.query), "schema": schema, "id": 1},
            {"query": repr(workload.query), "schema": schema},
            {"op": "plan", "query": repr(workload.query), "schema": schema},
            {"query": "not a query (", "schema": schema, "id": "bad"},
        ]
        lines = [json.dumps(frame).encode() + b"\n" for frame in frames]

        async def ask(address, payload: list) -> list:
            reader, writer = await asyncio.open_connection(*address)
            got = []
            for each in payload:
                writer.write(each)
                got.append(await asyncio.wait_for(reader.readline(), 30))
            writer.close()
            return got

        async def scenario():
            worker = await started_worker()
            dispatcher = await started_dispatcher({"w0": worker})
            try:
                # Warm up directly, so both sides below serve cache hits.
                await ask(worker.address, lines)
                direct = await ask(worker.address, lines)
                relayed = await ask(dispatcher.address, lines)
                again = await ask(dispatcher.address, lines)
                return (
                    direct,
                    relayed,
                    again,
                    dispatcher.fleet_stats()["counters"],
                )
            finally:
                await shutdown(dispatcher, worker)

        direct, relayed, again, counters = run(scenario())
        assert b'"cached": true' in direct[0]
        assert json.loads(direct[3])["error"]["type"] == "ParseError"
        assert without_elapsed(relayed) == without_elapsed(direct)
        assert without_elapsed(again) == without_elapsed(direct)
        # Only the spelling's first fingerprint-carrying reply was
        # decoded; the refused query's error frame never is.
        assert counters["replies_decoded"] == 1
        assert counters["routes_learned"] == 1

    def test_relayed_frames_cost_no_future_task_or_loop_pass(self):
        # The dispatcher and its worker run on a loop in another thread,
        # driven by a blocking client, so the loop runs nothing but the
        # two front ends.  Once the worker answers from its caches, a
        # relayed decide/plan frame is read, forwarded, answered and
        # written back from protocol callbacks alone: nothing creates a
        # Future or a Task or queues a callback for a later loop pass.
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()

        def on_loop(coroutine):
            return asyncio.run_coroutine_threadsafe(coroutine, loop).result(30)

        frames = b"".join(
            json.dumps(frame).encode() + b"\n"
            for frame in (
                {"query": UNIVERSITY_QUERY, "id": 1},
                {"op": "plan", "query": UNIVERSITY_QUERY, "id": 2},
            )
        )
        calls = {"create_future": 0, "create_task": 0, "call_soon": 0}

        def counting(name):
            method = getattr(loop, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)

            return counted

        worker = on_loop(started_worker())
        dispatcher = on_loop(started_dispatcher({"w0": worker}))
        try:
            with socket.create_connection(dispatcher.address) as client:
                client.settimeout(30)
                replies = client.makefile("rb")

                def exchange() -> list:
                    client.sendall(frames)
                    return [json.loads(replies.readline()) for __ in "12"]

                exchange()  # the worker decides and caches both
                for name in calls:
                    setattr(loop, name, counting(name))
                try:
                    answered = [exchange() for __ in range(10)]
                finally:
                    for name in calls:
                        delattr(loop, name)
        finally:
            on_loop(shutdown(dispatcher, worker))
            loop.call_soon_threadsafe(loop.stop)
            thread.join(30)
            loop.close()
        for decide, plan in answered:
            assert decide["decision"] == "yes" and decide["cached"] is True
            assert plan["answerable"] is True and plan["id"] == 2
        assert calls == {"create_future": 0, "create_task": 0, "call_soon": 0}


class TestStats:
    def test_stats_aggregate_ring_counters_and_worker_pools(self):
        async def scenario():
            workers = {
                "w0": await started_worker(),
                "w1": await started_worker(),
            }
            dispatcher = await started_dispatcher(workers)
            try:
                await exchange(
                    dispatcher, [{"query": UNIVERSITY_QUERY, "id": 1}]
                )
                (stats,) = await exchange(
                    dispatcher, [{"op": "stats", "id": "s"}]
                )
                return stats
            finally:
                await shutdown(dispatcher, *workers.values())

        stats = run(scenario())
        assert stats["op"] == "stats" and stats["id"] == "s"
        fleet = stats["fleet"]
        assert fleet["workers"] == 2
        assert sorted(fleet["ring"]["nodes"]) == ["w0", "w1"]
        assert fleet["counters"]["routed"] >= 1
        per_worker = {entry["worker"]: entry for entry in stats["workers"]}
        assert set(per_worker) == {"w0", "w1"}
        for entry in per_worker.values():
            # each worker contributes its own full stats frame,
            # including the pool's per-fingerprint shard heat
            assert "per_fingerprint" in entry["stats"]["pool"]

    def test_concurrent_clients_interleave_without_crosstalk(self):
        schemas = {
            n: schema_to_dict(id_chain_workload(n).schema)
            for n in (2, 3, 4)
        }

        async def one_client(dispatcher, n, schema):
            frames = [
                {"query": "Qlink0() :- R0(x)", "schema": schema, "id": f"{n}-{i}"}
                for i in range(6)
            ]
            return await exchange(dispatcher, frames)

        async def scenario():
            workers = {f"w{i}": await started_worker() for i in range(3)}
            dispatcher = await started_dispatcher(workers)
            try:
                batches = await asyncio.gather(
                    *(
                        one_client(dispatcher, n, schema)
                        for n, schema in schemas.items()
                    )
                )
                return batches
            finally:
                await shutdown(dispatcher, *workers.values())

        batches = run(scenario())
        for (n, _), replies in zip(schemas.items(), batches):
            for i, reply in enumerate(replies):
                assert reply["decision"] == "yes"
                assert reply["id"] == f"{n}-{i}"  # FIFO: no crosstalk


class FrontEnd:
    """A front end under test: a bare `DecideServer`, or a
    `FleetDispatcher` in front of one in-process worker.  Both read
    their connections through the shared `repro.server.lines.FrameLoop`,
    so every drain and framing case must hold for both."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.worker: DecideServer = None
        self.front = None

    async def start(self) -> "FrontEnd":
        self.worker = await started_worker()
        if self.kind == "server":
            self.front = self.worker
        else:
            self.front = await started_dispatcher({"w0": self.worker})
        return self

    @property
    def address(self):
        return self.front.address

    async def close(self, drain_timeout: float) -> None:
        if self.front is self.worker:
            await self.worker.close(drain_timeout=drain_timeout)
            return
        # The fleet's drain order: the dispatcher stops reading first,
        # then the worker drains the frames already forwarded to it.
        closing = asyncio.ensure_future(
            self.front.close(drain_timeout=drain_timeout)
        )
        await asyncio.sleep(4 * SETTLE_S)
        await self.worker.close(drain_timeout=drain_timeout)
        await closing


FRONT_ENDS = pytest.mark.parametrize("kind", ["server", "fleet"])


def slow_request() -> dict:
    """A frame whose decision takes seconds uncapped."""
    workload = lookup_fanout_workload(7)
    return {
        "schema": schema_to_dict(workload.schema),
        "query": repr(workload.query),
    }


class TestDrain:
    @FRONT_ENDS
    def test_close_with_drain_timeout_cancels_in_flight_work(self, kind):
        async def scenario():
            end = await FrontEnd(kind).start()
            reader, writer = await asyncio.open_connection(*end.address)
            frame = dict(slow_request(), id="x")
            writer.write(json.dumps(frame).encode() + b"\n")
            await writer.drain()
            await asyncio.sleep(0.2)  # let the worker pick it up
            assert end.worker._counters["in_flight"] == 1
            await end.close(drain_timeout=0.4)
            line = await asyncio.wait_for(reader.readline(), timeout=5)
            closed = await asyncio.wait_for(reader.readline(), timeout=5)
            writer.close()
            return (
                json.loads(line),
                closed,
                dict(end.worker._counters),
                dict(end.front._counters),
            )

        reply, closed, worker, front = run(scenario())
        # The in-flight request got a well-formed final frame: cancelled
        # by the drain, marked retryable; then the connection closed.
        assert reply["error"]["type"] == "DeadlineExceeded"
        assert reply["error"]["retryable"] is True
        assert reply["id"] == "x"
        assert "drain" in reply["error"]["message"]
        assert closed == b""
        assert worker["cancelled"] >= 1
        assert front["connections_open"] == 0

    @FRONT_ENDS
    def test_drain_finishes_fast_work_without_cancelling(self, kind):
        # The frame's bytes arrive just before close(): the connection
        # is parked in readline with a complete frame buffered, so the
        # drain must answer it rather than drop it.
        async def scenario():
            end = await FrontEnd(kind).start()
            reader, writer = await asyncio.open_connection(*end.address)
            writer.write(
                json.dumps({"query": UNIVERSITY_QUERY, "id": 9}).encode()
                + b"\n"
            )
            await writer.drain()
            await end.close(drain_timeout=30.0)
            line = await asyncio.wait_for(reader.readline(), timeout=5)
            writer.close()
            return json.loads(line), dict(end.worker._counters)

        reply, counters = run(scenario())
        assert reply.get("decision") == "yes"
        assert reply["id"] == 9
        assert counters["cancelled"] == 0

    @FRONT_ENDS
    def test_drain_answers_only_the_frame_in_hand(self, kind):
        # Two frames land together as the drain starts: the first is
        # answered on the spot, and the connection then closes instead
        # of reading on.
        async def scenario():
            end = await FrontEnd(kind).start()
            reader, writer = await asyncio.open_connection(*end.address)
            await asyncio.sleep(0.05)
            writer.write(
                b'{"op": "ping", "id": 1}\n{"op": "ping", "id": 2}\n'
            )
            await writer.drain()
            await end.close(drain_timeout=2.0)
            lines = [
                await asyncio.wait_for(reader.readline(), timeout=5)
                for __ in range(2)
            ]
            writer.close()
            return lines

        pong, closed = run(scenario())
        assert json.loads(pong) == {"op": "pong", "id": 1}
        assert closed == b""

    @FRONT_ENDS
    def test_draining_front_end_stops_reading_new_frames(self, kind):
        async def scenario():
            end = await FrontEnd(kind).start()
            reader, writer = await asyncio.open_connection(*end.address)
            await asyncio.sleep(0.05)
            closing = asyncio.ensure_future(end.close(drain_timeout=2.0))
            await asyncio.sleep(0.1)
            assert end.front.draining
            # A frame sent after drain started is never answered; the
            # connection just closes.
            writer.write(
                json.dumps({"query": UNIVERSITY_QUERY}).encode() + b"\n"
            )
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            line = await asyncio.wait_for(reader.readline(), timeout=5)
            await closing
            writer.close()
            return line

        assert run(scenario()) == b""

    @FRONT_ENDS
    def test_oversized_frame_gets_a_structured_error(self, kind):
        async def scenario():
            end = await FrontEnd(kind).start()
            try:
                reader, writer = await asyncio.open_connection(*end.address)

                async def send() -> None:
                    # The front end replies and hangs up mid-send; the
                    # tail of the write may die with a reset.
                    try:
                        writer.write(b'"' + b"x" * (2 << 20) + b'"\n')
                        await writer.drain()
                    except (ConnectionResetError, BrokenPipeError):
                        pass

                sending = asyncio.ensure_future(send())
                line = await asyncio.wait_for(reader.readline(), timeout=30)
                await sending
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass
                return json.loads(line), dict(end.front._counters)
            finally:
                await end.close(drain_timeout=5)

        reply, counters = run(scenario())
        assert reply["error"]["type"] == "FrameTooLong"
        assert counters["errors"] == 1

    def test_close_is_idempotent_and_releases_workers(self):
        async def scenario():
            worker = await started_worker()
            dispatcher = await started_dispatcher({"w0": worker})
            await dispatcher.close(drain_timeout=2)
            await dispatcher.close(drain_timeout=2)
            assert dispatcher.workers == ()
            await worker.close()

        run(scenario())


class TestFraming:
    @FRONT_ENDS
    def test_pipelined_frames_are_answered_in_order(self, kind):
        frames = [
            {"op": "ping", "id": 0},
            {"query": UNIVERSITY_QUERY, "id": 1},
            "{not json",
            {"query": UNIVERSITY_QUERY, "id": 3},
            {"op": "plan", "query": UNIVERSITY_QUERY, "id": 4},
            {"op": "ping", "id": 5},
        ]

        async def scenario():
            end = await FrontEnd(kind).start()
            try:
                reader, writer = await asyncio.open_connection(*end.address)
                # One write: every frame is buffered before the first
                # reply, so the answers must queue up behind each other.
                writer.write(
                    b"".join(
                        (f if isinstance(f, str) else json.dumps(f)).encode()
                        + b"\n"
                        for f in frames
                    )
                )
                await writer.drain()
                replies = [
                    json.loads(await asyncio.wait_for(reader.readline(), 30))
                    for __ in frames
                ]
                writer.close()
                return replies
            finally:
                await end.close(drain_timeout=5)

        replies = run(scenario())
        assert [r.get("id") for r in replies] == [0, 1, None, 3, 4, 5]
        assert replies[0]["op"] == "pong" and replies[5]["op"] == "pong"
        assert replies[1]["cached"] is False and replies[3]["cached"] is True
        assert "error" in replies[2]
        assert replies[4]["answerable"] is True

    @FRONT_ENDS
    def test_frames_and_replies_span_several_read_buffers(self, kind):
        # Connections read into one fixed buffer: a request line, and
        # (through the fleet) the worker's reply line echoing its id,
        # must be reassembled across several reads.
        ident = "x" * (3 * READ_CHUNK_BYTES + 17)
        frames = [{"query": UNIVERSITY_QUERY, "id": ident}] * 2

        async def scenario():
            end = await FrontEnd(kind).start()
            try:
                reader, writer = await asyncio.open_connection(
                    *end.address, limit=MAX_FRAME_BYTES
                )
                writer.write(
                    b"".join(json.dumps(f).encode() + b"\n" for f in frames)
                )
                await writer.drain()
                replies = [
                    json.loads(await asyncio.wait_for(reader.readline(), 30))
                    for __ in frames
                ]
                writer.close()
                return replies
            finally:
                await end.close(drain_timeout=5)

        first, second = run(scenario())
        assert first["id"] == second["id"] == ident
        assert first["decision"] == second["decision"] == "yes"
        assert second["cached"] is True

    @FRONT_ENDS
    def test_half_closed_connection_gets_every_reply(self, kind):
        async def scenario():
            end = await FrontEnd(kind).start()
            try:
                reader, writer = await asyncio.open_connection(*end.address)
                writer.write(
                    json.dumps({"query": UNIVERSITY_QUERY, "id": 1}).encode()
                    + b"\n"
                    # A last frame without its newline still counts.
                    + json.dumps({"op": "ping", "id": 2}).encode()
                )
                writer.write_eof()
                lines = [
                    await asyncio.wait_for(reader.readline(), 30)
                    for __ in range(3)
                ]
                writer.close()
                return lines
            finally:
                await end.close(drain_timeout=5)

        decided, pong, closed = run(scenario())
        assert json.loads(decided)["decision"] == "yes"
        assert json.loads(pong) == {"op": "pong", "id": 2}
        assert closed == b""

    @FRONT_ENDS
    def test_a_client_that_never_reads_cannot_grow_the_buffer(self, kind):
        # Pings pipelined by a client that never reads its replies: once
        # the front end's writes back up, it must stop reading too, so
        # what it buffers stays near one frame cap however much is sent.
        ping = json.dumps({"op": "ping", "id": "x" * 8000}).encode() + b"\n"
        chunk = ping * 32

        async def scenario():
            end = await FrontEnd(kind).start()
            try:
                client = socket.socket()
                client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)
                client.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 16)
                client.connect(end.address)
                reader, writer = await asyncio.open_connection(sock=client)
                await asyncio.sleep(0.05)
                (connection,) = end.front._lines._connections
                # Small kernel buffers on both sides, so the flow stalls
                # after a few MB rather than tens.
                server_side = connection._transport.get_extra_info("socket")
                for option in (socket.SO_RCVBUF, socket.SO_SNDBUF):
                    server_side.setsockopt(socket.SOL_SOCKET, option, 1 << 16)
                sent = peak = 0
                while sent < (24 << 20):
                    writer.write(chunk)
                    sent += len(chunk)
                    try:
                        await asyncio.wait_for(writer.drain(), 0.5)
                    except asyncio.TimeoutError:
                        break
                    peak = max(peak, len(connection._buffer))
                await asyncio.sleep(0.2)
                peak = max(peak, len(connection._buffer))
                writer.transport.abort()
                return sent, peak
            finally:
                await end.close(drain_timeout=5)

        sent, peak = run(scenario())
        assert sent < (24 << 20), "the client was never held back"
        assert peak <= 2 * MAX_FRAME_BYTES
