"""Fault-injection property tests: the resilience invariant.

Every injected fault — malformed/truncated/oversized frames,
disconnects, deadline expiries, overload — must yield either a correct
decision or a structured, typed error frame.  Never a wrong answer,
never a hung connection (every read is timeout-bounded), and never a
poisoned cache: after the storm, the *same* pool must decide exactly
like a fresh one.

Deterministic: all randomness is ``random.Random(seed)``.
"""

import asyncio
import json

from repro.io import schema_to_dict
from repro.runtime import Budget, DeadlineExceeded
from repro.server import DecideServer, SessionLimits, SessionPool
from repro.service import Session
from repro.workloads import lookup_fanout_workload, university_schema

from .chaos import run_chaos, verify

QUERIES = [
    "Udirectory(i, a, p)",
    "Prof(i, n, 10000)",
    "Q(n) :- Prof(i, n, s)",
    "Q() :- Udirectory(i, a, p), Prof(i, n, s)",
]


def oracle_decisions():
    session = Session(university_schema(ud_bound=100))
    return {q: session.decide(q).decision for q in QUERIES}


def slow_request():
    """A request frame whose decision takes ~seconds uncapped: the
    deadline-expiry fault aborts it mid-flight."""
    workload = lookup_fanout_workload(7)
    return {
        "schema": schema_to_dict(workload.schema),
        "query": repr(workload.query),
    }


def run(coroutine):
    return asyncio.run(coroutine)


async def started_server(**kwargs):
    pool = kwargs.pop("pool", None)
    if pool is None:
        pool = SessionPool(university_schema(ud_bound=100))
    server = DecideServer(pool, port=0, **kwargs)
    return await server.start()


async def decide_once(server, frame):
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)
    text = frame if isinstance(frame, str) else json.dumps(frame)
    writer.write(text.encode() + b"\n")
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), timeout=30)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass
    return json.loads(line)


class TestChaosBattery:
    def test_seeded_chaos_rounds_yield_decisions_or_typed_errors(self):
        oracle = oracle_decisions()
        slow = slow_request()

        async def scenario(seed):
            server = await started_server()
            try:
                records = await run_chaos(
                    *server.address,
                    seed=seed,
                    rounds=16,
                    queries=QUERIES,
                    slow_request=slow,
                )
                violations = verify(records, oracle)
                assert not violations, violations
                # The battered pool is unpoisoned: it still agrees
                # with the oracle on every query.
                for query in QUERIES:
                    reply = await decide_once(server, {"query": query})
                    assert reply["decision"] == oracle[query], query
            finally:
                await server.close()

        for seed in (0, 1, 2):
            run(scenario(seed))


class TestDeadlines:
    def test_deadline_expiry_is_a_retryable_error_frame(self):
        slow = slow_request()

        async def scenario():
            server = await started_server()
            try:
                frame = dict(slow, deadline_ms=5, id="d1")
                reply = await decide_once(server, frame)
                assert reply["error"]["type"] == "DeadlineExceeded"
                assert reply["error"]["retryable"] is True
                assert reply["id"] == "d1"
                return json.loads(server._process_line(b'{"op": "stats"}'))
            finally:
                await server.close()

        stats = run(scenario())
        assert stats["server"]["deadline_exceeded"] == 1

    def test_aborted_request_does_not_poison_the_pool(self):
        # After a deadline abort, the same pool (same sessions, same
        # compiled artifacts, same memo caches) must decide the same
        # request identically to a fresh pool.
        slow = slow_request()

        async def scenario():
            server = await started_server()
            try:
                first = await decide_once(
                    server, dict(slow, deadline_ms=5)
                )
                assert first["error"]["type"] == "DeadlineExceeded"
                settled = await decide_once(server, dict(slow))
                return settled
            finally:
                await server.close()

        settled = run(scenario())
        fresh = Session(lookup_fanout_workload(7).schema).decide(
            lookup_fanout_workload(7).query
        )
        assert settled["decision"] == fresh.decision
        assert settled["cached"] is False  # aborts were never cached

    def test_pool_deadline_caps_the_request_deadline(self):
        limits = SessionLimits(deadline_ms=5.0)
        pool = SessionPool(
            lookup_fanout_workload(7).schema, limits=limits
        )
        from repro.io import DecideRequest

        # The client asks for more time than the server allows: the
        # effective budget is the tighter (server) deadline.
        budget = pool.budget_for(
            DecideRequest(query="Q()", deadline_ms=60_000.0)
        )
        assert budget.deadline_ms == 5.0
        try:
            pool.process(
                DecideRequest(query=repr(lookup_fanout_workload(7).query))
            )
            raise AssertionError("expected DeadlineExceeded")
        except DeadlineExceeded as error:
            assert error.retryable is True

    def test_cancelled_budget_aborts_before_any_work(self):
        budget = Budget()
        budget.cancel("drain")
        session = Session(university_schema(ud_bound=100))
        try:
            session.decide("Udirectory(i, a, p)", budget=budget)
            raise AssertionError("expected DeadlineExceeded")
        except DeadlineExceeded as error:
            assert error.as_detail()["reason"] == "drain"
        # The abort left no cache entry behind.
        assert session.cache_info()["size"] == 0
        # Cache hits are still served under an exhausted budget.
        assert session.decide("Udirectory(i, a, p)").is_yes
        assert session.decide(
            "Udirectory(i, a, p)", budget=budget
        ).cached


class TestQuotas:
    def test_rate_limited_client_is_shed_with_retry_hint(self):
        async def scenario():
            # Refill is negligible over the test's lifetime: the shed
            # count is exactly (requests - burst).
            server = await started_server(
                client_rate=0.1, client_burst=2.0
            )
            try:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                replies = []
                for i in range(5):
                    writer.write(
                        json.dumps(
                            {"query": QUERIES[0], "id": i}
                        ).encode()
                        + b"\n"
                    )
                    await writer.drain()
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=30
                    )
                    replies.append(json.loads(line))
                writer.close()
                await writer.wait_closed()
                return replies, dict(server._counters)
            finally:
                await server.close()

        replies, counters = run(scenario())
        decisions = [r for r in replies if "decision" in r]
        shed = [r for r in replies if "error" in r]
        assert len(decisions) == 2  # the burst allowance
        assert len(shed) == 3
        for reply in shed:
            assert reply["error"]["type"] == "Overloaded"
            assert reply["error"]["retryable"] is True
            assert reply["error"]["retry_after_ms"] > 0
            assert reply["id"] is not None
        assert counters["overloaded"] == 3

    def test_quota_is_per_client_not_global(self):
        # Quota state is keyed by peer address: a second client with
        # its own address has its own untouched bucket.
        async def scenario():
            server = await started_server(
                client_rate=0.1, client_burst=1.0
            )
            try:
                host, port = server.address
                first = await decide_once(server, {"query": QUERIES[0]})
                second = await decide_once(server, {"query": QUERIES[0]})
                # Same address: the second request exceeds the bucket.
                assert "decision" in first
                assert second["error"]["type"] == "Overloaded"
                reader, writer = await asyncio.open_connection(
                    host, port, local_addr=("127.0.0.2", 0)
                )
                writer.write(
                    json.dumps({"query": QUERIES[0]}).encode() + b"\n"
                )
                await writer.drain()
                line = await asyncio.wait_for(
                    reader.readline(), timeout=30
                )
                writer.close()
                await writer.wait_closed()
                return json.loads(line)
            finally:
                await server.close()

        other_client = run(scenario())
        assert "decision" in other_client

    def test_ping_and_stats_bypass_quotas(self):
        async def scenario():
            server = await started_server(
                client_rate=0.001, client_burst=1.0
            )
            try:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                for __ in range(5):
                    writer.write(b'{"op": "ping"}\n')
                await writer.drain()
                replies = []
                for __ in range(5):
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=30
                    )
                    replies.append(json.loads(line))
                writer.close()
                await writer.wait_closed()
                return replies
            finally:
                await server.close()

        assert all(r["op"] == "pong" for r in run(scenario()))


class TestDrain:
    def test_close_with_drain_timeout_cancels_in_flight_work(self):
        slow = slow_request()

        async def scenario():
            server = await started_server()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(json.dumps(dict(slow, id="x")).encode() + b"\n")
            await writer.drain()
            await asyncio.sleep(0.2)  # let the worker pick it up
            assert server._counters["in_flight"] == 1
            await server.close(drain_timeout=0.4)
            # The in-flight request got a well-formed final frame:
            # cancelled by the drain, marked retryable.
            line = await asyncio.wait_for(reader.readline(), timeout=5)
            reply = json.loads(line)
            assert reply["error"]["type"] == "DeadlineExceeded"
            assert reply["error"]["retryable"] is True
            assert reply["id"] == "x"
            assert "drain" in reply["error"]["message"]
            # ... and the connection was closed afterwards.
            assert await asyncio.wait_for(reader.readline(), timeout=5) == b""
            writer.close()
            return dict(server._counters)

        counters = run(scenario())
        assert counters["cancelled"] >= 1
        assert counters["connections_open"] == 0

    def test_drain_finishes_fast_work_without_cancelling(self):
        async def scenario():
            server = await started_server()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                json.dumps({"query": QUERIES[0], "id": 9}).encode() + b"\n"
            )
            await writer.drain()
            await server.close(drain_timeout=30.0)
            line = await asyncio.wait_for(reader.readline(), timeout=5)
            reply = json.loads(line)
            writer.close()
            return reply, dict(server._counters)

        reply, counters = run(scenario())
        assert reply.get("decision") is not None
        assert reply["id"] == 9
        assert counters["cancelled"] == 0

    def test_draining_server_stops_reading_new_frames(self):
        async def scenario():
            server = await started_server()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            await asyncio.sleep(0.05)
            close_task = asyncio.ensure_future(
                server.close(drain_timeout=2.0)
            )
            await asyncio.sleep(0.1)
            assert server.draining
            # A frame sent after drain started is never answered; the
            # connection just closes.
            writer.write(
                json.dumps({"query": QUERIES[0]}).encode() + b"\n"
            )
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            line = await asyncio.wait_for(reader.readline(), timeout=5)
            await close_task
            writer.close()
            return line

        assert run(scenario()) == b""
