"""Integration tests for the asyncio JSON-lines `DecideServer`.

Each test runs a real server on an ephemeral port inside
``asyncio.run`` and talks to it over TCP — the full wire path,
including framing, executor hand-off, backpressure, and error frames.
"""

import asyncio
import json

from repro.server import DecideServer, SessionPool
from repro.workloads import university_schema

INLINE_CHAIN = {
    "relations": {"Dir": 1, "L0": 2},
    "methods": [
        {"name": "dump", "relation": "Dir", "inputs": []},
        {"name": "by_id", "relation": "L0", "inputs": [1]},
    ],
    "constraints": ["L0(x, p) -> Dir(x)"],
}


def run(coroutine):
    return asyncio.run(coroutine)


async def started_server(**kwargs) -> DecideServer:
    pool = kwargs.pop("pool", None)
    if pool is None:
        pool = SessionPool(university_schema(ud_bound=100))
    server = DecideServer(pool, port=0, **kwargs)
    return await server.start()


async def exchange(server: DecideServer, frames: list) -> list:
    """Send all frames on one connection; collect one reply per frame."""
    host, port = server.address
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


class TestProtocol:
    def test_decide_plan_ping_stats_on_one_connection(self):
        async def scenario():
            server = await started_server()
            try:
                return await exchange(
                    server,
                    [
                        '"Udirectory(i,a,p)"',
                        {"query": "Prof(i,n,10000)", "id": 7},
                        {"op": "plan", "query": "Udirectory(i,a,p)"},
                        {"op": "ping", "id": "p"},
                        {"op": "stats"},
                    ],
                )
            finally:
                await server.close()

        decided, negative, plan, pong, stats = run(scenario())
        assert decided["decision"] == "yes"
        assert negative["decision"] == "no" and negative["id"] == 7
        assert plan["answerable"] is True and "<= ud <=" in plan["plan"]
        assert pong == {"op": "pong", "id": "p"}
        assert stats["op"] == "stats"
        assert stats["server"]["responses"] >= 4
        assert stats["pool"]["sessions"][0]["requests"] == 3

    def test_responses_line_up_with_requests_in_order(self):
        async def scenario():
            server = await started_server()
            try:
                queries = [
                    "Udirectory(i,a,p)",
                    "Prof(i,n,10000)",
                    "Udirectory(i,a,p)",
                    "Prof(a,b,c)",
                ]
                return await exchange(
                    server,
                    [{"query": q, "id": i} for i, q in enumerate(queries)],
                )
            finally:
                await server.close()

        replies = run(scenario())
        assert [r["id"] for r in replies] == [0, 1, 2, 3]
        assert [r["decision"] for r in replies] == [
            "yes", "no", "yes", "no",
        ]

    def test_inline_schema_routes_by_fingerprint(self):
        async def scenario():
            # The repeat Dir query hits its fingerprint's one session
            # and comes back cached=True.
            pool = SessionPool(university_schema(ud_bound=100))
            server = await started_server(pool=pool)
            try:
                replies = await exchange(
                    server,
                    [
                        {"query": "Dir(x)", "schema": INLINE_CHAIN},
                        {"query": "Udirectory(i,a,p)"},
                        {"query": "Dir(y)", "schema": INLINE_CHAIN},
                    ],
                )
                return replies, pool.stats()
            finally:
                await server.close()

        (first, default, second), stats = run(scenario())
        assert first["decision"] == "yes"
        assert default["decision"] == "yes"
        assert second["cached"] is True  # alpha-equivalent, same pool
        assert first["fingerprint"] != default["fingerprint"]
        assert stats["counters"]["text_key_hits"] == 1


class TestErrors:
    def test_malformed_frames_keep_the_connection_alive(self):
        async def scenario():
            server = await started_server()
            try:
                return await exchange(
                    server,
                    [
                        "not-json",
                        {"op": "wat"},
                        {"query": 17},
                        {"query": "Bad(("},
                        {"query": "Udirectory(i,a,p)"},
                    ],
                )
            finally:
                await server.close()

        bad_json, bad_op, bad_query, bad_parse, good = run(scenario())
        assert bad_json["error"]["type"] == "JSONDecodeError"
        assert "not-json" in bad_json["error"]["detail"]["line"]
        assert bad_op["error"]["type"] == "SchemaFormatError"
        assert bad_query["error"]["type"] == "SchemaFormatError"
        # The query parses at decision time, inside the executor.
        assert bad_parse["error"]["type"] == "ParseError"
        assert good["decision"] == "yes"

    def test_decision_errors_echo_the_request_id(self):
        async def scenario():
            server = await started_server()
            try:
                return await exchange(
                    server, [{"query": "Bad((", "id": 41}]
                )
            finally:
                await server.close()

        [reply] = run(scenario())
        assert reply["error"]["type"] == "ParseError"
        assert reply["id"] == 41

    def test_misfit_queries_get_error_frames(self):
        async def scenario():
            server = await started_server()
            try:
                return await exchange(
                    server,
                    [
                        {"query": "Udirectory(i, a)", "id": 1},
                        {"query": "Udirectory(i, a, p, q)", "id": 2},
                        {"query": "Prof(i, n)", "id": 3, "op": "plan"},
                        {"query": "Nope(x)", "id": 4},
                        {"query": "Udirectory(i,a,p)", "id": 5},
                    ],
                )
            finally:
                await server.close()

        *misfits, good = run(scenario())
        for index, reply in enumerate(misfits, start=1):
            assert "decision" not in reply
            assert reply["error"]["type"] == "QuerySchemaError"
            assert reply["error"]["retryable"] is False
            assert reply["id"] == index
        assert good["decision"] == "yes"

    def test_oversized_frame_gets_a_structured_error(self):
        async def scenario():
            server = await started_server()
            try:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)

                async def send() -> None:
                    # The server replies and hangs up mid-send; the
                    # tail of the write may die with a reset.
                    try:
                        writer.write(b'"' + b"x" * (2 << 20) + b'"\n')
                        await writer.drain()
                    except (ConnectionResetError, BrokenPipeError):
                        pass

                sending = asyncio.ensure_future(send())
                line = await asyncio.wait_for(
                    reader.readline(), timeout=30
                )
                await sending
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass
                return json.loads(line)
            finally:
                await server.close()

        reply = run(scenario())
        assert reply["error"]["type"] == "FrameTooLong"


class TestConcurrency:
    def test_concurrent_connections_mixed_fingerprints(self):
        async def scenario():
            pool = SessionPool(university_schema(ud_bound=100))
            server = await started_server(pool=pool)
            try:
                frames = [
                    {"query": "Udirectory(i,a,p)", "id": "u"},
                    {"query": "Dir(x)", "schema": INLINE_CHAIN, "id": "c"},
                    {"query": "Prof(i,n,10000)", "id": "n"},
                ]
                replies = await asyncio.gather(
                    *(exchange(server, frames) for __ in range(8))
                )
                return replies
            finally:
                await server.close()

        for connection in run(scenario()):
            by_id = {reply["id"]: reply for reply in connection}
            assert by_id["u"]["decision"] == "yes"
            assert by_id["c"]["decision"] == "yes"
            assert by_id["n"]["decision"] == "no"

    def test_tiny_backpressure_gate_still_serves_everything(self):
        async def scenario():
            server = await started_server(max_pending=1)
            try:
                frames = [
                    {"query": "Udirectory(i,a,p)", "id": i}
                    for i in range(5)
                ]
                return await asyncio.gather(
                    *(exchange(server, frames) for __ in range(4))
                )
            finally:
                await server.close()

        for connection in run(scenario()):
            assert [r["decision"] for r in connection] == ["yes"] * 5


class TestLifecycle:
    def test_close_is_clean_and_idempotent(self):
        async def scenario():
            server = await started_server()
            [reply] = await exchange(
                server, [{"query": "Udirectory(i,a,p)"}]
            )
            await server.close()
            await server.close()
            return reply, server

        reply, server = run(scenario())
        assert reply["decision"] == "yes"
        assert "stopped" in repr(server)

    def test_start_is_idempotent(self):
        async def scenario():
            server = await started_server()
            try:
                address = server.address
                again = await server.start()
                return address, again.address
            finally:
                await server.close()

        first, second = run(scenario())
        assert first == second

    def test_bad_configuration_rejected(self):
        pool = SessionPool(university_schema(ud_bound=100))
        for kwargs in (
            {"max_pending": 0},
            {"client_rate": 0},
            {"client_burst": 0},
            {"max_inflight_per_client": 0},
        ):
            try:
                DecideServer(pool, **kwargs)
            except ValueError:
                continue
            raise AssertionError(f"accepted {kwargs}")

    def test_removed_workers_knob_is_gone(self):
        import inspect

        import repro.defaults
        import repro.server
        from repro.server import run_server

        pool = SessionPool(university_schema(ud_bound=100))
        try:
            DecideServer(pool, workers=2)
        except TypeError:
            pass
        else:
            raise AssertionError("DecideServer accepted workers=")
        assert "workers" not in inspect.signature(run_server).parameters
        assert "workers" not in DecideServer(pool).server_stats()
        for name in ("DEFAULT_WORKERS", "DEFAULT_POOL_SIZE"):
            assert not hasattr(repro.defaults, name)
            assert name not in repro.server.__all__
