"""End-to-end observability: TCP server, WSGI app, and fleet.

Asserts the ISSUE's acceptance criteria directly: ``GET /metrics``
(WSGI) and ``op: "metrics"`` (TCP, fleet-aggregated) expose the
request-latency histograms with per-stage timings, every legacy
``stats()`` counter rides along as a provider, and the registry's
provider values equal the legacy values (the no-second-bookkeeping
equivalence).
"""

import asyncio
import io
import json

from repro.io import json_safe
from repro.obs import (
    CONTENT_TYPE,
    MetricsRegistry,
    RequestLogger,
    flatten_stats,
    validate_exposition,
)
from repro.server import (
    DecideServer,
    FleetDispatcher,
    SessionPool,
    make_wsgi_app,
)
from repro.workloads import university_schema

QUERY = "Udirectory(i,a,p)"


def run(coroutine):
    return asyncio.run(coroutine)


async def exchange_raw(address, frames: list) -> list[bytes]:
    host, port = address
    reader, writer = await asyncio.open_connection(host, port)
    for frame in frames:
        text = frame if isinstance(frame, str) else json.dumps(frame)
        writer.write(text.encode("utf-8") + b"\n")
    await writer.drain()
    replies = []
    for __ in frames:
        replies.append(
            await asyncio.wait_for(reader.readline(), timeout=30)
        )
    writer.close()
    await writer.wait_closed()
    return replies


async def exchange(address, frames: list) -> list:
    return [
        json.loads(line) for line in await exchange_raw(address, frames)
    ]


class TestDecideServerMetrics:
    def test_op_metrics_exposes_request_histograms_and_stages(self):
        async def scenario():
            pool = SessionPool(university_schema(ud_bound=100))
            server = DecideServer(
                pool, port=0, metrics=MetricsRegistry()
            )
            await server.start()
            try:
                return await exchange(
                    server.address,
                    [
                        {"query": QUERY},
                        {"op": "plan", "query": QUERY},
                        {"op": "metrics", "id": "m"},
                    ],
                )
            finally:
                await server.close()

        decided, plan, frame = run(scenario())
        assert decided["decision"] == "yes"
        assert frame["op"] == "metrics" and frame["id"] == "m"
        assert isinstance(frame["pid"], int)
        snapshot = frame["metrics"]
        histograms = snapshot["histograms"]
        by_op = {
            tuple(sorted(s["labels"].items())): s
            for s in histograms["repro_request_ms"]["series"]
        }
        assert by_op[(("op", "decide"),)]["count"] == 1
        assert by_op[(("op", "plan"),)]["count"] == 1
        assert by_op[(("op", "decide"),)]["p50"] is not None
        stage_names = {
            s["labels"]["stage"]
            for s in histograms["repro_request_stage_ms"]["series"]
        }
        # a cold decide pays at least the executor queue and compile
        assert {"queue", "compile"} <= stage_names
        counters = {
            (name, tuple(sorted(s["labels"].items()))): s["value"]
            for name, samples in snapshot["counters"].items()
            for s in samples
        }
        assert counters[
            ("repro_requests_total", (("op", "decide"), ("outcome", "ok")))
        ] == 1.0

    def test_registry_providers_equal_legacy_stats(self):
        async def scenario():
            pool = SessionPool(university_schema(ud_bound=100))
            server = DecideServer(
                pool, port=0, metrics=MetricsRegistry()
            )
            await server.start()
            try:
                await exchange(server.address, [{"query": QUERY}])
            finally:
                await server.close()
            return server, pool

        server, pool = run(scenario())
        providers = server.metrics.collect_providers()
        # every numeric leaf of the legacy surfaces appears with the
        # same value among the registry's flattened provider samples
        for name, legacy in (
            ("pool", pool.stats()),
            ("server", server.server_stats()),
        ):
            expected = flatten_stats(json_safe(legacy), f"repro_{name}")
            actual = flatten_stats(
                json_safe(providers[name]), f"repro_{name}"
            )
            assert expected == actual
            assert expected  # non-vacuous: the dicts have numeric leaves
        assert providers["pool"]["counters"]["requests"] == 1

    def test_json_log_lines_carry_outcome_and_stages(self):
        stream = io.StringIO()

        async def scenario():
            pool = SessionPool(university_schema(ud_bound=100))
            server = DecideServer(
                pool,
                port=0,
                metrics=MetricsRegistry(),
                request_log=RequestLogger(stream=stream),
            )
            await server.start()
            try:
                return await exchange(
                    server.address,
                    [{"query": QUERY}, {"query": "Nope("}],
                )
            finally:
                await server.close()

        ok, bad = run(scenario())
        assert ok["decision"] == "yes" and "error" in bad
        records = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        assert len(records) == 2
        good, err = records
        assert good["event"] == "request" and good["op"] == "decide"
        assert good["outcome"] == "ok" and good["decision"] == "yes"
        assert good["elapsed_ms"] >= 0
        assert "compile" in good["stages_ms"]
        assert good["peer"]
        assert err["outcome"] == "error"
        assert err["error_type"] == "ParseError"

    def test_wire_frames_use_stable_key_order(self):
        async def scenario():
            pool = SessionPool(university_schema(ud_bound=100))
            server = DecideServer(pool, port=0)
            await server.start()
            try:
                return await exchange_raw(
                    server.address, [{"query": QUERY}, {"op": "stats"}]
                )
            finally:
                await server.close()

        for line in run(scenario()):
            parsed = json.loads(line)
            assert line.decode("utf-8").rstrip("\n") == json.dumps(
                parsed, sort_keys=True
            )

    def test_op_metrics_without_registry_still_answers(self):
        # A server started without metrics builds an ad-hoc registry so
        # the wire op never errors; pool counters are still present.
        async def scenario():
            pool = SessionPool(university_schema(ud_bound=100))
            server = DecideServer(pool, port=0)
            await server.start()
            try:
                return await exchange(
                    server.address,
                    [{"query": QUERY}, {"op": "metrics"}],
                )
            finally:
                await server.close()

        __, frame = run(scenario())
        assert frame["op"] == "metrics"
        providers = frame["metrics"]["providers"]
        assert providers["pool"]["counters"]["requests"] == 1


def wsgi_call(app, method="GET", path="/", body=None):
    raw = b"" if body is None else json.dumps(body).encode("utf-8")
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "CONTENT_LENGTH": str(len(raw)),
        "REMOTE_ADDR": "127.0.0.1",
        "wsgi.input": io.BytesIO(raw),
    }
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = dict(headers)

    chunks = b"".join(app(environ, start_response))
    return captured["status"], captured["headers"], chunks


class TestWsgiMetrics:
    def test_scrape_validates_and_counts_requests(self):
        registry = MetricsRegistry()
        app = make_wsgi_app(
            SessionPool(university_schema(ud_bound=100)),
            metrics=registry,
        )
        status, headers, __ = wsgi_call(
            app, "POST", "/decide", {"query": QUERY}
        )
        assert status == "200 OK"
        status, headers, body = wsgi_call(app, "GET", "/metrics")
        assert status == "200 OK"
        assert headers["Content-Type"] == CONTENT_TYPE
        text = body.decode("utf-8")
        names = validate_exposition(text)  # parseable, no duplicates
        assert 'repro_http_requests_total{op="decide",outcome="ok"} 1' in text
        assert 'repro_http_request_ms_count{op="decide"} 1' in text
        assert names["repro_http_request_ms_bucket"] >= 2
        # provider leaves (the legacy pool counters) ride along
        assert "repro_pool_counters_requests 1" in text
        assert "repro_pool_counters_fingerprints_recalled 0" in text

    def test_second_decide_increments_the_scrape(self):
        app = make_wsgi_app(SessionPool(university_schema(ud_bound=100)))
        for __ in range(2):
            wsgi_call(app, "POST", "/", {"query": QUERY})
        __, __, body = wsgi_call(app, "GET", "/metrics")
        assert (
            'repro_http_request_ms_count{op="decide"} 2'
            in body.decode("utf-8")
        )

    def test_parse_errors_are_observed_as_invalid(self):
        app = make_wsgi_app(SessionPool(university_schema(ud_bound=100)))
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/decide",
            "CONTENT_LENGTH": "3",
            "wsgi.input": io.BytesIO(b"{{{"),
        }
        captured = {}
        app(environ, lambda s, h: captured.setdefault("status", s))
        assert captured["status"] == "400 Bad Request"
        __, __, body = wsgi_call(app, "GET", "/metrics")
        assert (
            'repro_http_requests_total{op="invalid",outcome="error"} 1'
            in body.decode("utf-8")
        )

    def test_metrics_op_over_post_matches_the_wire_frame(self):
        app = make_wsgi_app(SessionPool(university_schema(ud_bound=100)))
        status, __, chunks = wsgi_call(
            app, "POST", "/", {"op": "metrics", "id": 5}
        )
        frame = json.loads(chunks)
        assert status == "200 OK"
        assert frame["op"] == "metrics" and frame["id"] == 5
        assert "histograms" in frame["metrics"]


class TestFleetMetrics:
    def test_op_metrics_aggregates_across_workers(self):
        async def scenario():
            pools = [
                SessionPool(university_schema(ud_bound=100))
                for __ in range(2)
            ]
            workers = [
                DecideServer(pool, port=0, metrics=MetricsRegistry())
                for pool in pools
            ]
            for worker in workers:
                await worker.start()
            dispatcher = FleetDispatcher(port=0)
            dispatcher.register_metrics(MetricsRegistry())
            await dispatcher.start()
            try:
                for index, worker in enumerate(workers):
                    host, port = worker.address
                    await dispatcher.add_worker(f"w{index}", host, port)
                replies = await exchange(
                    dispatcher.address,
                    [
                        {"query": QUERY},
                        {"query": QUERY},
                        {"op": "metrics", "id": "agg"},
                    ],
                )
                return replies
            finally:
                await dispatcher.close(drain_timeout=5)
                for worker in workers:
                    await worker.close()

        first, second, frame = run(scenario())
        assert first["decision"] == second["decision"] == "yes"
        assert frame["op"] == "metrics" and frame["id"] == "agg"
        assert isinstance(frame["pid"], int)
        assert frame["fleet"]["workers"] == 2
        by_id = {entry["worker"]: entry for entry in frame["workers"]}
        assert set(by_id) == {"w0", "w1"}
        for entry in by_id.values():
            assert isinstance(entry["pid"], int)
            assert "shards" in entry
            assert "histograms" in entry["metrics"]
        # both decides hit one worker (same fingerprint routes sticky);
        # the aggregate merges worker snapshots bucket-wise
        aggregate = frame["aggregate"]
        assert aggregate["workers_merged"] == 2
        (series,) = [
            s
            for s in aggregate["histograms"]["repro_request_ms"]["series"]
            if s["labels"] == {"op": "decide"}
        ]
        assert series["count"] == 2
        assert series["p50"] is not None
        # the dispatcher's own registry snapshot rides along
        assert "counters" in frame["dispatcher"]

    def test_dispatcher_counts_its_own_requests(self):
        async def scenario():
            pool = SessionPool(university_schema(ud_bound=100))
            worker = DecideServer(pool, port=0)
            await worker.start()
            dispatcher = FleetDispatcher(port=0)
            dispatcher.register_metrics(MetricsRegistry())
            await dispatcher.start()
            try:
                host, port = worker.address
                await dispatcher.add_worker("w0", host, port)
                await exchange(
                    dispatcher.address,
                    [{"query": QUERY}, {"op": "ping"}],
                )
                return dispatcher.metrics.snapshot()
            finally:
                await dispatcher.close(drain_timeout=5)
                await worker.close()

        snapshot = run(scenario())
        counters = {
            (name, tuple(sorted(s["labels"].items()))): s["value"]
            for name, samples in snapshot["counters"].items()
            for s in samples
        }
        assert counters[
            (
                "repro_fleet_requests_total",
                (("op", "decide"), ("outcome", "ok")),
            )
        ] == 1.0
        assert snapshot["providers"]["fleet"]["workers"] == 1

    def test_dispatcher_logs_relayed_and_own_replies(self):
        # Relayed replies reach the dispatcher undecoded; the request
        # log still sees their fields, and metrics tell a worker's
        # error frame from a decision.
        async def scenario():
            pool = SessionPool(university_schema(ud_bound=100))
            worker = DecideServer(pool, port=0)
            await worker.start()
            stream = io.StringIO()
            dispatcher = FleetDispatcher(port=0)
            dispatcher.register_metrics(MetricsRegistry())
            dispatcher.set_request_log(
                RequestLogger(stream=stream, clock=lambda: 0.0)
            )
            await dispatcher.start()
            try:
                host, port = worker.address
                await dispatcher.add_worker("w0", host, port)
                await exchange(
                    dispatcher.address,
                    [
                        {"query": QUERY, "id": "a"},
                        {"query": "not a query (", "id": "b"},
                        "{not json",
                    ],
                )
                return stream.getvalue(), dispatcher.metrics.snapshot()
            finally:
                await dispatcher.close(drain_timeout=5)
                await worker.close()

        text, snapshot = run(scenario())
        decided, refused, garbled = map(json.loads, text.splitlines())
        assert decided["op"] == "decide" and decided["id"] == "a"
        assert decided["outcome"] == "ok" and decided["fingerprint"]
        assert refused["outcome"] == "error" and refused["id"] == "b"
        assert refused["error_type"] == "ParseError"
        assert refused["retryable"] is False
        assert garbled["op"] == "invalid" and garbled["outcome"] == "error"
        counters = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in snapshot["counters"]["repro_fleet_requests_total"]
        }
        assert counters[(("op", "decide"), ("outcome", "ok"))] == 1.0
        assert counters[(("op", "decide"), ("outcome", "error"))] == 1.0
        assert counters[(("op", "invalid"), ("outcome", "error"))] == 1.0
