"""CI smoke: live `/metrics` scrape plus the `op: "metrics"` wire frame.

Run directly (``PYTHONPATH=src python tests/obs/smoke_metrics.py``):

* starts a real `DecideServer` (TCP) with a shared `MetricsRegistry`
  and JSON request logging, decides a few queries, asks for the
  ``op: "metrics"`` frame, and asserts the request histogram counted
  every decide with a per-stage split;
* serves the same pool over the WSGI adapter via ``wsgiref`` in a
  thread, scrapes ``GET /metrics`` over real HTTP, and runs the
  payload through `validate_exposition` (parseable Prometheus text,
  no duplicate series);
* asserts the JSON log emitted one record per request.

Exit code 0 on success — the CI metrics-smoke step gates on it.
"""

import asyncio
import io
import json
import sys
import threading
import urllib.request
from wsgiref.simple_server import WSGIServer, make_server

from repro.obs import (
    CONTENT_TYPE,
    MetricsRegistry,
    RequestLogger,
    validate_exposition,
)
from repro.server import DecideServer, SessionPool, make_wsgi_app
from repro.workloads import university_schema

DECIDES = 5


async def tcp_leg(pool: SessionPool, log_stream: io.StringIO) -> None:
    registry = MetricsRegistry()
    server = DecideServer(
        pool,
        port=0,
        metrics=registry,
        request_log=RequestLogger(stream=log_stream),
    )
    await server.start()
    host, port = server.address
    print(f"smoke TCP server on {host}:{port}")
    try:
        reader, writer = await asyncio.open_connection(host, port)
        frames = [
            {"query": "Udirectory(i,a,p)", "id": index}
            for index in range(DECIDES)
        ]
        frames.append({"op": "metrics", "id": "m"})
        for frame in frames:
            writer.write(json.dumps(frame).encode("utf-8") + b"\n")
        await writer.drain()
        replies = []
        for __ in frames:
            line = await asyncio.wait_for(reader.readline(), timeout=60)
            replies.append(json.loads(line))
        writer.close()
        await writer.wait_closed()
        *decisions, metrics_frame = replies
        assert all(r["decision"] == "yes" for r in decisions), decisions
        assert metrics_frame["op"] == "metrics", metrics_frame
        snapshot = metrics_frame["metrics"]
        (series,) = [
            s
            for s in snapshot["histograms"]["repro_request_ms"]["series"]
            if s["labels"] == {"op": "decide"}
        ]
        assert series["count"] == DECIDES, series
        assert series["p50"] is not None and series["p99"] is not None
        stages = {
            s["labels"]["stage"]
            for s in snapshot["histograms"]["repro_request_stage_ms"][
                "series"
            ]
        }
        assert "queue" in stages and "compile" in stages, stages
        assert (
            snapshot["providers"]["pool"]["counters"]["requests"]
            == DECIDES
        ), snapshot["providers"]["pool"]
        # the exposition of the same registry validates too
        counts = validate_exposition(registry.render())
        assert counts["repro_request_ms_count"] >= 1, counts
        print(
            f"ok: op:metrics counted {series['count']} decides, "
            f"stages {sorted(stages)}"
        )
    finally:
        await server.close()


def http_leg(pool: SessionPool) -> None:
    app = make_wsgi_app(pool)

    class QuietServer(WSGIServer):
        def handle_error(self, request, client_address):  # pragma: no cover
            raise

    httpd = make_server("127.0.0.1", 0, app, server_class=QuietServer)
    host, port = httpd.server_address
    print(f"smoke HTTP server on {host}:{port}")
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        body = json.dumps({"query": "Udirectory(i,a,p)"}).encode("utf-8")
        with urllib.request.urlopen(
            urllib.request.Request(
                f"http://{host}:{port}/decide", data=body
            ),
            timeout=30,
        ) as response:
            assert json.loads(response.read())["decision"] == "yes"
        with urllib.request.urlopen(
            f"http://{host}:{port}/metrics", timeout=30
        ) as response:
            assert response.status == 200, response.status
            content_type = response.headers["Content-Type"]
            assert content_type == CONTENT_TYPE, content_type
            text = response.read().decode("utf-8")
        names = validate_exposition(text)  # raises on malformed/duplicate
        assert (
            'repro_http_request_ms_count{op="decide"} 1' in text
        ), "decide did not increment the request histogram"
        assert "repro_pool_counters_requests" in text, (
            "legacy pool counters missing from the scrape"
        )
        print(
            f"ok: /metrics scrape valid, {len(names)} series names, "
            f"{sum(names.values())} samples"
        )
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)


def main() -> int:
    log_stream = io.StringIO()
    pool = SessionPool(university_schema(ud_bound=100))
    asyncio.run(tcp_leg(pool, log_stream))
    records = [
        json.loads(line) for line in log_stream.getvalue().splitlines()
    ]
    assert len(records) == DECIDES + 1, len(records)  # + op:metrics
    assert all(r["event"] == "request" for r in records), records
    assert sum(r.get("op") == "decide" for r in records) == DECIDES
    print(f"ok: {len(records)} JSON log records")
    http_leg(SessionPool(university_schema(ud_bound=100)))
    print("ok: metrics smoke complete")
    return 0


if __name__ == "__main__":
    sys.exit(main())
