"""Tests for the stdlib WSGI adapter (app called directly, no httpd)."""

import io
import json

from repro.server import SessionPool, make_wsgi_app
from repro.workloads import university_schema


def call(app, method="GET", path="/", body=None):
    """Invoke the WSGI app; return (status, payload)."""
    raw = b"" if body is None else json.dumps(body).encode("utf-8")
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "CONTENT_LENGTH": str(len(raw)),
        "wsgi.input": io.BytesIO(raw),
    }
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = dict(headers)

    chunks = b"".join(app(environ, start_response))
    assert captured["headers"]["Content-Type"] == "application/json"
    assert int(captured["headers"]["Content-Length"]) == len(chunks)
    return captured["status"], json.loads(chunks)


def app():
    return make_wsgi_app(SessionPool(university_schema(ud_bound=100)))


class TestRoutes:
    def test_decide(self):
        status, payload = call(
            app(), "POST", "/decide", {"query": "Udirectory(i,a,p)"}
        )
        assert status == "200 OK"
        assert payload["decision"] == "yes"

    def test_decide_at_root_and_plan_op(self):
        application = app()
        status, payload = call(
            application,
            "POST",
            "/",
            {"op": "plan", "query": "Udirectory(i,a,p)", "id": 3},
        )
        assert status == "200 OK"
        assert payload["answerable"] is True and payload["id"] == 3

    def test_stats_and_healthz(self):
        application = app()
        call(application, "POST", "/", {"query": "Udirectory(i,a,p)"})
        status, payload = call(application, "GET", "/stats")
        assert status == "200 OK"
        assert payload["pool"]["counters"]["requests"] == 1
        status, payload = call(application, "GET", "/healthz")
        assert status == "200 OK" and payload == {"ok": True}

    def test_ping_op(self):
        status, payload = call(
            app(), "POST", "/", {"op": "ping", "id": "x"}
        )
        assert status == "200 OK"
        assert payload == {"op": "pong", "id": "x"}


class TestErrors:
    def test_unknown_route_is_structured_404(self):
        status, payload = call(app(), "GET", "/nope")
        assert status == "404 Not Found"
        assert payload["error"]["type"] == "NotFound"

    def test_malformed_body_is_structured_400(self):
        application = app()
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/",
            "CONTENT_LENGTH": "9",
            "wsgi.input": io.BytesIO(b"not-json!"),
        }
        captured = {}
        body = b"".join(
            application(
                environ,
                lambda s, h: captured.update(status=s),
            )
        )
        assert captured["status"] == "400 Bad Request"
        assert json.loads(body)["error"]["type"] == "JSONDecodeError"

    def test_decision_error_is_structured_400(self):
        status, payload = call(
            app(), "POST", "/", {"query": "Bad((", "id": 9}
        )
        assert status == "400 Bad Request"
        assert payload["error"]["type"] == "ParseError"
        assert payload["id"] == 9

    def test_misfit_query_is_structured_400(self):
        status, payload = call(
            app(), "POST", "/", {"query": "Udirectory(i, a)", "id": 3}
        )
        assert status == "400 Bad Request"
        assert payload["error"]["type"] == "QuerySchemaError"
        assert payload["id"] == 3

    def test_internal_failure_is_500_not_400(self):
        class ExplodingPool:
            def process(self, request):
                raise RuntimeError("decider blew up")

        application = make_wsgi_app(ExplodingPool())
        status, payload = call(
            application, "POST", "/", {"query": "R(x)", "id": 5}
        )
        assert status == "500 Internal Server Error"
        assert payload["error"]["type"] == "RuntimeError"
        assert payload["id"] == 5

    def test_oversized_body_is_413(self):
        application = app()
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/",
            "CONTENT_LENGTH": str((1 << 20) + 1),
            "wsgi.input": io.BytesIO(b""),
        }
        captured = {}
        body = b"".join(
            application(environ, lambda s, h: captured.update(status=s))
        )
        assert captured["status"] == "413 Payload Too Large"
        assert json.loads(body)["error"]["type"] == "FrameTooLong"

    def test_negative_content_length_is_400_and_reads_nothing(self):
        # read(-1) would read to EOF, past MAX_BODY_BYTES.
        application = app()
        stream = io.BytesIO(b'{"query": "Udirectory(i,a,p)"}' * 1000)
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/",
            "CONTENT_LENGTH": "-1",
            "wsgi.input": stream,
        }
        captured = {}
        body = b"".join(
            application(environ, lambda s, h: captured.update(status=s))
        )
        assert captured["status"] == "400 Bad Request"
        assert json.loads(body)["error"]["type"] == "InvalidContentLength"
        assert stream.tell() == 0

    def test_wrong_method_is_structured_404(self):
        application = app()
        for method, path in [
            ("GET", "/decide"),
            ("POST", "/healthz"),
            ("POST", "/stats"),
            ("DELETE", "/"),
        ]:
            status, payload = call(application, method, path)
            assert status == "404 Not Found", (method, path)
            assert payload["error"]["type"] == "NotFound"

    def test_agrees_with_tcp_protocol_payloads(self):
        # The WSGI and TCP front ends share SessionPool.process, so
        # their response payloads are identical modulo timing fields.
        pool = SessionPool(university_schema(ud_bound=100))
        application = make_wsgi_app(pool)
        __, via_wsgi = call(
            application, "POST", "/", {"query": "Udirectory(i,a,p)"}
        )
        from repro.io import DecideRequest

        direct = pool.process(
            DecideRequest(query="Udirectory(a,b,c)")
        ).to_dict()
        for payload in (via_wsgi, direct):
            payload.pop("elapsed_ms", None)
            payload.pop("cached", None)
            payload.pop("query", None)
        assert via_wsgi == direct


def call_with_headers(app, body):
    """Like `call` but also returns the response headers."""
    raw = json.dumps(body).encode("utf-8")
    environ = {
        "REQUEST_METHOD": "POST",
        "PATH_INFO": "/",
        "CONTENT_LENGTH": str(len(raw)),
        "wsgi.input": io.BytesIO(raw),
    }
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = dict(headers)

    chunks = b"".join(app(environ, start_response))
    return captured["status"], captured["headers"], json.loads(chunks)


class TestRetryableErrors:
    """Resource exhaustion maps to 503 + Retry-After, never 4xx/500."""

    def test_deadline_exceeded_is_503_with_retry_after(self):
        from repro.server import SessionLimits
        from repro.workloads import lookup_fanout_workload

        pool = SessionPool(
            lookup_fanout_workload(7).schema,
            limits=SessionLimits(deadline_ms=5.0),
        )
        application = make_wsgi_app(pool)
        status, headers, payload = call_with_headers(
            application,
            {"query": repr(lookup_fanout_workload(7).query), "id": 7},
        )
        assert status == "503 Service Unavailable"
        assert headers["Retry-After"] == "1"  # floor when no hint
        assert payload["error"]["type"] == "DeadlineExceeded"
        assert payload["error"]["retryable"] is True
        assert payload["id"] == 7

    def test_overloaded_hint_rounds_up_to_whole_seconds(self):
        from repro.runtime import Overloaded

        class SheddingPool:
            def process(self, request, **kwargs):
                raise Overloaded("full up", retry_after_ms=1800.0)

        status, headers, payload = call_with_headers(
            make_wsgi_app(SheddingPool()), {"query": "R(x)", "id": 8}
        )
        assert status == "503 Service Unavailable"
        assert headers["Retry-After"] == "2"  # ceil(1800ms)
        assert payload["error"]["type"] == "Overloaded"
        assert payload["error"]["retryable"] is True
        assert payload["error"]["retry_after_ms"] == 1800.0
        assert payload["id"] == 8
