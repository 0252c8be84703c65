"""End-to-end graceful drain: a real ``python -m repro serve`` child,
a real in-flight request, a real SIGTERM.

The contract under test is the CLI's: on SIGTERM the server stops
accepting, finishes (or deadline-cancels) in-flight work, flushes each
connection's final frame, and exits 0 within ``--drain-timeout``.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time

from repro.io import schema_to_dict
from repro.workloads import lookup_fanout_workload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def start_server(tmp_path, lookups, *extra_args):
    """Spawn ``python -m repro serve`` on an ephemeral port; returns
    (process, host, port) once the banner confirms it is listening."""
    workload = lookup_fanout_workload(lookups)
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema_to_dict(workload.schema)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            str(schema_path),
            "--port",
            "0",
            *extra_args,
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 30
    banner = ""
    while time.monotonic() < deadline:
        banner = process.stderr.readline()
        if banner.startswith("serving on "):
            break
        if process.poll() is not None:
            raise AssertionError(
                f"server died before binding: {process.stderr.read()}"
            )
    else:
        raise AssertionError("no serving banner within 30s")
    address = banner.split()[2]
    host, port = address.rsplit(":", 1)
    return process, workload, host, int(port)


def terminate(process):
    if process.poll() is None:
        process.kill()
    process.stderr.close()
    process.wait(10)


class TestSigtermDrain:
    def test_in_flight_request_finishes_and_exit_is_clean(self, tmp_path):
        # lookup_fanout(6) decides in ~1s: SIGTERM lands mid-decision,
        # the generous drain budget lets it finish naturally.
        process, workload, host, port = start_server(
            tmp_path, 6, "--drain-timeout", "30"
        )
        try:
            with socket.create_connection((host, port), timeout=30) as conn:
                conn.settimeout(30)
                frame = {"query": repr(workload.query), "id": "inflight"}
                conn.sendall(json.dumps(frame).encode() + b"\n")
                time.sleep(0.1)  # let the worker pick the frame up
                process.send_signal(signal.SIGTERM)
                stream = conn.makefile("rb")
                reply = json.loads(stream.readline())
                assert reply.get("decision") in ("yes", "no")
                assert reply["id"] == "inflight"
                assert stream.readline() == b""  # then the close
            assert process.wait(timeout=30) == 0
            drained = process.stderr.read()
            assert "draining" in drained
            assert "shutdown complete" in drained
        finally:
            terminate(process)

    def test_slow_request_is_deadline_cancelled_within_drain_timeout(
        self, tmp_path
    ):
        # lookup_fanout(7) runs for seconds; a 1s drain budget cancels
        # it halfway through and the client still gets a final frame.
        process, workload, host, port = start_server(
            tmp_path, 7, "--drain-timeout", "1"
        )
        try:
            with socket.create_connection((host, port), timeout=30) as conn:
                conn.settimeout(30)
                frame = {"query": repr(workload.query), "id": "doomed"}
                conn.sendall(json.dumps(frame).encode() + b"\n")
                time.sleep(0.3)
                sigterm_at = time.monotonic()
                process.send_signal(signal.SIGTERM)
                stream = conn.makefile("rb")
                reply = json.loads(stream.readline())
                assert reply["error"]["type"] == "DeadlineExceeded"
                assert reply["error"]["retryable"] is True
                assert "drain" in reply["error"]["message"]
                assert reply["id"] == "doomed"
            assert process.wait(timeout=30) == 0
            # Exit landed within the drain timeout (plus slack for the
            # interpreter to unwind), not after the full computation.
            assert time.monotonic() - sigterm_at < 10.0
        finally:
            terminate(process)

    def test_idle_server_exits_promptly_on_sigterm(self, tmp_path):
        process, __, host, port = start_server(
            tmp_path, 3, "--drain-timeout", "10"
        )
        try:
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=15) == 0
        finally:
            terminate(process)
