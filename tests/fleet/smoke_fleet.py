"""CI smoke: a live worker fleet surviving a SIGKILL mid-run.

Run directly (``PYTHONPATH=src python tests/fleet/smoke_fleet.py``):
launches ``python -m repro fleet`` with 2 workers behind the
dispatcher, parses the readiness line, fires 50 mixed-fingerprint
requests, SIGKILLs one worker process midway through, and asserts the
fault invariant end to end:

* every reply is a correct decision or a **typed retryable** error
  (``WorkerLost`` / ``Overloaded``) — never a wrong answer, never a
  hang, never an untyped failure;
* the supervisor restarts the worker and the ring re-admits it under
  the same worker id with a fresh pid;
* after recovery a full request pass succeeds;
* SIGTERM drains the whole fleet and the process exits 0.

With ``--log-format json`` the fleet runs with JSON request logs, and
the smoke also asserts one dispatcher record (``peer: "dispatcher"``)
per forwarded frame, each carrying its ``outcome`` (and, for decisions,
the ``fingerprint``).  The dispatcher relays worker replies undecoded
unless it logs, so this run covers the path that still decodes every
reply.  Stderr is drained as it is produced in both modes: the workers
inherit it, so an unread pipe could fill and stall them.
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
REQUESTS = 50
RETRYABLE = ("WorkerLost", "Overloaded")


def request_mix() -> list[tuple[dict, str]]:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.io import schema_to_dict
    from repro.workloads import id_chain_workload, lookup_chain_workload

    chain = schema_to_dict(lookup_chain_workload(3).schema)
    ids = schema_to_dict(id_chain_workload(4).schema)
    return [
        ({"query": "Udirectory(i,a,p)"}, "yes"),
        ({"query": "Prof(i,n,10000)"}, "no"),
        ({"query": "L0(x, y)", "schema": chain}, "yes"),
        ({"query": "R0(x)", "schema": ids}, "yes"),
        ({"query": "Udirectory(x,y,z)"}, "yes"),
    ]


def launch_fleet(
    log_format: str,
) -> tuple[subprocess.Popen, dict, list[str], threading.Thread]:
    """Start the fleet; returns it, its ready frame, the list its stderr
    lines are collected into, and the thread collecting them."""
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "fleet",
            str(ROOT / "examples" / "university.json"),
            "--workers", "2",
            "--port", "0",
            "--backoff-base", "0.1",
            "--backoff-cap", "0.5",
            "--health-interval", "0.2",
            "--drain-timeout", "10",
            "--log-format", log_format,
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    stderr: list[str] = []
    drain = threading.Thread(
        target=lambda: stderr.extend(process.stderr), daemon=True
    )
    drain.start()
    deadline = time.monotonic() + 90
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        try:
            payload = json.loads(line)
        except ValueError:
            continue
        if "ready" in payload:
            return process, payload["ready"], stderr, drain
    process.kill()
    process.wait(timeout=10)
    raise AssertionError(
        "fleet never became ready: " + "".join(stderr)[-2000:]
    )


class Client:
    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=30)
        self.stream = self.sock.makefile("rw")

    def rpc(self, frame: dict) -> dict:
        self.stream.write(json.dumps(frame) + "\n")
        self.stream.flush()
        line = self.stream.readline()
        assert line, "connection closed mid-exchange"
        return json.loads(line)

    def close(self) -> None:
        self.sock.close()


def worker_pids(client: Client) -> dict[str, int]:
    stats = client.rpc({"op": "stats"})
    return {
        entry["worker"]: entry["pid"] for entry in stats["workers"]
    }


def dispatcher_records(stderr: list[str]) -> list[dict]:
    """The dispatcher's JSON request-log records among stderr lines
    (banners and the workers' own records are skipped)."""
    records = []
    for line in stderr:
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and record.get("peer") == "dispatcher":
            records.append(record)
    return records


def check_request_log(stderr: list[str], forwarded: int) -> None:
    decides = [r for r in dispatcher_records(stderr) if r["op"] == "decide"]
    assert len(decides) == forwarded, (
        f"{len(decides)} dispatcher records for {forwarded} frames"
    )
    for record in decides:
        assert record["outcome"] in ("ok", "error"), record
        if record["outcome"] == "ok":
            assert record.get("fingerprint"), record
        else:
            assert record["error_type"] in RETRYABLE, record
    print(f"request log: one dispatcher record per frame ({forwarded})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--log-format", choices=("text", "json"), default="text"
    )
    log_format = parser.parse_args().log_format
    process, ready, stderr, drain = launch_fleet(log_format)
    assert ready["role"] == "fleet" and ready["workers"] == 2, ready
    exit_code = 1
    try:
        client = Client(ready["host"], ready["port"])
        pids = worker_pids(client)
        assert len(pids) == 2, pids
        victim_id, victim_pid = sorted(pids.items())[0]
        print(f"fleet up: {pids}; will SIGKILL {victim_id} ({victim_pid})")

        mix = request_mix()
        wrong, retryable, decided = [], 0, 0
        for index in range(REQUESTS):
            if index == REQUESTS // 3:
                os.kill(victim_pid, signal.SIGKILL)
                print(f"killed {victim_id} mid-run")
            frame, expected = mix[index % len(mix)]
            reply = client.rpc({**frame, "id": index})
            error = reply.get("error")
            if error is not None:
                if error.get("retryable") and error["type"] in RETRYABLE:
                    retryable += 1
                else:
                    wrong.append(reply)
            elif reply.get("decision") == expected:
                decided += 1
            else:
                wrong.append(reply)
        assert not wrong, f"invariant violations: {wrong[:5]}"
        print(
            f"{REQUESTS} requests through the kill: {decided} decided, "
            f"{retryable} typed retryable, 0 wrong"
        )

        deadline = time.monotonic() + 60
        recovered = {}
        while time.monotonic() < deadline:
            recovered = worker_pids(client)
            if (
                len(recovered) == 2
                and recovered.get(victim_id)
                and recovered[victim_id] != victim_pid
            ):
                break
            time.sleep(0.2)
        else:
            raise AssertionError(
                f"ring never recovered: {recovered} (victim {victim_pid})"
            )
        print(
            f"ring re-admitted {victim_id}: pid {victim_pid} -> "
            f"{recovered[victim_id]}"
        )

        for index, (frame, expected) in enumerate(mix * 2):
            reply = client.rpc({**frame, "id": f"post-{index}"})
            assert reply.get("decision") == expected, reply
        print("post-recovery pass: all shards serving")
        client.close()

        process.send_signal(signal.SIGTERM)
        exit_code = process.wait(timeout=60)
        assert exit_code == 0, f"drain exited {exit_code}"
        print("SIGTERM drain: exit 0")
        if log_format == "json":
            drain.join(timeout=10)  # until stderr's EOF
            check_request_log(stderr, REQUESTS + 2 * len(mix))
        print("fleet smoke passed")
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
        if exit_code != 0:
            print("".join(stderr)[-2000:], file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
