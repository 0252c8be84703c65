"""CI smoke: seeded fault injection against a live server.

Run directly (``PYTHONPATH=src python tests/faults/smoke_chaos.py``):
starts a real `DecideServer` on an ephemeral port, drives three seeded
chaos sessions through the `tests.faults.chaos` transport — malformed
JSON, truncated and oversized frames, mid-frame disconnects, slow
writes, deadline expiries — and asserts the resilience invariant:
every reply is either a correct decision (fresh-session oracle) or a
structured error of a known type, the post-chaos pool still agrees
with the oracle (no cache poisoning), and shutdown is clean.  Exit
code 0 on success — the CI fault-smoke step gates on it.
"""

import asyncio
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))

from faults.chaos import run_chaos, verify  # noqa: E402

from repro.io import schema_to_dict  # noqa: E402
from repro.server import DecideServer, SessionPool  # noqa: E402
from repro.service import Session  # noqa: E402
from repro.workloads import (  # noqa: E402
    lookup_fanout_workload,
    university_schema,
)

SEEDS = (11, 22, 33)
ROUNDS = 12

QUERIES = [
    "Udirectory(i, a, p)",
    "Prof(i, n, 10000)",
    "Q(n) :- Prof(i, n, s)",
    "Q() :- Udirectory(i, a, p), Prof(i, n, s)",
]


async def main() -> int:
    oracle = {
        q: Session(university_schema(ud_bound=100)).decide(q).decision
        for q in QUERIES
    }
    slow_workload = lookup_fanout_workload(7)
    slow_request = {
        "schema": schema_to_dict(slow_workload.schema),
        "query": repr(slow_workload.query),
    }
    pool = SessionPool(university_schema(ud_bound=100))
    server = await DecideServer(pool, port=0).start()
    host, port = server.address
    print(f"chaos target on {host}:{port}")
    try:
        total = 0
        for seed in SEEDS:
            records = await run_chaos(
                host,
                port,
                seed=seed,
                rounds=ROUNDS,
                queries=QUERIES,
                slow_request=slow_request,
            )
            total += len(records)
            violations = verify(records, oracle)
            if violations:
                for violation in violations:
                    print(f"FAIL seed {seed}: {violation}", file=sys.stderr)
                return 1
            print(f"ok: seed {seed}, {len(records)} actions, 0 violations")
        # The battered pool still answers like a fresh one.
        reader, writer = await asyncio.open_connection(host, port)
        for query in QUERIES:
            writer.write(json.dumps({"query": query}).encode() + b"\n")
            await writer.drain()
            reply = json.loads(
                await asyncio.wait_for(reader.readline(), timeout=60)
            )
            if reply.get("decision") != oracle[query]:
                print(
                    f"FAIL: post-chaos pool disagrees on {query!r}: "
                    f"{reply}",
                    file=sys.stderr,
                )
                return 1
        writer.close()
        await writer.wait_closed()
        print(f"ok: {total} chaos actions, post-chaos pool unpoisoned")
    finally:
        await server.close(drain_timeout=10.0)
    try:
        await asyncio.open_connection(host, port)
    except OSError:
        print("ok: clean shutdown, listener closed")
        return 0
    print("FAIL: server still accepting after close", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(asyncio.run(main()))
