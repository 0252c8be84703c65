"""CI smoke: a live server under concurrent mixed-fingerprint load.

Run directly (``PYTHONPATH=src python tests/server/smoke_server.py``):
starts a real `DecideServer` on an ephemeral port, fires 50 concurrent
requests across three schema fingerprints (plus malformed frames and
introspection probes) from 10 concurrent TCP connections, asserts
every response, and shuts the server down cleanly.  Exit code 0 on
success — the CI server-smoke step gates on it.
"""

import asyncio
import json
import sys

from repro.io import schema_to_dict
from repro.server import DecideServer, SessionPool
from repro.workloads import (
    id_chain_workload,
    lookup_chain_workload,
    university_schema,
)

CONNECTIONS = 10
REQUESTS_PER_CONNECTION = 5  # 50 decide requests total


def request_mix():
    """Five requests per connection, spanning three fingerprints."""
    chain = schema_to_dict(lookup_chain_workload(3).schema)
    ids = schema_to_dict(id_chain_workload(4).schema)
    return [
        ({"query": "Udirectory(i,a,p)", "id": "default-yes"}, "yes"),
        ({"query": "Prof(i,n,10000)", "id": "default-no"}, "no"),
        ({"query": "L0(x, y)", "schema": chain, "id": "chain"}, "yes"),
        ({"query": "R0(x)", "schema": ids, "id": "ids"}, "yes"),
        ({"query": "Udirectory(x,y,z)", "id": "alpha"}, "yes"),
    ]


async def drive_connection(host: str, port: int, index: int) -> int:
    reader, writer = await asyncio.open_connection(host, port)
    mix = request_mix()
    # Stagger the order per connection so fingerprints interleave.
    mix = mix[index % len(mix):] + mix[: index % len(mix)]
    frames = [frame for frame, __ in mix]
    frames.append({"op": "ping", "id": "alive"})
    frames.append("not-json")  # must come back structured, not fatal
    for frame in frames:
        text = frame if isinstance(frame, str) else json.dumps(frame)
        writer.write(text.encode("utf-8") + b"\n")
    await writer.drain()
    decided = 0
    for position, expectation in enumerate(
        [decision for __, decision in mix] + ["pong", "error"]
    ):
        line = await asyncio.wait_for(reader.readline(), timeout=60)
        payload = json.loads(line)
        if expectation == "pong":
            assert payload == {"op": "pong", "id": "alive"}, payload
        elif expectation == "error":
            assert payload["error"]["type"] == "JSONDecodeError", payload
        else:
            assert payload["decision"] == expectation, (
                f"connection {index} frame {position}: {payload}"
            )
            decided += 1
    writer.close()
    await writer.wait_closed()
    return decided


async def main() -> int:
    pool = SessionPool(university_schema(ud_bound=100))
    server = await DecideServer(pool, port=0).start()
    host, port = server.address
    print(f"smoke server on {host}:{port}")
    try:
        decided = await asyncio.gather(
            *(
                drive_connection(host, port, index)
                for index in range(CONNECTIONS)
            )
        )
        total = sum(decided)
        assert total == CONNECTIONS * REQUESTS_PER_CONNECTION, total

        # Introspection: the pool saw all three fingerprints.
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b'{"op": "stats"}\n')
        await writer.drain()
        stats = json.loads(await reader.readline())
        writer.close()
        await writer.wait_closed()
        fingerprints = stats["pool"]["fingerprints"]
        assert fingerprints == 3, stats["pool"]
        assert stats["server"]["errors"] == CONNECTIONS
        assert stats["server"]["connections_open"] == 1  # just us
        print(
            f"ok: {total} decisions over {fingerprints} fingerprints, "
            f"{stats['server']['connections']} connections"
        )
    finally:
        await server.close()
    # Clean shutdown: the listener is gone and the port refuses.
    try:
        await asyncio.open_connection(host, port)
    except OSError:
        print("ok: clean shutdown, listener closed")
        return 0
    print("FAIL: server still accepting after close", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(asyncio.run(main()))
