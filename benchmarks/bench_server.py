"""Server throughput: concurrent clients vs the serial front ends.

Measures what the `repro.server` layer buys on **mixed-fingerprint**
traffic — the workload the per-fingerprint `SessionPool` exists for.
The request stream interleaves four schemas (FD, ID-chain, lookup-chain
and the university example: every Table-1 route family), so consecutive
requests almost never share a schema:

* **single-session serial** (the speedup baseline, and what the
  pre-server API offered a serving loop): one live `Session` at a
  time, torn down and recompiled whenever the incoming fingerprint
  changes — cross-fingerprint interleaving defeats every per-schema
  cache;
* **pooled batch serial** (the ``batch`` CLI path): a serial loop over
  one `SessionPool`, fingerprint routing but no concurrency — recorded
  for context, not gated;
* **server, N concurrent clients**: a live `DecideServer` (its fixed
  decision threads, one session per fingerprint), the stream sharded
  over N TCP connections.

The headline ``speedup`` is single-session-serial / server wall time.
Decisions are CPU-bound Python, so the win is *architectural* — the
pool amortizes per-fingerprint compilation and decision caches across
interleaved traffic while clients overlap framing and I/O — not GIL
parallelism.  Agreement between all three paths is asserted before
timing.  Results go to ``BENCH_server.json`` (``--smoke`` writes a
sidecar and shrinks sizes for CI).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from pathlib import Path

from _harness import ROOT, BenchRecord, write_bench_json

from repro.io import schema_from_dict, schema_to_dict
from repro.server import DecideServer, SessionPool
from repro.server.server import DECISION_THREADS
from repro.service import Session
from repro.workloads import (
    fd_determinacy_workload,
    id_chain_workload,
    lookup_chain_workload,
    university_schema,
)

CLIENTS = 8


def schema_families(smoke: bool):
    """(name, description, queries) per fingerprint in the mix."""
    chain = 3 if smoke else 4
    depth = 4 if smoke else 8
    fd = fd_determinacy_workload(4)
    fd_query = ", ".join(
        f"{a.relation}({', '.join(map(str, a.terms))})"
        for a in fd.query.atoms
    )
    return [
        (
            "university",
            schema_to_dict(university_schema(ud_bound=100)),
            ["Udirectory(i, a, p)", "Prof(i, n, 10000)"],
        ),
        (
            "lookup-chain",
            schema_to_dict(lookup_chain_workload(chain).schema),
            ["L0(x, y)", "L0(x, y), L1(x, z)", "L2(x, y)"],
        ),
        (
            "id-chain",
            schema_to_dict(id_chain_workload(depth).schema),
            [f"R{i}(x)" for i in range(depth + 1)],
        ),
        ("fd-views", schema_to_dict(fd.schema), [fd_query]),
    ]


def build_stream(families, rounds: int) -> list[dict]:
    """Interleaved requests: consecutive frames change fingerprint."""
    stream = []
    for round_index in range(rounds):
        for __, description, queries in families:
            stream.append(
                {
                    "query": queries[round_index % len(queries)],
                    "schema": description,
                    "id": len(stream),
                }
            )
    return stream


# ----------------------------------------------------------------------
# The three execution paths
# ----------------------------------------------------------------------
def run_single_session_serial(stream) -> dict[int, str]:
    """One live session; fingerprint switches recompile everything."""
    decisions: dict[int, str] = {}
    session = None
    current = None
    for request in stream:
        text = json.dumps(request["schema"], sort_keys=True)
        if text != current:
            session = Session(schema_from_dict(request["schema"]))
            current = text
        decisions[request["id"]] = session.decide(
            request["query"]
        ).decision
    return decisions


def run_pooled_batch_serial(stream) -> dict[int, str]:
    """The batch CLI path: serial loop over a fingerprint-routed pool."""
    from repro.io import DecideRequest

    pool = SessionPool()
    decisions: dict[int, str] = {}
    for request in stream:
        response = pool.process(
            DecideRequest(
                query=request["query"],
                schema=request["schema"],
                id=request["id"],
            )
        )
        decisions[request["id"]] = response.decision
    return decisions


async def _run_server_clients(
    stream, clients: int, metrics=None
) -> dict[int, str]:
    pool = SessionPool()
    server = await DecideServer(pool, port=0, metrics=metrics).start()
    host, port = server.address
    decisions: dict[int, str] = {}

    async def client(shard) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        for request in shard:
            writer.write(json.dumps(request).encode("utf-8") + b"\n")
        await writer.drain()
        for __ in shard:
            payload = json.loads(await reader.readline())
            decisions[payload["id"]] = payload["decision"]
        writer.close()
        await writer.wait_closed()

    try:
        await asyncio.gather(
            *(client(stream[i::clients]) for i in range(clients))
        )
    finally:
        await server.close()
    return decisions


def run_server_concurrent(
    stream, clients: int = CLIENTS, metrics=None
) -> dict[int, str]:
    """A fresh server per run: cold pool, like the serial baselines."""
    return asyncio.run(_run_server_clients(stream, clients, metrics))


# ----------------------------------------------------------------------
# Metrics overhead: the concurrent-client scenario, registry on vs off
# ----------------------------------------------------------------------
def run_metrics_overhead(stream, repeat: int) -> BenchRecord:
    """The identical concurrent-client pass with and without a live
    `MetricsRegistry` on the server: per-request counter/histogram
    updates, the stage timer on every decide, and provider
    registration.  The ISSUE budget is ≤5% overhead; CI gates only on
    collapse (the inverted ratio rides the generic ``speedup`` gate),
    the exact percentage is recorded for the nightly report."""
    from repro.obs import MetricsRegistry

    # Interleave off/on passes so machine drift (thermal, co-tenant
    # load) hits both sides equally — a sequential off-block/on-block
    # ordering reads drift as overhead.  Best-of-N on each side needs
    # enough rounds that both sides see at least one quiet window; the
    # passes are cheap (~0.1 s each), so take plenty.
    rounds = max(repeat * 2, 12)
    off = float("inf")
    on = float("inf")
    registry = None
    for __ in range(rounds):
        off = min(off, _timed(lambda: run_server_concurrent(stream))[0])
        candidate = MetricsRegistry()
        elapsed, __decisions = _timed(
            lambda: run_server_concurrent(stream, metrics=candidate)
        )
        if elapsed < on:
            on, registry = elapsed, candidate
    overhead_pct = (on / off - 1.0) * 100.0
    histogram = registry.histogram("repro_request_ms", labels=("op",))
    p50 = histogram.percentile(50, op="decide")
    p99 = histogram.percentile(99, op="decide")
    print(
        f"  metrics overhead: off {off * 1000:9.2f} ms   "
        f"on {on * 1000:9.2f} ms   {overhead_pct:+.1f}%   "
        f"(registry decide p50 {p50:.2f} ms, p99 {p99:.2f} ms)"
    )
    return BenchRecord(
        f"metrics-overhead-{CLIENTS}-clients",
        on,
        rounds,
        {
            "baseline_seconds": off,
            "metrics_on_seconds": on,
            "metrics_off_seconds": off,
            "overhead_pct": round(overhead_pct, 2),
            # Gated ratio: off/on wall time.  ~1.0 when the registry is
            # within budget; the 0.4x CI tolerance only fires if metrics
            # ever make the server several times slower.
            "speedup": round(off / on, 3) if on else float("inf"),
            "registry_p50_ms_decide": round(p50, 3),
            "registry_p99_ms_decide": round(p99, 3),
            "requests": len(stream),
            "clients": CLIENTS,
            "mode": "metrics-overhead",
            "baseline": "the identical mixed-fingerprint concurrent-"
            "client pass with no MetricsRegistry attached",
        },
    )


# ----------------------------------------------------------------------
# Degraded mode: one hostile client vs the well-behaved cohort
# ----------------------------------------------------------------------
WELL_BEHAVED = 4
#: Unquotaed, the hostile client holds every decision thread.
HOSTILE_CONNECTIONS = DECISION_THREADS


def _slow_query_stream(smoke: bool):
    """Uncacheable expensive requests: each carries a distinct constant,
    so every one is a full rewrite (no decision-cache shortcut)."""
    workload = lookup_chain_workload(3 if smoke else 4)
    base = ", ".join(
        f"{a.relation}({', '.join(map(str, a.terms))})"
        for a in workload.query.atoms
    )
    description = schema_to_dict(workload.schema)

    def frame(k: int) -> dict:
        return {
            "query": f"{base}, L0({7000 + k}, hz)",
            "schema": description,
            "id": f"hostile-{k}",
        }

    return frame


async def _run_degraded(smoke: bool, quotas: bool) -> list[float]:
    """Well-behaved per-request latencies with a hostile client attached.

    The hostile client drives `HOSTILE_CONNECTIONS` connections from one
    address (127.0.0.2), each looping expensive uncacheable requests;
    the cohort are `WELL_BEHAVED` clients on their own addresses
    (127.0.1.*) sending cheap cached queries serially.  With ``quotas``
    the server caps the hostile address at one in-flight request — its
    surplus is shed with `Overloaded` frames (which the hostile client
    honors, sleeping on ``retry_after_ms`` like a well-behaved retrier).
    """
    pool = SessionPool(university_schema(ud_bound=100))
    kwargs = {"max_inflight_per_client": 1} if quotas else {}
    server = await DecideServer(pool, port=0, **kwargs).start()
    host, port = server.address
    hostile_frame = _slow_query_stream(smoke)
    stop = asyncio.Event()
    counter = iter(range(10**9))

    async def hostile_connection() -> None:
        reader, writer = await asyncio.open_connection(
            host, port, local_addr=("127.0.0.2", 0)
        )
        try:
            while not stop.is_set():
                writer.write(
                    json.dumps(hostile_frame(next(counter))).encode()
                    + b"\n"
                )
                await writer.drain()
                reply = json.loads(await reader.readline())
                error = reply.get("error")
                if error is not None:
                    hint = error.get("retry_after_ms") or 25.0
                    await asyncio.sleep(min(hint, 50.0) / 1000.0)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    async def well_behaved(index: int, requests: int) -> list[float]:
        reader, writer = await asyncio.open_connection(
            host, port, local_addr=(f"127.0.1.{index + 1}", 0)
        )
        latencies = []
        for i in range(requests + 1):
            start = time.perf_counter()
            writer.write(b'{"query": "Udirectory(i, a, p)"}\n')
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply.get("decision") == "yes", reply
            if i > 0:  # first request warms the pool, untimed
                latencies.append(time.perf_counter() - start)
        writer.close()
        await writer.wait_closed()
        return latencies

    requests = 8 if smoke else 20
    try:
        hostiles = [
            asyncio.ensure_future(hostile_connection())
            for __ in range(HOSTILE_CONNECTIONS)
        ]
        # Let the hostile connections saturate the decision threads first.
        await asyncio.sleep(0.3 if smoke else 0.8)
        cohorts = await asyncio.gather(
            *(well_behaved(i, requests) for i in range(WELL_BEHAVED))
        )
        stop.set()
        for task in hostiles:
            task.cancel()
        await asyncio.gather(*hostiles, return_exceptions=True)
    finally:
        await server.close(drain_timeout=5.0)
    return sorted(latency for cohort in cohorts for latency in cohort)


# ----------------------------------------------------------------------
# Fleet scaling: shard-cache capacity across worker processes
# ----------------------------------------------------------------------
FLEET_CLIENTS = 8
FLEET_MAX_FINGERPRINTS = 4
FLEET_ROUNDS = 10
FLEET_ROUNDS_SMOKE = 4


def fleet_schema_set(smoke: bool) -> list[dict]:
    """A working set deliberately larger than one worker's fingerprint
    budget: 12 distinct schemas against ``--max-fingerprints 4``.  One
    worker LRU-thrashes (every request recompiles its evicted schema);
    four workers shard it ~3 fingerprints each and stay hot.  This is
    the honest single-core scaling story: the fleet multiplies
    *live-fingerprint capacity*, not CPU (decisions are GIL-bound
    either way — ``host_cpus`` is recorded so multi-core runs can be
    read apart).  Deep chains keep the recompile an order of magnitude
    above the per-request wire cost, so the capacity effect is what
    the clock sees."""
    sizes = range(17, 23) if smoke else range(17, 29)
    return [
        schema_to_dict(id_chain_workload(n).schema) for n in sizes
    ]


def build_fleet_stream(schemas: list[dict], rounds: int) -> list[dict]:
    stream = []
    for __ in range(rounds):
        for description in schemas:
            stream.append(
                {
                    "query": "R0(x)",
                    "schema": description,
                    "id": len(stream),
                }
            )
    return stream


async def _run_fleet(
    stream, workers: int
) -> tuple[float, dict[int, str]]:
    """Time ``stream`` through a dispatcher over ``workers`` supervised
    subprocess workers (spawn/teardown excluded: this measures serving
    throughput, not cold start)."""
    from repro.server import Fleet, FleetDispatcher, WorkerSpec

    dispatcher = FleetDispatcher(port=0, channels_per_worker=2)
    await dispatcher.start()
    specs = [
        WorkerSpec(
            port=0,
            serve_args=(
                "--max-fingerprints", str(FLEET_MAX_FINGERPRINTS),
                "--drain-timeout", "5",
            ),
        )
        for __ in range(workers)
    ]
    fleet = Fleet(specs, dispatcher)
    decisions: dict[int, str] = {}
    try:
        await fleet.start(timeout_s=120)
        host, port = dispatcher.address

        async def client(shard) -> None:
            reader, writer = await asyncio.open_connection(host, port)
            for request in shard:
                writer.write(json.dumps(request).encode("utf-8") + b"\n")
            await writer.drain()
            for __ in shard:
                payload = json.loads(await reader.readline())
                assert "error" not in payload, payload
                decisions[payload["id"]] = payload["decision"]
            writer.close()
            await writer.wait_closed()

        start = time.perf_counter()
        await asyncio.gather(
            *(
                client(stream[i::FLEET_CLIENTS])
                for i in range(FLEET_CLIENTS)
            )
        )
        elapsed = time.perf_counter() - start
    finally:
        await fleet.close(drain_timeout=5.0)
    return elapsed, decisions


def run_fleet_scaling(smoke: bool) -> BenchRecord:
    import os

    schemas = fleet_schema_set(smoke)
    rounds = FLEET_ROUNDS_SMOKE if smoke else FLEET_ROUNDS
    stream = build_fleet_stream(schemas, rounds)
    fleet_sizes = (1, 2) if smoke else (1, 2, 4, 8)

    # Agreement: the fleet must decide exactly like a plain serial
    # session, normalized by request id — sharding and failover must
    # never change an answer.
    expected = run_single_session_serial(stream)

    points: dict[str, float] = {}
    for workers in fleet_sizes:
        elapsed, decisions = asyncio.run(_run_fleet(stream, workers))
        assert decisions == expected, (
            f"fleet({workers}) diverged from the serial session"
        )
        points[str(workers)] = elapsed
        print(
            f"  fleet x{workers} workers: {elapsed * 1000:9.2f} ms "
            f"({len(stream) / elapsed:7.0f} req/s)"
        )

    reference = "4" if "4" in points else max(points, key=int)
    speedup = points["1"] / points[reference]
    print(
        f"  fleet scaling: {speedup:.1f}x at {reference} workers vs 1 "
        f"(shard-cache capacity, {len(schemas)} fingerprints over "
        f"max {FLEET_MAX_FINGERPRINTS}/worker)"
    )
    return BenchRecord(
        "fleet-scaling-mixed-fingerprint",
        points[reference],
        1,
        {
            "speedup": round(speedup, 2),
            "baseline_seconds": points["1"],
            "points_seconds": {k: round(v, 4) for k, v in points.items()},
            "requests": len(stream),
            "fingerprints": len(schemas),
            "max_fingerprints_per_worker": FLEET_MAX_FINGERPRINTS,
            "clients": FLEET_CLIENTS,
            "workers_compared": [1, int(reference)],
            "host_cpus": os.cpu_count(),
            "mode": "shard-cache-capacity",
            "baseline": "the same dispatcher + stream over ONE worker, "
            "whose fingerprint LRU thrashes on the working set; N "
            "workers shard it and stay hot (single-core honest: this "
            "measures aggregate cache capacity, not GIL parallelism)",
        },
    )


# ----------------------------------------------------------------------
# Fleet worker-kill warm restart: re-serving a shard from the store
# ----------------------------------------------------------------------
FLEET_RESTART_WORKERS = 2


def restart_schema_set(smoke: bool) -> list[dict]:
    """Deep-chain fingerprints sized to *fit* each worker's budget (no
    LRU thrash — the scenario isolates restart cost, not capacity)."""
    sizes = range(17, 21) if smoke else range(17, 25)
    return [schema_to_dict(id_chain_workload(n).schema) for n in sizes]


async def _run_fleet_restart(
    stream, schemas: list[dict], cache_dir
) -> dict:
    """2 supervised workers; populate, SIGKILL one, wait for the ring
    to re-admit its replacement, then time a full request pass.

    With ``cache_dir`` both workers share one durable store: the
    restarted worker re-warms its compiled schemas from the store
    before reporting ready and serves its shard's decisions as durable
    hits.  Without it the replacement starts empty and recompiles every
    fingerprint it owns on first touch — the pass the clock sees.
    """
    import os
    import signal

    from repro.server import Fleet, FleetDispatcher, WorkerSpec

    extra = () if cache_dir is None else ("--cache-dir", str(cache_dir))
    dispatcher = FleetDispatcher(port=0, channels_per_worker=2)
    await dispatcher.start()
    specs = [
        WorkerSpec(
            port=0,
            health_interval_s=0.2,
            serve_args=(
                "--max-fingerprints", str(len(schemas)),
                "--drain-timeout", "5",
                *extra,
            ),
        )
        for __ in range(FLEET_RESTART_WORKERS)
    ]
    fleet = Fleet(specs, dispatcher)
    loop = asyncio.get_running_loop()
    try:
        await fleet.start(timeout_s=120)
        host, port = dispatcher.address

        async def run_pass() -> tuple[dict[int, str], int]:
            decisions: dict[int, str] = {}
            cached = 0

            async def client(shard) -> None:
                nonlocal cached
                reader, writer = await asyncio.open_connection(host, port)
                for request in shard:
                    writer.write(
                        json.dumps(request).encode("utf-8") + b"\n"
                    )
                await writer.drain()
                for __ in shard:
                    payload = json.loads(await reader.readline())
                    assert "error" not in payload, payload
                    decisions[payload["id"]] = payload["decision"]
                    cached += bool(payload.get("cached"))
                writer.close()
                await writer.wait_closed()

            await asyncio.gather(
                *(
                    client(stream[i::FLEET_CLIENTS])
                    for i in range(FLEET_CLIENTS)
                )
            )
            return decisions, cached

        populate, __ = await run_pass()

        victim_id = sorted(dispatcher.workers)[0]
        victim_pid = dispatcher._workers[victim_id].pid
        os.kill(victim_pid, signal.SIGKILL)
        readmit_start = loop.time()
        deadline = readmit_start + 120
        while True:
            replacement = dispatcher._workers.get(victim_id)
            if (
                replacement is not None
                and replacement.pid != victim_pid
                and len(dispatcher.workers) == FLEET_RESTART_WORKERS
            ):
                break
            assert loop.time() < deadline, (
                f"ring never re-admitted {victim_id} "
                f"(killed pid {victim_pid})"
            )
            await asyncio.sleep(0.05)
        readmit_seconds = loop.time() - readmit_start

        start = time.perf_counter()
        decisions, cached = await run_pass()
        elapsed = time.perf_counter() - start
        assert decisions == populate, "restart changed an answer"
        return {
            "pass_seconds": elapsed,
            "readmit_seconds": readmit_seconds,
            "cached_responses": cached,
            "decisions": decisions,
        }
    finally:
        await fleet.close(drain_timeout=5.0)


def run_fleet_restart(smoke: bool) -> BenchRecord:
    import shutil
    import tempfile

    schemas = restart_schema_set(smoke)
    rounds = 2
    stream = build_fleet_stream(schemas, rounds)
    expected = run_single_session_serial(stream)

    cache_dir = tempfile.mkdtemp(prefix="bench-fleet-restart-")
    try:
        warm = asyncio.run(_run_fleet_restart(stream, schemas, cache_dir))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    cold = asyncio.run(_run_fleet_restart(stream, schemas, None))
    assert warm["decisions"] == expected, "warm fleet diverged"
    assert cold["decisions"] == expected, "cold fleet diverged"
    # The warm pass must be served entirely from caches — the restarted
    # worker's shard from the durable store, the survivor's from its
    # in-memory LRU; any recompute shows up as an uncached response.
    assert warm["cached_responses"] == len(stream), (
        f"warm restart recomputed: {warm['cached_responses']} of "
        f"{len(stream)} responses cached"
    )

    speedup = (
        cold["pass_seconds"] / warm["pass_seconds"]
        if warm["pass_seconds"]
        else float("inf")
    )
    print(
        f"  fleet worker-kill restart: cold pass "
        f"{cold['pass_seconds'] * 1000:9.2f} ms   warm pass "
        f"{warm['pass_seconds'] * 1000:9.2f} ms   {speedup:5.1f}x "
        f"(shared --cache-dir, {len(schemas)} fingerprints)"
    )
    return BenchRecord(
        "fleet-worker-kill-warm-restart",
        warm["pass_seconds"],
        1,
        {
            "baseline_seconds": cold["pass_seconds"],
            "speedup": round(speedup, 2),
            "requests": len(stream),
            "fingerprints": len(schemas),
            "workers": FLEET_RESTART_WORKERS,
            "clients": FLEET_CLIENTS,
            "readmit_seconds_warm": round(warm["readmit_seconds"], 3),
            "readmit_seconds_cold": round(cold["readmit_seconds"], 3),
            "cached_responses_warm": warm["cached_responses"],
            "cached_responses_cold": cold["cached_responses"],
            "mode": "warm-restart-fleet",
            "baseline": "the identical SIGKILL + re-admit cycle with no "
            "--cache-dir: the replacement worker recompiles every "
            "fingerprint of its shard on first touch, while the warm "
            "side re-admits from the shared store and serves its shard "
            "as durable cache hits",
        },
    )


def _percentile(sorted_values: list[float], fraction: float) -> float:
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def _timed(run) -> tuple[float, dict[int, str]]:
    start = time.perf_counter()
    result = run()
    return time.perf_counter() - start, result


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="bench_server")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI (written to a .smoke.json sidecar)",
    )
    parser.add_argument("--out", default=None, help="output path")
    args = parser.parse_args(argv)

    repeat = 2 if args.smoke else 3
    rounds = 10 if args.smoke else 40
    families = schema_families(args.smoke)
    stream = build_stream(families, rounds)

    # Agreement first: all three paths must decide identically.
    expected = run_single_session_serial(stream)
    assert run_pooled_batch_serial(stream) == expected
    assert run_server_concurrent(stream) == expected
    print(
        f"agreement: {len(stream)} mixed-fingerprint requests over "
        f"{len(families)} schemas decide identically on all paths"
    )

    single = min(
        _timed(lambda: run_single_session_serial(stream))[0]
        for __ in range(repeat)
    )
    pooled = min(
        _timed(lambda: run_pooled_batch_serial(stream))[0]
        for __ in range(repeat)
    )
    concurrent = min(
        _timed(lambda: run_server_concurrent(stream))[0]
        for __ in range(repeat)
    )
    speedup = single / concurrent if concurrent else float("inf")
    pooled_speedup = single / pooled if pooled else float("inf")
    print(
        f"  single-session serial {single * 1000:9.2f} ms   "
        f"pooled batch {pooled * 1000:9.2f} ms   "
        f"server x{CLIENTS} clients {concurrent * 1000:9.2f} ms   "
        f"{speedup:5.1f}x"
    )
    # Metrics overhead: the same concurrent scenario with a live
    # registry (per-request instruments + stage timer) vs without.
    metrics_record = run_metrics_overhead(stream, repeat)
    # Fleet scaling: N supervised worker processes behind the
    # consistent-hash dispatcher vs one.
    fleet_record = run_fleet_scaling(args.smoke)
    # Worker-kill warm restart: a SIGKILLed worker re-serving its shard
    # from the shared durable store vs recompiling it from scratch.
    restart_record = run_fleet_restart(args.smoke)
    # Degraded mode: the well-behaved cohort's latency with a hostile
    # slow client attached, with and without per-client quotas.
    unquotaed = asyncio.run(_run_degraded(args.smoke, quotas=False))
    quotaed = asyncio.run(_run_degraded(args.smoke, quotas=True))
    p99_off = _percentile(unquotaed, 0.99)
    p99_on = _percentile(quotaed, 0.99)
    p99_ratio = p99_off / p99_on if p99_on else float("inf")
    print(
        f"  degraded mode: well-behaved p50/p99 "
        f"{_percentile(unquotaed, 0.5) * 1000:.2f}/{p99_off * 1000:.2f} ms "
        f"unquotaed vs "
        f"{_percentile(quotaed, 0.5) * 1000:.2f}/{p99_on * 1000:.2f} ms "
        f"with quotas ({p99_ratio:.0f}x at p99)"
    )

    records = [
        BenchRecord(
            f"mixed-fingerprint-{CLIENTS}-clients",
            concurrent,
            repeat,
            {
                "baseline_seconds": single,
                "pooled_batch_seconds": pooled,
                "speedup": round(speedup, 2),
                "pooled_batch_speedup": round(pooled_speedup, 2),
                "requests": len(stream),
                "fingerprints": len(families),
                "clients": CLIENTS,
                "mode": "mixed-fingerprint",
                "baseline": "single-session sequential decide "
                "(recompiles on every fingerprint switch)",
            },
        ),
        metrics_record,
        fleet_record,
        restart_record,
        BenchRecord(
            "degraded-mode-hostile-client",
            p99_on,
            1,
            {
                "mode": "degraded",
                "well_behaved_clients": WELL_BEHAVED,
                "hostile_connections": HOSTILE_CONNECTIONS,
                "p50_ms_unquotaed": round(
                    _percentile(unquotaed, 0.5) * 1000, 3
                ),
                "p99_ms_unquotaed": round(p99_off * 1000, 3),
                "p50_ms_quotaed": round(
                    _percentile(quotaed, 0.5) * 1000, 3
                ),
                "p99_ms_quotaed": round(p99_on * 1000, 3),
                "p99_ratio": round(p99_ratio, 2),
                # The regression gate reads `speedup` at 0.4x tolerance;
                # the raw p99 ratio is too noisy on shared runners, so
                # the gated value is clamped at 5x — the claim defended
                # is "quotas keep helping", not the exact multiplier.
                "speedup": round(min(p99_ratio, 5.0), 2),
                "baseline": "well-behaved p99 with the hostile client "
                "and no per-client quotas",
            },
        ),
    ]

    if args.out is not None:
        out = Path(args.out)
    elif args.smoke:
        out = ROOT / "BENCH_server.smoke.json"
    else:
        out = None  # write_bench_json's default: BENCH_server.json
    path = write_bench_json(
        "server", records, extra={"smoke": args.smoke}, path=out
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
