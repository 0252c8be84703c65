"""Process-level fleet battery: real subprocess workers, real faults.

The in-process tests (``test_dispatcher.py``) cover routing logic;
this file covers the plumbing the issue's fault invariant actually
lives on: SIGKILL a worker process mid-run and observe only correct
decisions or typed retryable errors (never a wrong answer, never a
hang), watch the supervisor restart it and the ring re-admit it, and
verify that a warm-start manifest eliminates the first-request compile
on a fresh (or restarted) worker.
"""

import asyncio
import json
import os
import signal

import pytest

from repro.io import schema_to_dict
from repro.server import BackoffPolicy, Fleet, FleetDispatcher, WorkerSpec
from repro.workloads import id_chain_workload

QUERY = "Qlink0() :- R0(x)"


def spec_for(tmp_path, *, warm=None, schema=None) -> WorkerSpec:
    return WorkerSpec(
        schema=schema,
        port=0,
        warm=warm,
        serve_args=("--drain-timeout", "5"),
        ready_timeout_s=60.0,
        health_interval_s=0.2,
        backoff=BackoffPolicy(base_s=0.05, cap_s=0.5),
    )


def write_schemas(tmp_path, sizes) -> dict[int, dict]:
    schemas = {}
    for n in sizes:
        schemas[n] = schema_to_dict(id_chain_workload(n).schema)
    return schemas


async def request_frames(dispatcher: FleetDispatcher, frames: list) -> list:
    host, port = dispatcher.address
    reader, writer = await asyncio.open_connection(host, port)
    replies = []
    try:
        for frame in frames:
            writer.write(json.dumps(frame).encode("utf-8") + b"\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=30)
            replies.append(json.loads(line))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return replies


async def fleet_stats(dispatcher: FleetDispatcher) -> dict:
    (stats,) = await request_frames(dispatcher, [{"op": "stats"}])
    return stats


class TestFaultInvariant:
    def test_sigkill_mid_run_yields_only_typed_retryable_errors(
        self, tmp_path
    ):
        """Kill one of two workers while traffic flows: every reply is
        a correct decision or a typed retryable error; the supervisor
        restarts the worker and the ring re-admits it (new pid, same
        worker id, same shard)."""
        schemas = write_schemas(tmp_path, range(2, 8))

        async def scenario():
            dispatcher = FleetDispatcher(port=0, channels_per_worker=2)
            await dispatcher.start()
            fleet = Fleet(
                [spec_for(tmp_path), spec_for(tmp_path)], dispatcher
            )
            try:
                assert await fleet.start(timeout_s=90) == 2
                stats = await fleet_stats(dispatcher)
                pids = {
                    entry["worker"]: entry["pid"]
                    for entry in stats["workers"]
                }
                assert len(pids) == 2 and all(pids.values())

                frames = [
                    {"query": QUERY, "schema": schema, "id": f"pre-{n}"}
                    for n, schema in schemas.items()
                ]
                for reply in await request_frames(dispatcher, frames):
                    assert reply["decision"] == "yes"

                victim_id, victim_pid = sorted(pids.items())[0]
                os.kill(victim_pid, signal.SIGKILL)

                # Fire mixed traffic THROUGH the kill and the restart
                # window.  The invariant: every single reply is either
                # a correct decision or a typed retryable error.
                wrong, retryable = [], 0
                deadline = (
                    asyncio.get_running_loop().time() + 60.0
                )
                readmitted = False
                while asyncio.get_running_loop().time() < deadline:
                    frames = [
                        {"query": QUERY, "schema": schema, "id": n}
                        for n, schema in schemas.items()
                    ]
                    for reply in await request_frames(dispatcher, frames):
                        if "error" in reply:
                            error = reply["error"]
                            if not error.get("retryable"):
                                wrong.append(reply)
                            elif error["type"] not in (
                                "WorkerLost",
                                "Overloaded",
                            ):
                                wrong.append(reply)
                            else:
                                retryable += 1
                        elif reply.get("decision") != "yes":
                            wrong.append(reply)
                    stats = await fleet_stats(dispatcher)
                    ring = stats["fleet"]["ring"]["nodes"]
                    new_pids = {
                        entry["worker"]: entry["pid"]
                        for entry in stats["workers"]
                    }
                    if (
                        len(ring) == 2
                        and new_pids.get(victim_id)
                        and new_pids[victim_id] != victim_pid
                    ):
                        readmitted = True
                        break
                    await asyncio.sleep(0.1)
                assert readmitted, "ring never re-admitted the worker"
                assert wrong == [], wrong

                # After recovery every shard serves again.
                frames = [
                    {"query": QUERY, "schema": schema, "id": f"post-{n}"}
                    for n, schema in schemas.items()
                ]
                for reply in await request_frames(dispatcher, frames):
                    assert reply["decision"] == "yes"
                supervision = stats["fleet"]["supervision"]
                assert supervision[victim_id]["restarts"] >= 1
                return retryable
            finally:
                await fleet.close(drain_timeout=5)

        asyncio.run(scenario())


class TestWarmManifest:
    def test_warm_manifest_precompiles_the_shard(self, tmp_path):
        """A worker started with ``--warm`` reports ready only after
        compiling the manifest: its pool counters show the warmed
        schemas, and the first request for one compiles nothing."""
        schemas = write_schemas(tmp_path, (3, 5))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"schemas": list(schemas.values())})
        )

        async def scenario():
            dispatcher = FleetDispatcher(port=0, channels_per_worker=1)
            await dispatcher.start()
            fleet = Fleet(
                [spec_for(tmp_path, warm=str(manifest))], dispatcher
            )
            try:
                assert await fleet.start(timeout_s=90) == 1
                stats = await fleet_stats(dispatcher)
                (entry,) = stats["workers"]
                counters = entry["stats"]["pool"]["counters"]
                assert counters["warmed"] == 2
                assert counters["schemas_compiled"] == 2
                assert counters["requests"] == 0  # warmed, not queried

                replies = await request_frames(
                    dispatcher,
                    [
                        {"query": QUERY, "schema": schema, "id": n}
                        for n, schema in schemas.items()
                    ],
                )
                assert all(r["decision"] == "yes" for r in replies)

                stats = await fleet_stats(dispatcher)
                (entry,) = stats["workers"]
                counters = entry["stats"]["pool"]["counters"]
                # first-request compile latency is gone: the manifest
                # already built both schemas
                assert counters["schemas_compiled"] == 2
                assert counters["requests"] == 2
            finally:
                await fleet.close(drain_timeout=5)

        asyncio.run(scenario())


class TestProcessUsage:
    def test_stats_report_each_process_separately(self, tmp_path):
        """The fleet's stats frame carries the dispatcher's own
        ``process`` block (this test process runs it) and each worker's
        stats frame carries the worker's, unsummed: one block per pid."""

        async def scenario():
            dispatcher = FleetDispatcher(port=0, channels_per_worker=1)
            await dispatcher.start()
            fleet = Fleet(
                [spec_for(tmp_path), spec_for(tmp_path)], dispatcher
            )
            try:
                assert await fleet.start(timeout_s=90) == 2
                return await fleet_stats(dispatcher)
            finally:
                await fleet.close(drain_timeout=5)

        stats = asyncio.run(scenario())
        blocks = [stats["process"]] + [
            entry["stats"]["process"] for entry in stats["workers"]
        ]
        assert stats["process"]["pid"] == os.getpid()
        for entry in stats["workers"]:
            assert entry["stats"]["process"]["pid"] == entry["pid"]
        assert len({block["pid"] for block in blocks}) == 3
        for block in blocks:
            assert set(block) == {"pid", "user_s", "sys_s", "max_rss_mb"}
            assert block["user_s"] > 0 and block["sys_s"] >= 0
            assert block["max_rss_mb"] > 1


class TestQuorum:
    def test_quorum_failure_raises_and_leaves_no_orphans(self, tmp_path):
        """A fleet whose workers cannot start (bad schema path) fails
        `start()` with a clear error instead of hanging."""
        bad = WorkerSpec(
            schema=str(tmp_path / "missing.json"),
            port=0,
            ready_timeout_s=2.0,
            backoff=BackoffPolicy(base_s=0.05, cap_s=0.1),
        )

        async def scenario():
            dispatcher = FleetDispatcher(port=0)
            await dispatcher.start()
            fleet = Fleet([bad], dispatcher)
            with pytest.raises(RuntimeError):
                await fleet.start(timeout_s=8)
            assert dispatcher.workers == ()

        asyncio.run(scenario())
