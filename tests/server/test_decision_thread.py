"""The server's decision threads and its loop slice.

While no decision is running, `DecideServer` resolves a cache miss on
its event loop under a `LOOP_SLICE_MS` slice; a miss that overruns the
slice, or needs a compiled-schema artifact built, is finished on one of
`DECISION_THREADS` executor threads, as is every miss that arrives while
a thread is busy.  Cached decisions are answered on the event loop.
These tests pin what that shape must guarantee while a slow miss holds
a thread: a cached hit on another connection is answered on the loop, a
cheap miss on another connection is decided beside it, the slow miss's
deadline (or a drain's ``cancel_in_flight``) still ends it with a
retryable ``DeadlineExceeded`` frame, and once every thread is held a
further miss queues and is decided when a thread frees, while exact-text
and durable-store hits are still answered.  They also pin the slice:
what it decides, what it hands off, and that a hand-off answers as a
fresh `Session` would.

The slow miss is deterministic: the pool's ``process`` holds any frame
whose id starts with ``slow`` until the test releases it or its budget
is exhausted, so nothing depends on how fast the host decides.
"""

import asyncio
import json
import threading

from repro.cache import ArtifactStore, MemoryKVStore
from repro.io import DecideRequest, schema_to_dict
from repro.obs.registry import MetricsRegistry
from repro.server import DecideServer, SessionPool
from repro.server.server import DECISION_THREADS, LOOP_SLICE_MS
from repro.service import CompiledSchema, Session
from repro.workloads import (
    lookup_chain_workload,
    tgd_transfer_workload,
    university_schema,
)

HOT = {"query": "Udirectory(i, a, p)", "id": "hot"}
CHEAP = {"query": "Prof(i, n, 10000)", "id": "cheap"}


def run(coroutine):
    return asyncio.run(coroutine)


def slow_frame(name: str = "slow", **extra) -> dict:
    """An uncacheable miss that the held pool blocks on."""
    return {"query": "Prof(i, n, 20000)", "id": name, **extra}


class HeldPool:
    """Wrap ``pool.process`` so ``slow*`` frames block until released
    (or until their budget is cancelled or expires).

    Built on the event loop's thread: ``held`` counts the holds on a
    decision thread, ``sliced`` those on the loop, where a slow frame
    spins like a CPU-bound route until the loop slice runs out."""

    def __init__(self, pool: SessionPool) -> None:
        self.release = threading.Event()
        self.loop = threading.get_ident()
        self.held = 0
        self.sliced = 0
        self.threads: set[int] = set()
        #: frame id -> the thread whose ``process`` call returned it.
        self.finished_on: dict[str, int] = {}
        #: ("start" | "end", frame id), in the order the threads ran.
        self.log: list[tuple[str, str]] = []
        self._lock = threading.Lock()
        process = pool.process

        def held(request, *, budget=None, text_key=None, miss=None):
            with self._lock:
                self.threads.add(threading.get_ident())
                self.log.append(("start", str(request.id)))
            if str(request.id).startswith("slow"):
                on_loop = threading.get_ident() == self.loop
                with self._lock:
                    if on_loop:
                        self.sliced += 1
                    else:
                        self.held += 1
                if on_loop:
                    while not self.release.is_set():
                        budget.tick()
                while not self.release.wait(0.002):
                    budget.check()
            try:
                response = process(
                    request, budget=budget, text_key=text_key, miss=miss
                )
                with self._lock:
                    self.finished_on[str(request.id)] = threading.get_ident()
                return response
            finally:
                with self._lock:
                    self.log.append(("end", str(request.id)))

        pool.process = held


async def send(server: DecideServer, frame: dict) -> asyncio.Task:
    """Send one frame on a fresh connection; the task yields its reply."""
    reader, writer = await asyncio.open_connection(*server.address)
    writer.write(json.dumps(frame).encode("utf-8") + b"\n")
    await writer.drain()

    async def reply() -> dict:
        try:
            line = await asyncio.wait_for(reader.readline(), timeout=60)
            return json.loads(line)
        finally:
            writer.close()

    return asyncio.ensure_future(reply())


async def until(predicate, timeout: float = 30.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.002)


async def started() -> tuple[DecideServer, HeldPool]:
    """A server whose default schema has answered HOT once, so HOT is a
    loop hit."""
    pool = SessionPool(university_schema(ud_bound=100))
    held = HeldPool(pool)
    server = await DecideServer(pool, port=0).start()
    first = await (await send(server, HOT))
    assert first["decision"] == "yes" and first["cached"] is False
    return server, held


def in_flight(server: DecideServer) -> int:
    return server.server_stats()["in_flight"]


class TestSlowMissHoldsAThread:
    def test_hit_and_cheap_miss_are_answered_beside_it(self):
        async def scenario():
            server, held = await started()
            try:
                slow = await send(server, slow_frame())
                await until(lambda: held.held == 1)
                hits_before = server.server_stats()["loop_hits"]
                hit = await (await send(server, HOT))
                assert server.server_stats()["loop_hits"] == hits_before + 1
                cheap = await (await send(server, CHEAP))
                # Both answered while the slow miss still holds its
                # thread.
                assert not slow.done() and in_flight(server) == 1
                held.release.set()
                return hit, cheap, await slow, server.server_stats()
            finally:
                held.release.set()
                await server.close()

        hit, cheap, slow, stats = run(scenario())
        assert hit["decision"] == "yes" and hit["cached"] is True
        assert cheap["decision"] == "no" and cheap["cached"] is False
        assert slow["decision"] == "no" and slow["id"] == "slow"
        assert stats["in_flight"] == 0 and stats["deadline_exceeded"] == 0

    def test_deadline_ends_it(self):
        async def scenario():
            server, held = await started()
            try:
                reply = await (await send(server, slow_frame(deadline_ms=50)))
                return reply, server.server_stats()
            finally:
                held.release.set()
                await server.close()

        reply, stats = run(scenario())
        assert reply["error"]["type"] == "DeadlineExceeded"
        assert reply["error"]["retryable"] is True and reply["id"] == "slow"
        assert stats["deadline_exceeded"] == 1 and stats["in_flight"] == 0

    def test_drain_cancel_ends_it(self):
        async def scenario():
            server, held = await started()
            try:
                slow = await send(server, slow_frame())
                await until(lambda: held.held == 1)
                assert server.cancel_in_flight("drain") == 1
                cancelled = await slow
                # The thread is free again: a new miss is decided.
                after = await (await send(server, CHEAP))
                return cancelled, after, server.server_stats()
            finally:
                held.release.set()
                await server.close()

        cancelled, after, stats = run(scenario())
        assert cancelled["error"]["type"] == "DeadlineExceeded"
        assert cancelled["error"]["retryable"] is True
        assert "drain" in cancelled["error"]["message"]
        assert after["decision"] == "no"
        assert stats["cancelled"] == 1 and stats["deadline_exceeded"] == 1


class TestEveryThreadHeld:
    def test_a_further_miss_queues_and_is_answered_afterwards(self):
        async def scenario():
            server, held = await started()
            try:
                slows = []
                for k in range(DECISION_THREADS):
                    slows.append(await send(server, slow_frame(f"slow-{k}")))
                await until(lambda: held.held == DECISION_THREADS)
                queued = await send(server, CHEAP)
                # Submitted to the executor, but no thread is free.
                await until(lambda: in_flight(server) == DECISION_THREADS + 1)
                hit = await (await send(server, HOT))
                assert hit["cached"] is True and not queued.done()
                held.release.set()
                return (
                    await asyncio.gather(*slows),
                    await queued,
                    server.server_stats(),
                    held.log,
                )
            finally:
                held.release.set()
                await server.close()

        slows, queued, stats, log = run(scenario())
        assert [reply["decision"] for reply in slows] == (
            ["no"] * DECISION_THREADS
        )
        assert queued["decision"] == "no" and queued["cached"] is False
        # The queued miss started only once a slow one had ended.
        first_end = min(
            i for i, (event, name) in enumerate(log)
            if event == "end" and name.startswith("slow")
        )
        assert log.index(("start", "cheap")) > first_end
        assert stats["in_flight"] == 0

    def test_durable_and_exact_text_hits_are_answered_meanwhile(self):
        # CHEAP's answer is in the store but not in the pool's session:
        # a durable hit, answered on the loop like the exact-text HOT.
        store = ArtifactStore(MemoryKVStore())
        Session(university_schema(ud_bound=100), store=store).decide(
            CHEAP["query"]
        )

        async def scenario():
            pool = SessionPool(university_schema(ud_bound=100), store=store)
            held = HeldPool(pool)
            server = await DecideServer(pool, port=0).start()
            try:
                assert (await (await send(server, HOT)))["cached"] is False
                slows = [
                    await send(server, slow_frame(f"slow-{k}"))
                    for k in range(DECISION_THREADS)
                ]
                await until(lambda: held.held == DECISION_THREADS)
                hits_before = server.server_stats()["loop_hits"]
                durable = await (await send(server, CHEAP))
                exact = await (await send(server, HOT))
                hits = server.server_stats()["loop_hits"] - hits_before
                assert not any(slow.done() for slow in slows)
                held.release.set()
                await asyncio.gather(*slows)
                return durable, exact, hits, pool.stats()
            finally:
                held.release.set()
                await server.close()

        durable, exact, hits, stats = run(scenario())
        assert durable["decision"] == "no" and durable["cached"] is True
        assert exact["decision"] == "yes" and exact["cached"] is True
        assert hits == 2
        [session] = stats["sessions"]
        assert session["cache"]["durable_hits"] == 1

    def test_misses_run_on_at_most_decision_threads_threads(self):
        # Besides the loop, which decides what fits in its slice.
        async def scenario():
            pool = SessionPool(university_schema(ud_bound=100))
            held = HeldPool(pool)
            server = await DecideServer(pool, port=0).start()
            try:
                frames = [
                    {"query": f"Prof(i, n, {salary})", "id": f"m{salary}"}
                    for salary in range(3 * DECISION_THREADS)
                ]
                tasks = [await send(server, frame) for frame in frames]
                replies = await asyncio.gather(*tasks)
                # Sent with every thread idle: tried on the loop first.
                slow = await send(server, slow_frame())
                await until(lambda: held.held == 1)
                held.release.set()
                replies.append(await slow)
                return held, replies, server.server_stats()
            finally:
                held.release.set()
                await server.close()

        held, replies, stats = run(scenario())
        assert [reply["decision"] for reply in replies] == (
            ["no"] * (3 * DECISION_THREADS + 1)
        )
        loop = threading.get_ident()
        assert 1 <= len(held.threads - {loop}) <= DECISION_THREADS
        # The slow miss was tried on the loop, overran the slice and
        # was finished on a thread.
        assert held.sliced == 1 and loop in held.threads
        assert held.finished_on["slow"] != loop
        assert stats["loop_handoffs"] >= 1 and stats["loop_decisions"] >= 1


def stage_counts(registry: MetricsRegistry) -> dict:
    """Observations per stage in ``repro_request_stage_ms``."""
    histograms = registry.snapshot()["histograms"]
    series = histograms.get("repro_request_stage_ms", {"series": []})
    return {s["labels"]["stage"]: s["count"] for s in series["series"]}


def counted(server: DecideServer) -> tuple[int, int]:
    stats = server.server_stats()
    return stats["loop_decisions"], stats["loop_handoffs"]


def record_builds(monkeypatch) -> list[tuple[str, int]]:
    """Record every compiled-schema artifact build as (key, thread)."""
    built: list[tuple[str, int]] = []
    artifact = CompiledSchema._artifact

    def recording(self, key, build):
        def traced():
            built.append((key, threading.get_ident()))
            return build()

        return artifact(self, key, traced)

    monkeypatch.setattr(CompiledSchema, "_artifact", recording)
    return built


class TestLoopSlice:
    def test_a_cheap_miss_with_idle_threads_is_decided_on_the_loop(self):
        registry = MetricsRegistry()

        async def scenario():
            pool = SessionPool(university_schema(ud_bound=100))
            server = await DecideServer(
                pool, port=0, metrics=registry
            ).start()
            try:
                # The first miss builds the schema's artifacts on a
                # thread; the next one is decided on the loop.
                await (await send(server, HOT))
                before, stages = counted(server), stage_counts(registry)
                reply = server._process_line(
                    json.dumps(CHEAP).encode("utf-8") + b"\n", "peer"
                )
                added = {
                    name: count - stages.get(name, 0)
                    for name, count in stage_counts(registry).items()
                }
                return reply, before, counted(server), added
            finally:
                await server.close()

        reply, before, after, stages = run(scenario())
        assert isinstance(reply, bytes)
        answer = json.loads(reply)
        assert answer["decision"] == "no" and answer["cached"] is False
        assert after == (before[0] + 1, before[1])
        assert stages.get("queue", 0) == 0 and stages["parse"] == 1

    def test_a_slow_miss_overruns_the_slice_and_is_handed_off(self):
        async def scenario():
            server, held = await started()
            try:
                before = counted(server)
                slow = await send(server, slow_frame())
                await until(lambda: held.held == 1)
                # Sent while the handed-off miss holds its thread.
                hit = await (await send(server, HOT))
                assert not slow.done()
                held.release.set()
                return await slow, hit, before, counted(server), held
            finally:
                held.release.set()
                await server.close()

        slow, hit, before, after, held = run(scenario())
        assert slow["decision"] == "no" and slow["id"] == "slow"
        assert hit["decision"] == "yes" and hit["cached"] is True
        assert after == (before[0], before[1] + 1)
        assert held.sliced == 1 and held.held == 1
        assert held.finished_on["slow"] != threading.get_ident()

    def test_a_deadline_below_the_slice_is_exceeded_not_handed_off(self):
        async def scenario():
            server, held = await started()
            try:
                before = counted(server)
                reply = await (
                    await send(
                        server, slow_frame(deadline_ms=LOOP_SLICE_MS / 2)
                    )
                )
                return (
                    reply, before, counted(server), server.server_stats(),
                    held,
                )
            finally:
                held.release.set()
                await server.close()

        reply, before, after, stats, held = run(scenario())
        assert reply["error"]["type"] == "DeadlineExceeded"
        assert reply["error"]["retryable"] is True and reply["id"] == "slow"
        assert after == before
        assert held.sliced == 1 and held.held == 0
        assert stats["deadline_exceeded"] == 1

    def test_a_miss_beside_a_busy_thread_goes_to_a_thread(self):
        async def scenario():
            server, held = await started()
            try:
                slow = await send(server, slow_frame())
                await until(lambda: held.held == 1)
                before = counted(server)
                cheap = await (await send(server, CHEAP))
                assert not slow.done()
                held.release.set()
                await slow
                return cheap, before, counted(server), held
            finally:
                held.release.set()
                await server.close()

        cheap, before, after, held = run(scenario())
        assert cheap["decision"] == "no" and cheap["cached"] is False
        assert after == before
        assert held.finished_on["cheap"] != threading.get_ident()

    def test_first_artifact_builds_are_handed_off(self, monkeypatch):
        built = record_builds(monkeypatch)

        async def scenario():
            pool = SessionPool(university_schema(ud_bound=100))
            server = await DecideServer(pool, port=0).start()
            try:
                first = await (await send(server, HOT))
                after_first = counted(server)
                second = await (await send(server, CHEAP))
                return first, second, after_first, counted(server)
            finally:
                await server.close()

        first, second, after_first, after_second = run(scenario())
        assert first["decision"] == "yes" and second["decision"] == "no"
        # The default schema's first miss needed its route's artifacts:
        # handed off, and built on a thread.
        assert after_first == (0, 1)
        assert after_second == (1, 1)
        assert built and all(
            thread != threading.get_ident() for __, thread in built
        )

    def test_a_recalled_entry_parses_off_the_loop(self, monkeypatch):
        first, second = lookup_chain_workload(2), lookup_chain_workload(3)

        def line(workload, query):
            return json.dumps(
                {"query": query, "schema": schema_to_dict(workload.schema)}
            ).encode("utf-8") + b"\n"

        async def scenario():
            pool = SessionPool(max_fingerprints=1)
            server = await DecideServer(pool, port=0).start()
            try:
                for frame in (
                    line(first, repr(first.query)),
                    line(second, repr(second.query)),
                ):
                    reply = server._process_line(frame, "peer")
                    if not isinstance(reply, bytes):
                        await reply
                built = record_builds(monkeypatch)
                before = counted(server)
                # FIRST's spelling is recalled; this query is new to it.
                reply = server._process_line(
                    line(first, "L1(x, y)"), "peer"
                )
                assert not isinstance(reply, bytes)
                answer = json.loads(await reply)
                return answer, before, counted(server), built, pool
            finally:
                await server.close()

        answer, before, after, built, pool = run(scenario())
        assert "decision" in answer, answer
        assert after == (before[0], before[1] + 1)
        assert pool.stats()["counters"]["fingerprints_recalled"] == 1
        keys = [key for key, __ in built]
        assert "schema" in keys
        assert all(thread != threading.get_ident() for __, thread in built)

    def test_a_miss_aborted_on_the_loop_answers_as_a_fresh_session(self):
        workload = tgd_transfer_workload(16)
        query = repr(workload.query)
        expected = Session(workload.schema).decide(query).to_dict()

        async def scenario():
            pool = SessionPool(workload.schema)
            server = await DecideServer(pool, port=0).start()
            try:
                # Builds the route's artifacts on this thread, so the
                # loop starts the chase itself and overruns mid-route.
                pool.process(DecideRequest(query="T(7)"))
                before = counted(server)
                reply = await (await send(server, {"query": query}))
                return reply, before, counted(server)
            finally:
                await server.close()

        reply, before, after = run(scenario())
        assert after == (before[0], before[1] + 1)
        ignored = ("elapsed_ms",)
        assert {k: v for k, v in reply.items() if k not in ignored} == {
            k: v for k, v in expected.items() if k not in ignored
        }
