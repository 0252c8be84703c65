"""The server's decision threads.

`DecideServer` decides every cache miss on one of `DECISION_THREADS`
executor threads; cached decisions are answered on the event loop.
These tests pin what that shape must guarantee while a slow miss holds
a thread: a cached hit on another connection is answered on the loop, a
cheap miss on another connection is decided beside it, the slow miss's
deadline (or a drain's ``cancel_in_flight``) still ends it with a
retryable ``DeadlineExceeded`` frame, and once every thread is held a
further miss queues and is decided when a thread frees, while exact-text
and durable-store hits are still answered.

The slow miss is deterministic: the pool's ``process`` holds any frame
whose id starts with ``slow`` until the test releases it or its budget
is exhausted, so nothing depends on how fast the host decides.
"""

import asyncio
import json
import threading

from repro.cache import ArtifactStore, MemoryKVStore
from repro.server import DecideServer, SessionPool
from repro.server.server import DECISION_THREADS
from repro.service import Session
from repro.workloads import university_schema

HOT = {"query": "Udirectory(i, a, p)", "id": "hot"}
CHEAP = {"query": "Prof(i, n, 10000)", "id": "cheap"}


def run(coroutine):
    return asyncio.run(coroutine)


def slow_frame(name: str = "slow", **extra) -> dict:
    """An uncacheable miss that the held pool blocks on."""
    return {"query": "Prof(i, n, 20000)", "id": name, **extra}


class HeldPool:
    """Wrap ``pool.process`` so ``slow*`` frames block until released
    (or until their budget is cancelled or expires)."""

    def __init__(self, pool: SessionPool) -> None:
        self.release = threading.Event()
        self.held = 0
        self.threads: set[int] = set()
        #: ("start" | "end", frame id), in the order the threads ran.
        self.log: list[tuple[str, str]] = []
        self._lock = threading.Lock()
        process = pool.process

        def held(request, *, budget=None, text_key=None, miss=None):
            with self._lock:
                self.threads.add(threading.get_ident())
                self.log.append(("start", str(request.id)))
            if str(request.id).startswith("slow"):
                with self._lock:
                    self.held += 1
                while not self.release.wait(0.002):
                    budget.check()
            try:
                return process(
                    request, budget=budget, text_key=text_key, miss=miss
                )
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
        async def scenario():
            pool = SessionPool(university_schema(ud_bound=100))
            held = HeldPool(pool)
            server = await DecideServer(pool, port=0).start()
            try:
                frames = [
                    {"query": f"Prof(i, n, {salary})"}
                    for salary in range(3 * DECISION_THREADS)
                ]
                tasks = [await send(server, frame) for frame in frames]
                return held.threads, await asyncio.gather(*tasks)
            finally:
                await server.close()

        threads, replies = run(scenario())
        assert [reply["decision"] for reply in replies] == (
            ["no"] * 3 * DECISION_THREADS
        )
        assert 1 <= len(threads) <= DECISION_THREADS
        assert threading.get_ident() not in threads
