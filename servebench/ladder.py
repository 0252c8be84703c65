"""The traced run: the rung ladder and in-memory spans.

**Rungs.**  One request is replayed at five depths, each on fresh state
(its own durable store directory, its own processes):

==========  ===========================================================
session     `Session.decide` on a session per schema (an LRU of them as
            large as the pool's, compiles outside the timing)
pool        `SessionPool.process`
codec       JSON bytes -> `DecideRequest` -> process -> ``to_dict`` ->
            JSON bytes, as the TCP server frames it
serve       a ``python -m repro serve`` round trip on one connection
fleet       a ``python -m repro fleet`` round trip on one connection
==========  ===========================================================

Each rung replays the workload's warm-up passes, then times the first
``count`` requests of its timed stream one by one; the median per
request is the rung's number, and its delta over the rung below is the
cost of the layer that rung adds.

**Spans.**  `Tracer` wraps the layers' public entry points -- where the
importing module binds them for functions imported by name, on the
class for methods -- and records ``[name, start_ns, end_ns, parent,
request]`` per call into a list, kept in memory until the run writes
it out.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Iterator, Optional

from corpus import Request, Workload
from servers import BenchmarkError, Connection, ServerProcess, check

RUNGS = ("session", "pool", "codec", "serve", "fleet")


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
NAME, START, END, PARENT, REQUEST, INFO = range(6)


class Tracer:
    """Records nested spans around wrapped entry points (one thread)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: Optional[int] = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, time.perf_counter_ns(), 0, parent, self.request, None]
        )
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][END] = time.perf_counter_ns()

    def wrap(
        self, name: str, function: Callable, info: Optional[Callable] = None
    ) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = function(*args, **kwargs)
                if info is not None:
                    self.spans[index][INFO] = info(result)
                return result
            finally:
                self._close(index)

        return traced

    def wrap_iterator(self, name: str, function: Callable) -> Callable:
        """For functions returning a lazy iterator: one span for the
        call, then one per step, each under whoever pulls it."""
        call = self.wrap(name, function)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            return self._steps(name, call(*args, **kwargs))

        return traced

    def _steps(self, name: str, iterator: Iterator) -> Iterator:
        while True:
            index = self._open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(index)
            yield item

    def patch(self, owner: object, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> "Tracer":
        from repro.answerability import deciders
        from repro.cache.tier import ArtifactStore
        from repro.containment import chase_containment
        from repro.containment.rewriting import RewriteEngine
        from repro.matching.matcher import Matcher
        from repro.server.pool import SessionPool
        from repro.service import session
        from repro.service.compiled import CompiledSchema
        from repro.service.session import Session

        def chase_info(result) -> tuple[int, int]:
            return (result.rounds, len(result.instance))

        artifact = CompiledSchema._artifact
        build = functools.partial(self.wrap, "service.compiled.build")

        def traced_artifact(compiled, key, builder):
            return artifact(compiled, key, build(builder))

        self.patch(session, "parse_cq",
                   self.wrap("logic.parse", session.parse_cq))
        self.patch(Session, "decide",
                   self.wrap("service.session", Session.decide))
        self.patch(SessionPool, "process",
                   self.wrap("server.pool", SessionPool.process))
        self.patch(CompiledSchema, "_artifact", traced_artifact)
        self.patch(session, "decide_monotone_answerability",
                   self.wrap("answerability",
                             session.decide_monotone_answerability))
        self.patch(RewriteEngine, "rewrite",
                   self.wrap("containment.rewrite", RewriteEngine.rewrite))
        for module in (deciders, chase_containment):
            self.patch(module, "chase",
                       self.wrap("chase", module.chase, chase_info))
        for method in ("has", "find"):
            self.patch(Matcher, method,
                       self.wrap("matching", getattr(Matcher, method)))
        self.patch(Matcher, "homomorphisms",
                   self.wrap_iterator("matching", Matcher.homomorphisms))
        self.patch(ArtifactStore, "load",
                   self.wrap("cache.load", ArtifactStore.load))
        self.patch(ArtifactStore, "store",
                   self.wrap("cache.store", ArtifactStore.store))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- analysis -------------------------------------------------------
    def self_times_ns(self) -> list[int]:
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def nesting_errors(self) -> list[str]:
        """Spans not inside their parent's interval or request."""
        errors = []
        for index, span in enumerate(self.spans):
            if span[END] < span[START]:
                errors.append(f"span {index} ends before it starts")
            if span[PARENT] < 0:
                continue
            parent = self.spans[span[PARENT]]
            if not parent[START] <= span[START] <= span[END] <= parent[END]:
                errors.append(f"span {index} escapes parent {span[PARENT]}")
            if parent[REQUEST] != span[REQUEST]:
                errors.append(f"span {index} changes request id")
        return errors

    def write(self, path: Path) -> None:
        import gzip

        with gzip.open(path, "wt") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-call self times (and chase work) by layer."""
    own = tracer.self_times_ns()
    totals: dict[str, list[float]] = {}
    rounds, facts = [], []
    for span, self_ns in zip(tracer.spans, own):
        calls = totals.setdefault(span[NAME], [0, 0.0])
        calls[0] += 1
        calls[1] += self_ns
        if span[NAME] == "chase" and span[INFO] is not None:
            rounds.append(span[INFO][0])
            facts.append(span[INFO][1])

    def per_call(name: str, scale_ns: float) -> float:
        calls, total = totals.get(name, (0, 0.0))
        return total / calls / scale_ns if calls else 0.0

    return {
        "logic.parse_us": per_call("logic.parse", 1e3),
        "service.session.self_us": per_call("service.session", 1e3),
        "service.compiled.build_ms": per_call("service.compiled.build", 1e6),
        "answerability.self_ms": per_call("answerability", 1e6),
        "containment.rewrite_ms": per_call("containment.rewrite", 1e6),
        "chase.chase_ms": per_call("chase", 1e6),
        "chase.rounds_per_call": statistics.fmean(rounds) if rounds else 0.0,
        "chase.facts_per_call": statistics.fmean(facts) if facts else 0.0,
        "matching.match_ms": per_call("matching", 1e6),
        "cache.load_us": per_call("cache.load", 1e3),
        "cache.store_us": per_call("cache.store", 1e3),
    }


# ----------------------------------------------------------------------
# Rungs
# ----------------------------------------------------------------------
class Rung:
    """``prepare(request)`` does the untimed part and returns the timed
    call; ``reply(result)`` turns its result into a reply dict."""

    def prepare(self, request: Request) -> Callable[[], object]:
        raise NotImplementedError

    def reply(self, result) -> dict:
        return {"decision": result.decision, "cached": result.cached}

    def close(self) -> None:
        pass


class SessionRung(Rung):
    def __init__(self, store) -> None:
        from repro.server import DEFAULT_MAX_FINGERPRINTS

        self.store = store
        self.capacity = DEFAULT_MAX_FINGERPRINTS
        self.sessions: OrderedDict = OrderedDict()

    def close(self) -> None:
        self.store.close()

    def prepare(self, request: Request) -> Callable[[], object]:
        from repro.io import schema_from_dict
        from repro.service import Session, compile_schema

        session = self.sessions.get(request.schema_json)
        if session is None:
            session = Session(
                compile_schema(schema_from_dict(request.schema)),
                store=self.store,
            )
            self.sessions[request.schema_json] = session
            while len(self.sessions) > self.capacity:
                self.sessions.popitem(last=False)
        self.sessions.move_to_end(request.schema_json)
        return functools.partial(session.decide, request.query)


class PoolRung(Rung):
    def __init__(self, store) -> None:
        from repro.server import SessionPool

        self.pool = SessionPool(store=store)

    def close(self) -> None:
        self.pool.store.close()

    def prepare(self, request: Request) -> Callable[[], object]:
        from repro.io import DecideRequest

        decide = DecideRequest(query=request.query, schema=request.schema)
        return functools.partial(self.pool.process, decide)


class CodecRung(PoolRung):
    def prepare(self, request: Request) -> Callable[[], object]:
        from repro.io import DecideRequest

        line = request.frame
        pool = self.pool

        def round_trip() -> bytes:
            decide = DecideRequest.from_dict(json.loads(line.decode("utf-8")))
            frame = pool.process(decide).to_dict()
            return json.dumps(frame, sort_keys=True).encode("utf-8") + b"\n"

        return round_trip

    def reply(self, result: bytes) -> dict:
        return json.loads(result)


class WireRung(Rung):
    """One connection to a ``serve`` or ``fleet`` process."""

    def __init__(self, server: ServerProcess) -> None:
        self.server = server.start()
        self.connection = Connection(server.address)

    def prepare(self, request: Request) -> Callable[[], object]:
        return functools.partial(self.connection.send, request.frame)

    def reply(self, result: bytes) -> dict:
        return json.loads(result)

    def close(self) -> None:
        self.connection.close()
        self.server.stop()


def open_rung(name: str, root: Path, workdir: Path) -> Rung:
    from repro.cache import open_directory

    cache_dir = workdir / f"cache-{name}"
    if name in ("serve", "fleet"):
        return WireRung(
            ServerProcess(name, root, cache_dir, workdir / f"{name}.log")
        )
    store = open_directory(cache_dir)
    return {"session": SessionRung, "pool": PoolRung, "codec": CodecRung}[
        name
    ](store)


def replay(
    rung: Rung,
    workload: Workload,
    count: int,
    tracer: Optional[Tracer] = None,
) -> tuple[list[float], float, int]:
    """Warm-up passes, then ``count`` timed requests.  Returns the
    timed per-request seconds, the wall seconds of every request sent
    (warm-up included), and the number sent."""
    requests = itertools.chain(
        *workload.warmup, itertools.islice(workload.timed(), count)
    )
    warmup = sum(len(batch) for batch in workload.warmup)
    timed: list[float] = []
    wall = 0.0
    sent = 0
    for sent, request in enumerate(requests, 1):
        call = rung.prepare(request)
        if tracer is not None:
            tracer.request = sent
        started = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - started
        if not check(request, rung.reply(result)):
            raise BenchmarkError(
                f"request {request.query!r} failed at the ladder"
            )
        wall += elapsed
        if sent > warmup:
            timed.append(elapsed)
    if len(timed) < count:
        raise BenchmarkError(f"timed stream ended after {len(timed)} requests")
    return timed, wall, sent


def measure(
    name: str,
    workload: Workload,
    count: int,
    root: Path,
    workdir: Path,
    spans: Optional[Path] = None,
) -> dict:
    """Replay one rung in this process; with ``spans``, traced."""
    rung = open_rung(name, root, workdir)
    tracer = Tracer().install() if spans is not None else None
    try:
        timed, wall_s, sent = replay(rung, workload, count, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        rung.close()
    result: dict = {"timed": timed}
    if tracer is not None:
        errors = tracer.nesting_errors()
        if errors:
            raise BenchmarkError(f"spans do not nest: {errors[:5]}")
        tracer.write(spans)
        root_ns = sum(
            span[END] - span[START]
            for span in tracer.spans
            if span[PARENT] < 0
        )
        result.update(
            unattributed_share=1.0 - root_ns / (wall_s * 1e9),
            spans=len(tracer.spans),
            sent=sent,
            metrics=span_metrics(tracer),
        )
    return result


def _in_child(
    name: str, workload: str, seed: int, count: int, workdir: Path,
    spans: Optional[Path],
) -> dict:
    """`measure` in a fresh interpreter, as the serve and fleet rungs'
    servers are: no rung inherits another's heap or warm caches."""
    root = Path(__file__).resolve().parent.parent
    argv = [
        sys.executable, str(Path(__file__).resolve()),
        "--rung", name, "--workload", workload, "--seed", str(seed),
        "--count", str(count), "--workdir", str(workdir),
    ]
    if spans is not None:
        argv += ["--spans", str(spans)]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(Path(__file__).resolve().parent)]
        ),
    )
    child = subprocess.run(
        argv, cwd=root, env=env, stdout=subprocess.PIPE, timeout=150
    )
    if child.returncode != 0:
        raise BenchmarkError(f"{name} rung exited {child.returncode}")
    return json.loads(child.stdout.decode("utf-8").splitlines()[-1])


def _paired_median_us(upper: list[float], lower: list[float]) -> float:
    """Median over requests of one rung's time minus the rung below's
    for the same request: every rung replays the same sequence on fresh
    state, so request i does the same work at each rung."""
    return statistics.median(a - b for a, b in zip(upper, lower)) * 1e6


def run_ladder(
    workload: Workload,
    seed: int,
    root: Path,
    workdir: Path,
    count: int,
    spans: Path,
) -> tuple[dict[str, float], dict]:
    """Every rung untraced, then the pool rung traced.  Returns the
    ladder and span metrics plus a report of the raw numbers."""
    timed: dict[str, list[float]] = {}
    for name in RUNGS:
        if name in ("serve", "fleet"):
            result = measure(name, workload, count, root, workdir)
        else:
            result = _in_child(
                name, workload.name, seed, count, workdir, None
            )
        timed[name] = result["timed"]
        if name == "pool":
            # Right after its untraced twin, so host speed drift moves
            # the overhead estimate as little as possible.
            traced = _in_child(
                "pool", workload.name, seed, count, workdir / "traced", spans
            )
    medians_us = {
        name: statistics.median(times) * 1e6 for name, times in timed.items()
    }
    overhead = statistics.median(
        t / u - 1.0 for t, u in zip(traced["timed"], timed["pool"])
    )
    metrics = {
        **{f"ladder.{name}_us": medians_us[name] for name in RUNGS},
        "server.pool.route_us": _paired_median_us(
            timed["pool"], timed["session"]
        ),
        "io.codec_us": _paired_median_us(timed["codec"], timed["pool"]),
        "server.server.transport_us": _paired_median_us(
            timed["serve"], timed["codec"]
        ),
        "server.fleet.dispatch_us": _paired_median_us(
            timed["fleet"], timed["serve"]
        ),
        "trace.unattributed_share": traced["unattributed_share"],
        "trace.overhead_pct": overhead * 100.0,
        **traced["metrics"],
    }
    report = {
        "rung_median_us": medians_us,
        "traced_pool_median_us": statistics.median(traced["timed"]) * 1e6,
        "timed_requests_per_rung": count,
        "traced_requests": traced["sent"],
        "spans": traced["spans"],
        "spans_file": str(spans.name),
    }
    return metrics, report


def main() -> None:
    import argparse

    import corpus

    parser = argparse.ArgumentParser(description="Replay one ladder rung.")
    parser.add_argument("--rung", choices=RUNGS, required=True)
    parser.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    args.workdir.mkdir(parents=True, exist_ok=True)
    result = measure(
        args.rung,
        corpus.WORKLOADS[args.workload](args.seed),
        args.count,
        Path(__file__).resolve().parent.parent,
        args.workdir,
        args.spans,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
