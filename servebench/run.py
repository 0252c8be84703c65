"""One benchmark for the served decision path.

::

    python3 servebench/run.py --workload hot-repeat --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  Each run starts its own
``python -m repro fleet --port 0 --cache-dir <fresh dir>`` with the
program's defaults (2 workers), sets it up -- spawn to readiness plus
the workload's warm-up pass -- several times to time set-up, and on the
last fleet drives the timed phase: a closed loop over 2 TCP connections
from this one process.  Every reply is checked against the generating
family's ground truth; a wrong decision or a violated workload
property exits nonzero.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the run sets up once, runs the timed phase for the
``op: stats`` counts, and then runs the rung ladder and the traced
session/pool replay (`ladder`), and the last line carries the
per-layer metrics.  The line before it is a report with the raw
numbers (sample counts, cached share, guards, counts, host), also
written to ``servebench/out/``.  ``--workload all`` runs every
workload in turn.  The self-test is ``python3 servebench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Closed-loop client connections.
CONNECTIONS = 2
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: The timed phase is cut into this many equal slices; throughput and
#: p99 are medians over the slices, so a few seconds of host CPU steal
#: move them less than they move a whole-phase figure.
SLICES = 10
#: Timed requests per rung in the traced run: enough for the fleet rung
#: to span a few seconds, so one dip in host CPU speed moves a rung
#: less (the churn count is four cycles of its working set).
LADDER_REQUESTS = {
    "hot-repeat": 4000,
    "cold-distinct": 600,
    "schema-churn": 1536,
}


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def host_info() -> dict:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
        else:
            commit = ref
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def end_to_end(workload, workdir: Path, seconds: float, setups: int) -> dict:
    """Set up ``setups`` times, time the last fleet's closed loop."""
    from layers import stats_metrics
    from servers import (
        BenchmarkError,
        ServerProcess,
        closed_loop,
        scrape_stats,
    )

    setup_s = []
    fleet = None
    try:
        for attempt in range(setups):
            if fleet is not None:
                fleet.stop()
            started = time.perf_counter()
            fleet = ServerProcess(
                "fleet", ROOT, workdir / f"cache-{attempt}",
                workdir / "fleet.log",
            ).start()
            for batch in workload.warmup:
                warm = closed_loop(
                    fleet.address, iter(batch), connections=CONNECTIONS
                )
                if warm.failed:
                    raise BenchmarkError(
                        f"{warm.failed} warm-up requests failed"
                    )
            setup_s.append(time.perf_counter() - started)
        before = scrape_stats(fleet.address)
        cpu_before = fleet.cpu_seconds()
        loop = closed_loop(
            fleet.address,
            workload.timed(),
            connections=CONNECTIONS,
            seconds=seconds,
        )
        cpu_s = fleet.cpu_seconds() - cpu_before
        after = scrape_stats(fleet.address)
        rss_mb = fleet.peak_rss_mb()
    finally:
        if fleet is not None:
            fleet.stop()
    if not loop.correct:
        raise BenchmarkError("no request of the timed phase succeeded")
    latencies = sorted(loop.latencies_s)
    slices = [sorted(bucket) for bucket in loop.slices(SLICES)]
    counts = stats_metrics(
        before, after, requests=loop.attempted, cached=loop.cached
    )
    return {
        "metrics": {
            "throughput_rps": statistics.median(
                len(bucket) * SLICES / loop.elapsed_s for bucket in slices
            ),
            "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
            "latency_p99_ms": statistics.median(
                percentile(bucket, 0.99) for bucket in slices if bucket
            ) * 1e3,
            "success_rate": loop.correct / loop.attempted,
            "server_cpu_ms_per_req": cpu_s * 1e3 / loop.attempted,
            "server_peak_rss_mb": rss_mb,
            "setup_s": statistics.median(setup_s),
        },
        "counts": counts,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "latency_samples": len(latencies),
        "slice_samples": [len(bucket) for bucket in slices],
        "latency_p99_samples_beyond_per_slice": min(
            len(bucket) - math.ceil(0.99 * len(bucket)) for bucket in slices
        ),
        "whole_phase": {
            "throughput_rps": loop.correct / loop.elapsed_s,
            "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        },
        "cached_share": loop.cached / loop.correct,
        "timed_elapsed_s": loop.elapsed_s,
        "setup_s_each": setup_s,
        "server_cpu_s": cpu_s,
    }


def guard_violations(name: str, result: dict) -> list[str]:
    """The workload properties later claims rely on."""
    counts = result["counts"]
    violations = []
    if name == "hot-repeat" and result["cached_share"] < 1.0:
        violations.append(
            f"cached share {result['cached_share']:.4f} < 1 on hot-repeat"
        )
    if name == "cold-distinct" and (
        result["cached_share"] > 0 or counts["cache.decision.hits"] > 0
    ):
        violations.append("decision-cache hits on cold-distinct")
    if name == "schema-churn" and counts["server.pool.evictions_per_req"] < 1:
        violations.append(
            f"{counts['server.pool.evictions_per_req']:.4f} evictions per "
            "request < 1 on schema-churn"
        )
    return violations


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """One workload; returns (final line, report)."""
    import corpus
    import ladder
    from layers import END_TO_END, PER_LAYER

    workload = corpus.WORKLOADS[name](seed)
    workdir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result = end_to_end(workload, workdir, seconds, 1 if trace else SETUPS)
    violations = guard_violations(name, result)
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "host": host_info(),
        "connections": CONNECTIONS,
        "e2e": result,
        "guard_violations": violations,
    }
    attempted, failed = result["attempted"], result["failed"]
    if trace:
        metrics, report["ladder"] = ladder.run_ladder(
            workload,
            seed,
            ROOT,
            workdir,
            LADDER_REQUESTS[name],
            workdir / "spans.jsonl.gz",
        )
        metrics.update(result["counts"])
        table = PER_LAYER
    else:
        metrics = result["metrics"]
        table = END_TO_END
    line = {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric.name: {"value": metrics[metric.name], "unit": metric.unit}
            for metric in table
        },
    }
    (workdir / "result.json").write_text(
        json.dumps({"report": report, "result": line}, indent=1)
    )
    for entry in workdir.glob("cache-*"):
        shutil.rmtree(entry)
    shutil.rmtree(workdir / "traced", ignore_errors=True)
    return line, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import corpus
    from servers import BenchmarkError, WrongDecision

    names = list(corpus.WORKLOADS) if args.workload == "all" else [
        args.workload
    ]
    unknown = [name for name in names if name not in corpus.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    nproc = len(os.sched_getaffinity(0))
    if CONNECTIONS > nproc:
        print(
            f"refusing to run: {CONNECTIONS} client connections exceed "
            f"nproc={nproc}",
            file=sys.stderr,
        )
        return 2
    lines = []
    for name in names:
        try:
            line, report = run_workload(
                name, args.seed, args.seconds, bool(args.trace)
            )
        except WrongDecision as error:
            print(f"wrong decision on {name}: {error}", file=sys.stderr)
            return 1
        except BenchmarkError as error:
            print(f"benchmark failed on {name}: {error}", file=sys.stderr)
            return 2
        for metric, entry in line["metrics"].items():
            print(f"{name:14s} {metric:44s} {entry['value']:14.6g} "
                  f"{entry['unit']}")
        print(json.dumps(report, sort_keys=True))
        if report["guard_violations"]:
            print(
                f"workload guard violated on {name}: "
                + "; ".join(report["guard_violations"]),
                file=sys.stderr,
            )
        lines.append((name, line))
    if len(lines) == 1:
        final = lines[0][1]
    else:
        final = {
            "correct": all(line["correct"] for __, line in lines),
            "attempted": sum(line["attempted"] for __, line in lines),
            "failed": sum(line["failed"] for __, line in lines),
            "metrics": {
                f"{name}/{metric}": entry
                for name, line in lines
                for metric, entry in line["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so the `finally` blocks still
    # stop every fleet and server this run started.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    sys.exit(main())
