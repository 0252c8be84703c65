"""Substrate benchmark AB-3: the chase engine itself.

Times the restricted chase on full-TGD closure workloads, existential
TGD chains, and FD merge cascades — the machinery every decider sits
on.  Besides the pytest-benchmark tests,
`collect_records` times every workload on both engines (``delta`` vs the
``naive`` reference), so the delta engine's speedup is measured in the
same run on the same host.  ``main`` persists the comparison to
``BENCH_chase.json`` — the perf trajectory artifact future chase
changes regress against (`check_regression.py` gates the closure-family
delta-vs-naive speedup at ≥5×).  Run it via ``python -m benchmarks
--only chase``; ``--smoke`` shrinks sizes for CI.
"""

import argparse
import os
from pathlib import Path

import pytest

from repro.chase import ChaseOutcome, chase
from repro.constraints import fd, tgd
from repro.data import Instance
from repro.logic import Atom, Constant, Null
from repro.matching import Matcher

from _harness import ROOT, BenchRecord, time_workload, write_bench_json

SIZES = [20, 60, 120]

#: The previously-impractical scaling point: delta-only (the naive
#: reference needs minutes here) with full best-of-3 repeats.
LARGE_SIZE = 240

#: Per-(workload, engine) repeat counts for the JSON run: the naive
#: engine is orders of magnitude slower on the large scaling points, so
#: it gets a single measured run where delta gets best-of-3.
_REPEATS = {"delta": 3, "naive": 1}


def _path(n):
    return Instance(
        Atom("E", (Constant(i), Constant(i + 1))) for i in range(n)
    )


def _closure_rules():
    return [tgd("E(x, y) -> T(x, y)"), tgd("T(x, y), E(y, z) -> T(x, z)")]


def chase_workloads(*, smoke: bool = False):
    """The scaling families timed by the JSON artifact.

    Each entry is ``(name, build)`` where ``build(engine, matcher=None)``
    runs one chase and returns its `ChaseResult`.  The
    transitive-closure points are the family the ≥5× delta-vs-naive gate
    is measured on; `LARGE_SIZE` is the "previously-impractical" scaling
    point of the acceptance criterion (delta-only).
    """

    def runner(start, rules):
        return lambda engine, matcher=None, s=start, r=rules: chase(
            s, r, engine=engine, matcher=matcher
        )

    workloads = []
    closure_sizes = [20, 40] if smoke else SIZES + [LARGE_SIZE]
    for size in closure_sizes:
        workloads.append((
            f"transitive-closure-n{size}",
            runner(_path(size), _closure_rules()),
        ))
    for size in [200] if smoke else [200, 1000]:
        start = Instance(Atom("A", (Constant(i),)) for i in range(size))
        rules = [tgd("A(x) -> B(x, z)"), tgd("B(x, z) -> C(z)")]
        workloads.append((f"existential-chain-n{size}", runner(start, rules)))
    for size in [200] if smoke else [200, 600]:
        start = Instance(
            Atom("R", (Constant("k"), Null(f"n{i}"))) for i in range(size)
        )
        workloads.append((
            f"fd-merge-cascade-n{size}", runner(start, [fd("R", [0], 1)]),
        ))
    return workloads


def _result_meta(result):
    return {
        "facts": len(result.instance),
        "rounds": result.rounds,
        "outcome": result.outcome.value,
        "trigger_searches": result.stats.searches,
        "merges": result.stats.merges,
    }


def collect_records(engines=("delta", "naive"), *, smoke=False):
    """Time every workload on every engine; return `BenchRecord` rows.

    Every run gets a fresh `Matcher`, so no run inherits another's
    compiled plans.  The naive reference is skipped on the `LARGE_SIZE`
    closure point (it needs minutes there; that point exists precisely
    because the delta engine makes it practical).
    """
    records: list[BenchRecord] = []
    host_cpus = os.cpu_count()
    for name, build in chase_workloads(smoke=smoke):
        runs = list(engines)
        if name == f"transitive-closure-n{LARGE_SIZE}" and "naive" in runs:
            runs.remove("naive")
        for engine in runs:
            record = time_workload(
                f"{name}",
                lambda build=build, engine=engine: (
                    build(engine, matcher=Matcher())
                ),
                repeat=_REPEATS[engine],
                meta_of=_result_meta,
            )
            record.meta["engine"] = engine
            record.meta["host_cpus"] = host_cpus
            records.append(record)
            print(
                f"  {name:32s} {engine:12s} "
                f"{record.best_seconds * 1000:10.2f} ms"
                f"  ({record.meta['facts']} facts, "
                f"{record.meta['rounds']} rounds, "
                f"{record.meta['trigger_searches']} searches)"
            )
    return records


def _speedups(records, reference_engine, target_engine="delta"):
    """Per-workload speedup of `target_engine` over `reference_engine`."""
    by_key = {(r.name, r.meta.get("engine")): r for r in records}
    speedups = {}
    for (name, engine), record in by_key.items():
        if engine != target_engine:
            continue
        reference = by_key.get((name, reference_engine))
        if reference is not None and record.best_seconds > 0:
            speedups[name] = round(
                reference.best_seconds / record.best_seconds, 2
            )
    return speedups


def main(argv: list[str] | None = None) -> None:
    """Regenerate BENCH_chase.json (delta vs naive engine)."""
    parser = argparse.ArgumentParser(prog="bench_chase_engine")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI smoke runs (written to a .smoke.json "
        "sidecar unless --out is given)",
    )
    parser.add_argument("--out", default=None, help="output path override")
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    print(f"chase engine benchmark ({mode}):")
    records = collect_records(smoke=args.smoke)
    delta_vs_naive = _speedups(records, "naive")
    if args.out:
        out = Path(args.out)
    elif args.smoke:
        out = ROOT / "BENCH_chase.smoke.json"
    else:
        out = None
    target = write_bench_json(
        "chase",
        records,
        extra={
            "smoke": args.smoke,
            "host_cpus": os.cpu_count(),
            "speedups_delta_vs_naive": delta_vs_naive,
        },
        path=out,
    )
    print(f"speedups (delta vs naive): {delta_vs_naive}")
    print(f"wrote {target}")


# ----------------------------------------------------------------------
# pytest-benchmark entry points (pytest benchmarks/ --benchmark-only)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("size", SIZES)
def test_full_tgd_transitive_closure(benchmark, size):
    """T(x,y) ∧ E(y,z) → T(x,z): quadratic closure of a path."""
    rules = _closure_rules()
    start = _path(size)
    result = benchmark.pedantic(
        lambda: chase(start, rules), rounds=2, iterations=1
    )
    assert result.outcome is ChaseOutcome.FIXPOINT
    assert len(result.instance.facts_of("T")) == size * (size + 1) // 2


@pytest.mark.parametrize("size", SIZES)
def test_existential_chain(benchmark, size):
    """A(x) → B(x,z) → C(z): null creation and propagation."""
    rules = [tgd("A(x) -> B(x, z)"), tgd("B(x, z) -> C(z)")]
    start = Instance(Atom("A", (Constant(i),)) for i in range(size))
    result = benchmark(lambda: chase(start, rules))
    assert result.outcome is ChaseOutcome.FIXPOINT
    assert len(result.instance.facts_of("C")) == size


@pytest.mark.parametrize("size", SIZES)
def test_fd_merge_cascade(benchmark, size):
    """n facts over one key: n-1 null merges."""
    start = Instance(
        Atom("R", (Constant("k"), Null(f"n{i}"))) for i in range(size)
    )
    result = benchmark.pedantic(
        lambda: chase(start, [fd("R", [0], 1)]), rounds=2, iterations=1
    )
    assert result.outcome is ChaseOutcome.FIXPOINT
    assert len(result.instance) == 1


if __name__ == "__main__":
    main()
