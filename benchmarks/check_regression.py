"""Gate a fresh benchmark pass against the committed BENCH_*.json files.

Usage (after regenerating the artifacts in the working tree, e.g. by
``python -m benchmarks --skip-pytest``)::

    python benchmarks/check_regression.py [--tolerance 0.4]

For every ``BENCH_*.json`` at the repo root the committed version is
read from git (``git show HEAD:...``) and compared with the fresh
working-tree file:

* workloads carrying a ``speedup`` field (the service/rewriting suites)
  must retain at least ``tolerance`` × the committed speedup — ratios
  are what shared CI runners can be gated on, absolute times are not;
* workloads without one (the chase suite) must not run slower than
  ``1 / tolerance`` × the committed ``best_seconds``, with sub-``--min-
  seconds`` timings clamped up to the noise floor first (microsecond
  workloads flap on scheduler jitter, not regressions);
* the chase artifact's ``speedups_delta_vs_naive`` map must keep a
  median ≥ `CLOSURE_SPEEDUP_FLOOR` (5×) across the transitive-closure
  family — the delta engine's speedup over the naive reference is a
  same-run, same-host ratio, so it is gated absolutely, not against the
  committed copy;
* the service artifact must record ``warm-restart`` workloads whose
  best cold-vs-warm ratio stays ≥ `WARM_RESTART_SPEEDUP_FLOOR` (5×) —
  same-run, same-host, so gated absolutely as well;
* a workload recorded in the committed file but absent from the fresh
  run is an error (silently dropped coverage reads as "no regression").

Exit code 0 when everything holds, 1 with a per-workload report when
anything regressed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The delta engine must stay ≥5× the naive reference chase on the
#: transitive-closure family (median over the family's sizes — the
#: smallest point has too few rounds for the gap to open).
CLOSURE_SPEEDUP_FLOOR = 5.0

#: A warm restart over the durable store must stay ≥5× faster than the
#: cold restart on the best service family (gated absolutely — it is a
#: same-run, same-host ratio, like the closure gate; the per-family
#: ratios are additionally gated against the committed copy by the
#: generic ``speedup`` comparison above).
WARM_RESTART_SPEEDUP_FLOOR = 5.0


def committed_version(path: Path) -> dict | None:
    proc = subprocess.run(
        ["git", "show", f"HEAD:{path.name}"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def _key(workload: dict) -> tuple:
    # The chase suite records one row per engine under the same name.
    return (workload["name"], workload.get("engine", ""))


def compare(
    name: str,
    committed: dict,
    fresh: dict,
    tolerance: float,
    min_seconds: float = 0.0,
):
    """Yield (workload, message) for every regression found."""
    fresh_by_name = {_key(w): w for w in fresh.get("workloads", [])}
    for recorded in committed.get("workloads", []):
        workload = "/".join(filter(None, _key(recorded)))
        current = fresh_by_name.get(_key(recorded))
        if current is None:
            yield workload, "present in committed artifact, missing from fresh run"
            continue
        if "speedup" in recorded:
            floor = recorded["speedup"] * tolerance
            if current.get("speedup", 0.0) < floor:
                yield workload, (
                    f"speedup {current.get('speedup')}x fell below "
                    f"{floor:.2f}x (committed {recorded['speedup']}x, "
                    f"tolerance {tolerance})"
                )
        else:
            # Noise clamp: a 2 ms workload that "doubles" to 4 ms is
            # scheduler jitter, not a regression — compare against the
            # noise floor instead of the raw committed figure.
            reference = max(recorded["best_seconds"], min_seconds)
            ceiling = reference / tolerance
            if current["best_seconds"] > ceiling:
                yield workload, (
                    f"best_seconds {current['best_seconds']:.4f} exceeded "
                    f"{ceiling:.4f} (committed "
                    f"{recorded['best_seconds']:.4f}, tolerance {tolerance}, "
                    f"noise floor {min_seconds})"
                )


def check_closure_speedup(fresh: dict):
    """Gate the chase artifact's delta-vs-naive closure-family speedup.

    Yields (workload, message) when the fresh run's median
    transitive-closure speedup falls below `CLOSURE_SPEEDUP_FLOOR`, or
    when the field vanished (a regenerated artifact that stopped
    measuring the ratio must not silently pass).
    """
    speedups = fresh.get("speedups_delta_vs_naive")
    if speedups is None:
        yield "speedups_delta_vs_naive", (
            "field missing from the fresh chase artifact (the engine "
            "comparison was not measured)"
        )
        return
    closure = sorted(
        value
        for name, value in speedups.items()
        if name.startswith("transitive-closure")
    )
    if not closure:
        yield "speedups_delta_vs_naive", "no transitive-closure entries"
        return
    median = closure[len(closure) // 2]
    if median < CLOSURE_SPEEDUP_FLOOR:
        yield "speedups_delta_vs_naive", (
            f"median closure-family delta-vs-naive speedup {median}x fell "
            f"below the {CLOSURE_SPEEDUP_FLOOR}x floor (all: {speedups})"
        )


def check_warm_restart(fresh: dict):
    """Gate the service artifact's cold-vs-warm restart families.

    Yields (workload, message) when the fresh run records no
    ``warm-restart`` workloads (a regenerated artifact that stopped
    measuring the restart must not silently pass) or when the best
    family's cold/warm ratio falls below `WARM_RESTART_SPEEDUP_FLOOR`.
    """
    restarts = [
        w
        for w in fresh.get("workloads", [])
        if w.get("mode") == "warm-restart"
    ]
    if not restarts:
        yield "warm-restart", (
            "no warm-restart workloads in the fresh service artifact "
            "(the durable-store restart was not measured)"
        )
        return
    best = max(w.get("speedup", 0.0) for w in restarts)
    if best < WARM_RESTART_SPEEDUP_FLOOR:
        yield "warm-restart", (
            f"best cold-vs-warm restart speedup {best}x fell below the "
            f"{WARM_RESTART_SPEEDUP_FLOOR}x floor (families: "
            + ", ".join(
                f"{w['name']}={w.get('speedup')}x" for w in restarts
            )
            + ")"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="check_regression")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.4,
        help="fraction of the committed number a fresh run must retain "
        "(default 0.4 — CI runners are noisy, only gate on collapses)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.005,
        help="noise floor for absolute-time comparisons: committed "
        "timings below this are clamped up to it before the tolerance "
        "is applied (default 5 ms)",
    )
    args = parser.parse_args(argv)

    failures = 0
    checked = 0
    for path in sorted(ROOT.glob("BENCH_*.json")):
        if ".smoke." in path.name:
            continue
        committed = committed_version(path)
        if committed is None:
            print(f"{path.name}: not committed yet, skipping")
            continue
        fresh = json.loads(path.read_text())
        if fresh.get("smoke"):
            print(f"{path.name}: fresh file is a --smoke run, refusing")
            failures += 1
            continue
        for workload, message in compare(
            path.name, committed, fresh, args.tolerance, args.min_seconds
        ):
            print(f"REGRESSION {path.name} :: {workload}: {message}")
            failures += 1
        if path.name == "BENCH_chase.json":
            for workload, message in check_closure_speedup(fresh):
                print(f"REGRESSION {path.name} :: {workload}: {message}")
                failures += 1
        if path.name == "BENCH_service.json":
            for workload, message in check_warm_restart(fresh):
                print(f"REGRESSION {path.name} :: {workload}: {message}")
                failures += 1
        checked += 1
        print(f"{path.name}: checked against HEAD")
    if not checked:
        print("no committed BENCH_*.json artifacts found")
        return 1
    if failures:
        print(f"{failures} regression(s)")
        return 1
    print("ok: no benchmark regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
