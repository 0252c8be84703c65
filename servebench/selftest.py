"""Self-test of the benchmark: ``python3 servebench/selftest.py``.

Runs a smoke-sized pass of every workload through the real entry
point and checks that

* every metric ``BENCHMARK.json`` names prints, by name and unit, in
  both modes, and agrees with the tables in `layers`;
* a deliberately wrong expected decision makes the run exit nonzero
  without a result line;
* the traced run's spans nest (each child inside its parent's interval,
  under the same request id) and cover every wrapped layer;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  own files the run exits nonzero without a result line.

Exits nonzero on the first failed check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import io
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import run  # noqa: E402
from layers import END_TO_END, PER_LAYER  # noqa: E402

SEED = 7
SMOKE_SECONDS = "1"
#: Smoke-sized ladders (the warm-up passes still run in full).
SMOKE_LADDER = {"hot-repeat": 64, "cold-distinct": 20, "schema-churn": 40}
#: Span names the traced run must record at least once per workload.
LAYERS = (
    "server.pool", "service.session", "logic.parse", "answerability",
    "service.compiled.build", "containment.rewrite", "chase", "matching",
    "cache.load", "cache.store",
)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def invoke(*argv: str) -> tuple[int, list[str]]:
    """`run.main` in this process; returns (exit code, stdout lines)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, out.getvalue().splitlines()


def check_benchmark_json() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        spec["workloads"] and
        [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS),
        "BENCHMARK.json workloads differ from corpus.WORKLOADS",
    )
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [
            (m["name"], m["unit"], m["better"], m.get("bound"))
            for m in spec[key]
        ]
        expected = [(m.name, m.unit, m.better, m.bound) for m in table]
        if key == "per_layer":
            expected = [entry[:3] + (None,) for entry in expected]
        expect(listed == expected, f"BENCHMARK.json {key} differs from layers")
    return spec


def check_metrics(spec: dict) -> None:
    run.LADDER_REQUESTS = dict(SMOKE_LADDER)
    for workload, trace in itertools.product(corpus.WORKLOADS, ("0", "1")):
        code, lines = invoke(
            "--workload", workload, "--seed", str(SEED),
            "--seconds", SMOKE_SECONDS, "--trace", trace,
        )
        expect(code == 0, f"{workload} trace {trace} exited {code}")
        final = json.loads(lines[-1])
        expect(
            set(final) == {"correct", "attempted", "failed", "metrics"},
            f"{workload}: result line keys {sorted(final)}",
        )
        expect(final["correct"] and final["attempted"] >= 1,
               f"{workload}: {final}")
        listed = spec["per_layer" if trace == "1" else "end_to_end"]
        printed = {
            name: entry["unit"] for name, entry in final["metrics"].items()
        }
        expect(
            {m["name"]: m["unit"] for m in listed} == printed,
            f"{workload} trace {trace}: metric names or units differ",
        )
        for metric in listed:
            value = final["metrics"][metric["name"]]["value"]
            expect(
                isinstance(value, (int, float)),
                f"{workload}: {metric['name']} is not a number",
            )
            expect(
                any(metric["name"] in line and metric["unit"] in line
                    for line in lines[:-1]),
                f"{workload}: {metric['name']} not printed with its unit",
            )
        if trace == "1":
            check_spans(workload)
        print(f"ok: {workload} trace {trace} prints every metric")


def check_spans(workload: str) -> None:
    path = run.OUT / f"{workload}-seed{SEED}-trace1" / "spans.jsonl.gz"
    with gzip.open(path, "rt") as handle:
        spans = [json.loads(line) for line in handle]
    expect(spans, f"{workload}: no spans recorded")
    nested = 0
    for index, (name, start, end, parent, request, __) in enumerate(spans):
        expect(start <= end, f"{workload}: span {index} ends before start")
        if parent < 0:
            continue
        nested += 1
        p_name, p_start, p_end, __, p_request, __ = spans[parent]
        expect(parent < index, f"{workload}: span {index} precedes parent")
        expect(
            p_start <= start <= end <= p_end,
            f"{workload}: {name} span {index} escapes its {p_name} parent",
        )
        expect(request == p_request,
               f"{workload}: span {index} changes request id")
    expect(nested > 0, f"{workload}: no nested spans")
    missing = set(LAYERS) - {span[0] for span in spans}
    expect(not missing, f"{workload}: no spans for {sorted(missing)}")


def check_wrong_decision() -> None:
    build = corpus.WORKLOADS["hot-repeat"]

    def flipped(seed: int) -> corpus.Workload:
        workload = build(seed)
        pairs = workload.warmup[0]
        pairs = [dataclasses.replace(pairs[0], expected=not pairs[0].expected),
                 *pairs[1:]]
        return dataclasses.replace(
            workload,
            warmup=[pairs] * len(workload.warmup),
            timed=lambda: itertools.cycle(pairs),
        )

    corpus.WORKLOADS["hot-repeat"] = flipped
    try:
        code, lines = invoke(
            "--workload", "hot-repeat", "--seed", str(SEED),
            "--seconds", SMOKE_SECONDS, "--trace", "0",
        )
    finally:
        corpus.WORKLOADS["hot-repeat"] = build
    expect(code != 0, "a wrong expected decision did not fail the run")
    expect(not any(line.startswith('{"correct"') for line in lines),
           "a run with a wrong decision printed a result line")
    print("ok: a wrong expected decision fails the run")


def check_bare_directory() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    child = subprocess.run(
        [*spec["command"], "--workload", "hot-repeat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    expect(child.returncode != 0, "the bare directory run exited 0")
    expect('"correct"' not in child.stdout,
           "the bare directory run printed a result")
    print("ok: without the program the run fails without a result")


def main() -> int:
    spec = check_benchmark_json()
    print("ok: BENCHMARK.json matches the metric tables")
    check_bare_directory()
    check_wrong_decision()
    check_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
