"""Graph-analysis parity: classification, weak acyclicity, semi-width
and the UIDs+FDs finite closure over a fixed corpus must equal the
outputs recorded in ``graph_parity.json``.

The record was made with the networkx-based implementation these
analyses used before `repro.constraints.graph` replaced it, so this is
the byte-identical check for that replacement.  The corpus is the
example schema, the paper schemas and the `repro.workloads` generators,
plus seeded random UID+FD schemas (finite closure with cycles) and
seeded random TGD sets (special edges for weak acyclicity).

Regenerate the record (only when an analysis is meant to change)::

    PYTHONPATH=src python tests/constraints/test_graph_parity.py --record
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from repro.constraints import (
    TGD,
    FunctionalDependency,
    classify,
    fd,
    finite_closure,
    inclusion_dependency,
    is_weakly_acyclic,
    semi_width,
    tgd,
)
from repro.io import load_schema
from repro.schema.schema import Schema
from repro.workloads import (
    chemistry_service,
    example_6_1_schema,
    example_8_1_story,
    fd_determinacy_workload,
    id_chain_workload,
    id_width_workload,
    lookup_chain_workload,
    movie_service,
    random_id_workload,
    tgd_transfer_workload,
    uid_fd_workload,
    university_schema,
)

ROOT = Path(__file__).resolve().parents[2]
RECORD = Path(__file__).with_name("graph_parity.json")


def _random_uid_fd_schema(seed: int) -> Schema:
    """UIDs and FDs over a few relations: cyclic UID chains and unary
    FDs, so the finite closure's cycle rule fires."""
    rng = random.Random(seed)
    schema = Schema()
    arities = {f"N{i}": rng.randint(2, 3) for i in range(rng.randint(1, 4))}
    for name, arity in arities.items():
        schema.add_relation(name, arity)
    names = sorted(arities)
    for __ in range(rng.randint(1, 6)):
        source, target = rng.choice(names), rng.choice(names)
        schema.add_constraint(
            inclusion_dependency(
                source, (rng.randrange(arities[source]),),
                target, (rng.randrange(arities[target]),),
                arities[source], arities[target],
            )
        )
    for __ in range(rng.randint(0, 4)):
        name = rng.choice(names)
        determined = rng.randrange(arities[name])
        others = [p for p in range(arities[name]) if p != determined]
        determiner = rng.sample(others, rng.randint(1, len(others)))
        schema.add_constraint(fd(name, determiner, determined))
    return schema


def _random_tgd_schema(seed: int) -> Schema:
    """Random TGDs with existential heads: special edges and cycles for
    weak acyclicity, mixed widths for semi-width."""
    rng = random.Random(seed)
    schema = Schema()
    arities = {f"R{i}": rng.randint(1, 3) for i in range(rng.randint(1, 4))}
    for name, arity in arities.items():
        schema.add_relation(name, arity)
    names = sorted(arities)

    def atom_text(variables: list[str]) -> str:
        name = rng.choice(names)
        terms = [rng.choice(variables) for __ in range(arities[name])]
        return f"{name}({', '.join(terms)})"

    body_vars = [f"x{i}" for i in range(3)]
    head_vars = body_vars + ["z0", "z1"]
    for __ in range(rng.randint(1, 4)):
        body = [atom_text(body_vars) for __ in range(rng.randint(1, 2))]
        head = [atom_text(head_vars) for __ in range(rng.randint(1, 2))]
        schema.add_constraint(tgd(f"{', '.join(body)} -> {', '.join(head)}"))
    return schema


def corpus() -> dict[str, Schema]:
    cases: dict[str, Schema] = {
        "examples/university.json": load_schema(
            ROOT / "examples" / "university.json"
        ),
        "university": university_schema(),
        "university-ud2-fd": university_schema(with_ud2=True, with_fd=True),
        "example-6.1": example_6_1_schema(),
        "example-8.1": example_8_1_story().schema,
        "chemistry": chemistry_service(compounds=5)[0],
        "movies": movie_service(titles=5)[0],
    }
    for n in range(4):
        cases[f"lookup-chain-{n}"] = lookup_chain_workload(n).schema
        cases[f"lookup-chain-{n}-bound"] = lookup_chain_workload(
            n, dump_bound=3
        ).schema
        cases[f"id-chain-{n + 1}"] = id_chain_workload(n + 1).schema
        cases[f"id-width-{n + 1}"] = id_width_workload(n + 1).schema
        cases[f"fd-determinacy-{n + 1}"] = fd_determinacy_workload(
            n + 1
        ).schema
        cases[f"uid-fd-{n + 1}"] = uid_fd_workload(n + 1).schema
        cases[f"uid-nofd-{n + 1}"] = uid_fd_workload(
            n + 1, with_fd=False
        ).schema
        cases[f"tgd-transfer-{n + 1}"] = tgd_transfer_workload(n + 1).schema
    for seed in range(40):
        cases[f"random-ids-{seed}"] = random_id_workload(
            seed, relations=2 + seed % 4, ids=1 + seed % 7
        ).schema
        cases[f"random-uid-fd-{seed}"] = _random_uid_fd_schema(seed)
        cases[f"random-tgds-{seed}"] = _random_tgd_schema(seed)
    return cases


def analyse(schema: Schema) -> dict:
    constraints = schema.constraints
    tgds = [c for c in constraints if isinstance(c, TGD)]
    fds = [c for c in constraints if isinstance(c, FunctionalDependency)]
    outputs = {
        "fragment": classify(constraints).fragment.value,
        "weakly_acyclic": is_weakly_acyclic(tgds),
        "semi_width": semi_width(tgds),
        "finite_closure": None,
    }
    if all(d.is_unary_inclusion_dependency() for d in tgds):
        closure = finite_closure(tgds, fds, schema.arities())
        outputs["finite_closure"] = {
            "uids": [list(map(list, pair)) for pair in sorted(closure.uids)],
            "fds": sorted(repr(d) for d in closure.fds),
        }
    return outputs


def record() -> dict[str, dict]:
    return {name: analyse(schema) for name, schema in corpus().items()}


def test_outputs_equal_the_record():
    recorded = json.loads(RECORD.read_text())
    current = json.loads(json.dumps(record()))
    assert sorted(current) == sorted(recorded)
    differing = [name for name in recorded if current[name] != recorded[name]]
    assert not differing, differing


def test_corpus_exercises_every_branch():
    recorded = json.loads(RECORD.read_text())
    outputs = recorded.values()
    assert {o["weakly_acyclic"] for o in outputs} == {True, False}
    assert len({o["semi_width"] for o in outputs}) > 2
    # Only the cycle rule adds FDs, so a closure with more FDs than its
    # input is one where a cycle of cardinality inequalities was found.
    grew = []
    for name, schema in corpus().items():
        closure = recorded[name]["finite_closure"]
        fds = {
            c for c in schema.constraints
            if isinstance(c, FunctionalDependency)
        }
        if closure is not None and len(closure["fds"]) > len(fds):
            grew.append(name)
    assert len(grew) >= 3, grew


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    lines = [
        f"{json.dumps(name)}: {json.dumps(outputs, sort_keys=True)}"
        for name, outputs in sorted(record().items())
    ]
    RECORD.write_text("{\n" + ",\n".join(lines) + "\n}\n")
