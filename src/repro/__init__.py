"""repro — answering queries with result-bounded data interfaces.

A complete, from-scratch implementation of the framework of

    Antoine Amarilli and Michael Benedikt,
    "When Can We Answer Queries Using Result-Bounded Data Interfaces?",
    PODS 2018 (extended arXiv version 1706.07936).

The library decides *monotone answerability*: given a relational schema
with integrity constraints and access methods — some returning at most
``k`` tuples, chosen nondeterministically — can a conjunctive query be
implemented exactly by a monotone plan over the methods?

Quickstart — open a `Session` on a schema and decide queries against
it (per-schema analysis runs once, decisions are cached)::

    from repro import Schema, Session, tgd

    schema = Schema()
    schema.add_relation("Prof", 3)
    schema.add_relation("Udirectory", 3)
    schema.add_method("pr", "Prof", inputs=[0])
    schema.add_method("ud", "Udirectory", inputs=[], result_bound=100)
    schema.add_constraint(tgd("Prof(i,n,s) -> Udirectory(i,a,p)"))

    session = Session(schema)
    response = session.decide("Udirectory(i, a, p)")
    assert response.is_yes        # Example 1.4 of the paper
    response.to_dict()            # JSON-ready wire form
    session.plan("Udirectory(i, a, p)").plan   # the static plan text

The one-shot free functions remain::

    from repro import boolean_cq, atom, decide_monotone_answerability
    q2 = boolean_cq([atom("Udirectory", "i", "a", "p")])
    assert decide_monotone_answerability(schema, q2).is_yes

To serve decisions over TCP (JSON-lines protocol, one session per
schema fingerprint; see `repro.server` and DESIGN.md §3a)::

    python -m repro serve schema.json --port 8765

or in-process::

    from repro import SessionPool
    pool = SessionPool(schema)
    pool.process(DecideRequest(query="Udirectory(i, a, p)"))

Package map (details in DESIGN.md):

* `repro.logic` / `repro.data` — queries, homomorphisms, instances;
* `repro.matching` — the compiled matching core: planned, memoized
  homomorphism evaluation shared by the chase, containment, and
  rewriting (free functions in `repro.logic.homomorphism` delegate
  here);
* `repro.constraints` — TGDs/IDs/UIDs/FDs/EGDs and their analysis;
* `repro.chase` / `repro.containment` — the chase and query containment
  (chase-based and backward-rewriting routes);
* `repro.schema` / `repro.accessibility` — access methods, result
  bounds, access selections, accessible parts;
* `repro.plans` — the plan language, execution, plan→UCQ;
* `repro.answerability` — the paper's core: AMonDet reduction, schema
  simplifications, per-class deciders, linearization, plan generation;
* `repro.service` — compiled schemas, sessions, decision caching (the
  serving layer the CLI and batch mode sit on);
* `repro.cache` — the durable persistence tier: fingerprint-addressed
  SQLite/memory key-value stores, versioned artifact envelopes
  (decisions, plans, the warm set), warm restarts (DESIGN.md §2b);
* `repro.runtime` — request budgets: deadlines, cooperative
  cancellation, the retryable `DeadlineExceeded`/`Overloaded` errors;
* `repro.server` — the serving front end: per-fingerprint session
  pooling, the asyncio JSON-lines server (quotas, shedding, graceful
  drain), the crash-tolerant worker supervisor, the WSGI adapter;
* `repro.io` — JSON codecs: schemas, queries, requests, responses,
  error frames;
* `repro.workloads` — paper examples, generators, simulated services;
* `repro.defaults` — default limits and serving sizes, importing
  nothing, so the CLI parser loads no layer.
"""

import importlib
import sys
import types

__version__ = "1.5.0"

#: The public names, by the subpackage that defines them.  Each is
#: imported on first access (PEP 562), so ``import repro`` loads only
#: the layers a process uses: the fleet dispatcher never loads the
#: decision core.
_EXPORTED_BY = {
    ".cache": (
        "ArtifactStore", "CacheError", "KVStore", "MemoryKVStore",
        "SQLiteKVStore", "WarmupError", "open_directory",
    ),
    ".answerability": (
        "AnswerabilityResult", "UniversalPlan", "choice_simplification",
        "decide_monotone_answerability", "existence_check_simplification",
        "fd_simplification", "find_amondet_counterexample",
        "generate_static_plan",
    ),
    ".constraints": (
        "EGD", "TGD", "ConstraintClass", "FunctionalDependency", "fd",
        "inclusion_dependency", "parse_fd", "tgd",
    ),
    ".containment": ("Decision", "Truth", "contains", "linear_contains"),
    ".chase": ("ChaseOutcome", "chase"),
    ".data": ("Instance",),
    ".logic": (
        "Atom", "ConjunctiveQuery", "Constant", "Null",
        "UnionOfConjunctiveQueries", "Variable", "atom", "boolean_cq", "cq",
        "evaluate_cq", "ground_atom", "holds", "parse_cq",
    ),
    ".plans": ("Plan", "execute", "plan_to_ucq"),
    ".schema": ("AccessMethod", "Relation", "Schema"),
    ".obs": (
        "MetricsRegistry", "RequestLogger", "StageTimer", "render_prometheus",
    ),
    ".runtime": ("Budget", "DeadlineExceeded", "Overloaded", "WorkerLost"),
    ".server": (
        "CrashLoopError", "DecideServer", "SessionLimits", "SessionPool",
        "Supervisor", "make_wsgi_app",
    ),
    ".service": (
        "CompiledSchema", "DecideRequest", "DecideResponse", "ErrorFrame",
        "PlanResponse", "Session", "compile_schema", "schema_fingerprint",
    ),
}
_SOURCE = {
    name: module for module, names in _EXPORTED_BY.items() for name in names
}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Importing the `repro.chase` subpackage binds it on its parent;
        # the package-level name `chase` stays the chase function.
        if name == "chase" and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
