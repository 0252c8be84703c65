"""Service layer: compiled schemas and decision sessions.

This package is the architectural seam between the paper's decision
procedures (`repro.answerability`) and anything that serves them — the
CLI, a batch pipeline, or a future server/shard:

* `compile_schema` / `CompiledSchema` — per-schema analysis (constraint
  classification, simplifications, AMonDet axioms, linearization) run
  once and frozen, with a content `fingerprint` for routing and caching;
* `Session` — `decide` / `decide_many` / `plan` / `explain` with an LRU
  decision cache and per-session resource limits;
* the wire types live in `repro.io` (`DecideRequest`, `DecideResponse`,
  `PlanResponse`).
"""

from ..io import DecideRequest, DecideResponse, ErrorFrame, PlanResponse
from .compiled import (
    CompiledSchema,
    as_compiled,
    compile_schema,
    schema_fingerprint,
)
from ..schema.schema import QuerySchemaError
from .session import Session, canonical_query_key

__all__ = [
    "CompiledSchema", "as_compiled", "compile_schema",
    "schema_fingerprint",
    "QuerySchemaError", "Session", "canonical_query_key",
    "DecideRequest", "DecideResponse", "ErrorFrame", "PlanResponse",
]
