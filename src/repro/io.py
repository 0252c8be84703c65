"""Wire formats: schemas, queries, and service requests/responses.

This module is the serialization boundary of the library: everything a
server, batch pipeline, or CLI exchanges goes through the codecs here.

The JSON schema format::

    {
      "relations": {"Prof": 3, "Udirectory": 3},
      "attributes": {"Prof": ["id", "name", "salary"]},        // optional
      "methods": [
        {"name": "pr", "relation": "Prof", "inputs": [1]},
        {"name": "ud", "relation": "Udirectory", "inputs": [],
         "result_bound": 100}
      ],
      "constraints": [
        "Prof(i,n,s) -> Udirectory(i,a,p)",     // TGD/ID text syntax
        "Udirectory: 1 -> 2",                    // FD text syntax
        "[tau] Prof(i,n,s) -> Udirectory(i,a,p)" // optional [name] label
      ]
    }

Positions in the JSON (method inputs, FD positions) are **1-based**, as
in the paper.  Queries use the text syntax of `repro.logic.parser`:
``"Q(n) :- Prof(i, n, 10000)"`` or a bare Boolean body.

`schema_to_dict` / `schema_from_dict` round-trip: relations, attributes,
methods (inputs, result bounds, lower bounds), and constraints —
including constraint names, emitted as a ``[name]`` label prefix.

The request/response dataclasses (`DecideRequest`, `DecideResponse`,
`PlanResponse`, `ErrorFrame`) are the typed wire surface of
`repro.service.Session`; each carries ``to_dict`` / ``from_dict`` JSON
codecs so every result is directly serializable (used by the ``--json``
and ``batch`` CLI modes, and by the JSON-lines protocol of
`repro.server`).

Requests carry an ``op`` (default ``"decide"``): ``"plan"`` asks for a
static plan (`PlanResponse`), ``"stats"`` for serving-side diagnostics,
``"ping"`` for a liveness probe.  A request the server cannot process —
unparseable JSON, a bad schema, an unknown op — always comes back as an
`ErrorFrame` (``{"error": {"type": ..., "message": ...}}``), never as a
stack trace or a dropped connection.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from .logic.queries import ConjunctiveQuery
    from .schema.schema import Schema

# The codecs below import the constraint, logic and schema layers inside
# the functions that build those objects: the frame codecs are all a
# relay process (the fleet dispatcher) needs from this module.


class SchemaFormatError(ValueError):
    """Raised on malformed JSON schema descriptions."""


class WarmupError(SchemaFormatError):
    """Typed failure loading a ``--warm`` manifest: the serving layer
    records the message on the `ReadyFrame` and serves cold."""


# ----------------------------------------------------------------------
# Schemas
# ----------------------------------------------------------------------
def parse_constraint(text: str):
    """Parse one constraint string: TGD/ID or FD, with an optional
    ``[name]`` label prefix (the form `repr` emits)."""
    from .constraints.fd import parse_fd
    from .constraints.tgd import tgd

    name = ""
    stripped = text.strip()
    if stripped.startswith("["):
        label, bracket, rest = stripped[1:].partition("]")
        if not bracket:
            raise SchemaFormatError(f"unterminated constraint label: {text!r}")
        name, stripped = label.strip(), rest.strip()
    head = stripped.split("->", 1)[0]
    if "->" in stripped and ":" in head and "(" not in stripped:
        parsed = parse_fd(stripped)
        if name:
            parsed = dataclasses.replace(parsed, name=name)
        return parsed
    return tgd(stripped, name=name)


def schema_from_dict(description: dict[str, Any]) -> Schema:
    """Build a `Schema` from a parsed JSON description.

    Total over JSON values: any malformed description — a wrong type
    anywhere, a bad bound or position, a constraint that does not fit
    the declared relations — raises `SchemaFormatError`.
    """
    try:
        return _build_schema(description)
    except SchemaFormatError:
        raise
    except (AttributeError, TypeError, ValueError) as error:
        raise SchemaFormatError(f"malformed schema: {error}") from error


#: The keys a schema description, and each of its method entries, may
#: carry (`schema_to_dict` writes no others).  Anything else is a typo
#: that would otherwise drop a bound or every constraint silently.
_SCHEMA_KEYS = frozenset(("relations", "attributes", "methods", "constraints"))
_METHOD_KEYS = frozenset(
    ("name", "relation", "inputs", "result_bound", "result_lower_bound")
)


def _reject_unknown_keys(entry: dict, known: frozenset, where: str) -> None:
    unknown = sorted(key for key in entry if key not in known)
    if unknown:
        raise SchemaFormatError(
            f"unknown key {', '.join(map(repr, unknown))} in {where}"
        )


def _build_schema(description: dict[str, Any]) -> Schema:
    from .schema.schema import Schema

    if not isinstance(description, dict):
        raise SchemaFormatError(
            "a schema must be a JSON object, got "
            f"{type(description).__name__}"
        )
    _reject_unknown_keys(description, _SCHEMA_KEYS, "schema")
    if "relations" not in description:
        raise SchemaFormatError("missing 'relations' section")
    if not isinstance(description["relations"], dict):
        raise SchemaFormatError(
            "'relations' must map names to arities, got "
            f"{type(description['relations']).__name__}"
        )
    schema = Schema()
    attributes = description.get("attributes", {})
    for name, arity in description["relations"].items():
        if not isinstance(arity, int) or arity < 0:
            raise SchemaFormatError(f"bad arity for relation {name}")
        schema.add_relation(name, arity, attributes.get(name))
    for method in description.get("methods", []):
        if isinstance(method, dict):
            _reject_unknown_keys(
                method, _METHOD_KEYS, f"method {method.get('name')!r}"
            )
        try:
            name = method["name"]
            relation = method["relation"]
        except KeyError as missing:
            raise SchemaFormatError(
                f"method entry missing {missing}: {method}"
            ) from None
        inputs = [i - 1 for i in method.get("inputs", [])]
        if any(i < 0 for i in inputs):
            raise SchemaFormatError(
                f"method {name}: input positions are 1-based"
            )
        schema.add_method(
            name,
            relation,
            inputs=inputs,
            result_bound=method.get("result_bound"),
            result_lower_bound=method.get("result_lower_bound"),
        )
    for text in description.get("constraints", []):
        schema.add_constraint(parse_constraint(text))
    return schema


def load_schema(path: Union[str, Path]) -> Schema:
    """Load a schema from a JSON file."""
    with open(path) as handle:
        description = json.load(handle)
    return schema_from_dict(description)


def load_query(text_or_path: str) -> ConjunctiveQuery:
    """Parse a query from text, or from a file if the argument is a
    readable path."""
    from .logic.parser import parse_cq

    try:
        is_file = Path(text_or_path).is_file()
    except OSError:  # e.g. ENAMETOOLONG: query text too long to be a path
        is_file = False
    if is_file:
        text_or_path = Path(text_or_path).read_text().strip()
    return parse_cq(text_or_path)


def load_warm_manifest(path: Union[str, Path]) -> list[dict[str, Any]]:
    """Load a fingerprint warmup manifest: the schemas a worker
    precompiles *before* it reports ready (and, in a fleet, before it
    joins the ring), so first requests on warmed fingerprints never pay
    compile latency.

    The file is either a JSON object ``{"schemas": [...]}`` or a bare
    JSON array; each entry is an inline schema description (the
    `schema_from_dict` format) or a string path to a schema JSON file,
    resolved relative to the manifest.  Returns the inline descriptions
    (paths loaded and serialized), validated by a full compile-free
    parse.  Every failure — missing file, bad JSON, a malformed entry —
    is a `WarmupError` carrying a one-line reason.
    """
    manifest_path = Path(path)
    origin = f"warm manifest {manifest_path}"
    try:
        with open(manifest_path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        raise WarmupError(f"{origin}: {error}") from error
    if isinstance(payload, dict):
        entries = payload.get("schemas")
        if not isinstance(entries, list):
            raise WarmupError(f"{origin}: expected a 'schemas' list")
    elif isinstance(payload, list):
        entries = payload
    else:
        raise WarmupError(
            f"{origin}: expected an object or array, "
            f"got {type(payload).__name__}"
        )
    descriptions: list[dict[str, Any]] = []
    for index, entry in enumerate(entries):
        if isinstance(entry, str):
            candidate = manifest_path.parent / entry
            try:
                entry = schema_to_dict(load_schema(candidate))
            except (OSError, ValueError) as error:
                raise WarmupError(
                    f"{origin}: entry {index} ({candidate}): {error}"
                ) from error
        if not isinstance(entry, dict):
            raise WarmupError(
                f"{origin}: entry {index} must be a schema object or "
                f"path, got {type(entry).__name__}"
            )
        try:
            schema_from_dict(entry)
        except SchemaFormatError as error:
            raise WarmupError(f"{origin}: entry {index}: {error}") from error
        descriptions.append(entry)
    return descriptions


def schema_to_dict(schema: Schema) -> dict[str, Any]:
    """Serialize a schema back to the JSON description format."""
    description: dict[str, Any] = {
        "relations": {r.name: r.arity for r in schema.relations},
        "methods": [],
        "constraints": [repr(c) for c in schema.constraints],
    }
    attributes = {
        r.name: list(r.attributes)
        for r in schema.relations
        if r.attributes
    }
    if attributes:
        description["attributes"] = attributes
    for method in schema.methods:
        entry: dict[str, Any] = {
            "name": method.name,
            "relation": method.relation.name,
            "inputs": [i + 1 for i in method.sorted_input_positions],
        }
        if method.result_bound is not None:
            entry["result_bound"] = method.result_bound
        if method.result_lower_bound is not None:
            entry["result_lower_bound"] = method.result_lower_bound
        description["methods"].append(entry)
    return description


# ----------------------------------------------------------------------
# Service requests and responses
# ----------------------------------------------------------------------
def json_safe(value: Any) -> Any:
    """Project a value onto the JSON-serializable subset.

    Primitives pass through; containers are converted recursively;
    everything else (certificates, chase results, ...) becomes its repr.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (dict, MappingProxyType)):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [json_safe(v) for v in value]
    return repr(value)


#: Operations a request frame may carry.  ``decide``/``plan`` need a
#: query; ``stats``, ``ping``, and ``metrics`` are serving-side
#: introspection frames (``metrics`` returns a `repro.obs` registry
#: snapshot, fleet-aggregated when the dispatcher answers it).
REQUEST_OPS = ("decide", "plan", "stats", "ping", "metrics")


@dataclass
class DecideRequest:
    """One request frame: an operation plus optional per-request knobs.

    ``schema`` is an optional inline JSON schema description; when
    absent the processing session's schema applies (the batch CLI and
    the server compile and cache inline schemas by their serialized
    form, then route by content fingerprint).  ``op`` defaults to
    ``"decide"``; ``"plan"`` yields a `PlanResponse`, ``"stats"`` the
    processor's aggregated diagnostics, ``"ping"`` a liveness pong.
    """

    query: str = ""
    schema: Optional[dict[str, Any]] = None
    id: Optional[Union[str, int]] = None
    finite: bool = False
    op: str = "decide"
    #: Per-request wall-clock budget in milliseconds; the processing
    #: side cancels the decision cooperatively once it is exhausted and
    #: answers with a retryable ``DeadlineExceeded`` error frame.  None
    #: defers to the server's configured default (if any).
    deadline_ms: Optional[float] = None

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {}
        if self.query:
            payload["query"] = self.query
        if self.schema is not None:
            payload["schema"] = self.schema
        if self.id is not None:
            payload["id"] = self.id
        if self.finite:
            payload["finite"] = True
        if self.op != "decide":
            payload["op"] = self.op
        if self.deadline_ms is not None:
            payload["deadline_ms"] = self.deadline_ms
        return payload

    @staticmethod
    def from_dict(payload: Union[str, dict[str, Any]]) -> "DecideRequest":
        if isinstance(payload, str):
            return DecideRequest(query=payload)
        if not isinstance(payload, dict):
            raise SchemaFormatError(
                f"request frame must be a string or object, "
                f"got {type(payload).__name__}"
            )
        op = payload.get("op", "decide")
        if op not in REQUEST_OPS:
            raise SchemaFormatError(
                f"unknown op {op!r} (expected one of {REQUEST_OPS})"
            )
        query = payload.get("query", "")
        if not isinstance(query, str):
            raise SchemaFormatError(
                f"'query' must be a string, got {type(query).__name__}"
            )
        if op in ("decide", "plan") and not query:
            raise SchemaFormatError(f"request missing 'query': {payload}")
        schema = payload.get("schema")
        if schema is not None and not isinstance(schema, dict):
            raise SchemaFormatError(
                f"'schema' must be an object, got {type(schema).__name__}"
            )
        request_id = payload.get("id")
        if request_id is not None and not isinstance(
            request_id, (str, int)
        ):
            raise SchemaFormatError(
                f"'id' must be a string or integer, "
                f"got {type(request_id).__name__}"
            )
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            if (
                isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))
                or deadline_ms <= 0
            ):
                raise SchemaFormatError(
                    f"'deadline_ms' must be a positive number, "
                    f"got {deadline_ms!r}"
                )
            deadline_ms = float(deadline_ms)
        return DecideRequest(
            query=query,
            schema=schema,
            id=request_id,
            finite=bool(payload.get("finite", False)),
            op=op,
            deadline_ms=deadline_ms,
        )


@dataclass
class DecideResponse:
    """The wire form of one answerability decision.

    ``decision`` is ``"yes"`` / ``"no"`` / ``"unknown"`` (the CLI maps
    these to exit codes 0/1/2); ``fingerprint`` identifies the compiled
    schema that produced the answer; ``cached`` marks session-cache hits.
    ``error`` carries a structured, machine-readable failure (e.g. a
    ``RewritingBudgetExceeded`` with its budget and the size reached)
    when the decision is UNKNOWN because a resource limit was hit.
    """

    query: str
    decision: str
    reason: str = ""
    route: str = ""
    constraint_class: str = ""
    fingerprint: str = ""
    cached: bool = False
    elapsed_ms: Optional[float] = None
    id: Optional[Union[str, int]] = None
    detail: dict[str, Any] = field(default_factory=dict)
    error: Optional[dict[str, Any]] = None

    @property
    def is_yes(self) -> bool:
        return self.decision == "yes"

    @property
    def is_no(self) -> bool:
        return self.decision == "no"

    @property
    def is_unknown(self) -> bool:
        return self.decision == "unknown"

    @property
    def exit_code(self) -> int:
        return {"yes": 0, "no": 1, "unknown": 2}[self.decision]

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "query": self.query,
            "decision": self.decision,
            "reason": self.reason,
            "route": self.route,
            "constraint_class": self.constraint_class,
            "fingerprint": self.fingerprint,
            "cached": self.cached,
        }
        if self.elapsed_ms is not None:
            payload["elapsed_ms"] = self.elapsed_ms
        if self.id is not None:
            payload["id"] = self.id
        if self.detail:
            payload["detail"] = json_safe(self.detail)
        if self.error is not None:
            payload["error"] = json_safe(self.error)
        return payload

    @staticmethod
    def from_dict(payload: dict[str, Any]) -> "DecideResponse":
        return DecideResponse(
            query=payload["query"],
            decision=payload["decision"],
            reason=payload.get("reason", ""),
            route=payload.get("route", ""),
            constraint_class=payload.get("constraint_class", ""),
            fingerprint=payload.get("fingerprint", ""),
            cached=bool(payload.get("cached", False)),
            elapsed_ms=payload.get("elapsed_ms"),
            id=payload.get("id"),
            detail=dict(payload.get("detail", {})),
            error=payload.get("error"),
        )


@dataclass
class PlanResponse:
    """The wire form of a plan extraction.

    ``plan`` is the plan-language text (None when the query is not
    provably monotone answerable); ``answerable`` mirrors whether a plan
    was produced.
    """

    query: str
    answerable: bool
    plan: Optional[str] = None
    reason: str = ""
    fingerprint: str = ""
    cached: bool = False
    id: Optional[Union[str, int]] = None

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "query": self.query,
            "answerable": self.answerable,
            "plan": self.plan,
            "fingerprint": self.fingerprint,
            "cached": self.cached,
        }
        if self.reason:
            payload["reason"] = self.reason
        if self.id is not None:
            payload["id"] = self.id
        return payload

    @staticmethod
    def from_dict(payload: dict[str, Any]) -> "PlanResponse":
        return PlanResponse(
            query=payload["query"],
            answerable=bool(payload["answerable"]),
            plan=payload.get("plan"),
            reason=payload.get("reason", ""),
            fingerprint=payload.get("fingerprint", ""),
            cached=bool(payload.get("cached", False)),
            id=payload.get("id"),
        )


@dataclass
class ErrorFrame:
    """The wire form of a failed request: structured, never a traceback.

    ``type`` is the exception class name (``SchemaFormatError``,
    ``ParseError``, ...), ``message`` its text; ``detail`` carries
    machine-readable context (the offending line, a budget, ...).  The
    serialized form nests them under a single ``error`` key so stream
    consumers can discriminate response frames from error frames by key
    (a `DecideResponse` uses ``error`` for a *decision-level* resource
    failure and always carries ``decision``; an `ErrorFrame` never
    does).

    ``retryable`` is the machine-readable retry contract: True means
    the same request may succeed if resent (transient overload, an
    exhausted deadline, a draining server); False means the request
    itself is at fault and retrying verbatim cannot help (malformed
    JSON, a bad schema, an unknown op).  ``retry_after_ms``, when
    present, hints how long to back off first.  Both default off, so
    frames produced by older peers parse unchanged (absent ⇒ not
    retryable, no hint).  The full error-type taxonomy is documented in
    DESIGN.md's wire-protocol section.
    """

    type: str
    message: str
    id: Optional[Union[str, int]] = None
    detail: dict[str, Any] = field(default_factory=dict)
    retryable: bool = False
    retry_after_ms: Optional[float] = None

    @staticmethod
    def from_exception(
        error: BaseException,
        *,
        id: Optional[Union[str, int]] = None,
        **detail: Any,
    ) -> "ErrorFrame":
        """Build a frame, lifting the exception's retry contract.

        Exceptions may declare ``retryable`` (bool) and
        ``retry_after_ms`` (float) attributes — `repro.runtime`'s
        `DeadlineExceeded` and `Overloaded` do — which map straight
        onto the wire fields; anything else is non-retryable.
        """
        return ErrorFrame(
            type=type(error).__name__,
            message=str(error),
            id=id,
            detail=detail,
            retryable=bool(getattr(error, "retryable", False)),
            retry_after_ms=getattr(error, "retry_after_ms", None),
        )

    def to_dict(self) -> dict[str, Any]:
        error: dict[str, Any] = {
            "type": self.type,
            "message": self.message,
            "retryable": self.retryable,
        }
        if self.retry_after_ms is not None:
            error["retry_after_ms"] = self.retry_after_ms
        if self.detail:
            error["detail"] = json_safe(self.detail)
        payload: dict[str, Any] = {"error": error}
        if self.id is not None:
            payload["id"] = self.id
        return payload

    @staticmethod
    def from_dict(payload: dict[str, Any]) -> "ErrorFrame":
        error = payload["error"]
        return ErrorFrame(
            type=error["type"],
            message=error.get("message", ""),
            id=payload.get("id"),
            detail=dict(error.get("detail", {})),
            retryable=bool(error.get("retryable", False)),
            retry_after_ms=error.get("retry_after_ms"),
        )


@dataclass
class ReadyFrame:
    """The machine-parsable readiness handshake of a serving process.

    ``python -m repro serve`` (and ``fleet``) emit exactly one of these
    as a JSON line on **stdout** once the socket is bound and any
    warmup manifest has been compiled — the human banner stays on
    stderr.  Supervisors and the fleet dispatcher discover a worker's
    ephemeral port and pid by parsing this line instead of scraping
    log text; ``warmed`` reports how many manifest schemas were
    precompiled before the frame was emitted (the worker serves no
    traffic colder than this).

    The serialized form nests under a single ``ready`` key, so stream
    consumers can discriminate it from response frames the same way
    ``error`` frames are discriminated.
    """

    host: str
    port: int
    pid: int
    role: str = "serve"
    #: Worker processes behind the address (fleet only).
    workers: Optional[int] = None
    #: Schemas precompiled from the warmup manifest before readiness.
    warmed: int = 0
    #: Typed warm-manifest failure (`WarmupError` text): the
    #: process started *cold* but alive — supervisors surface this in
    #: stats instead of the worker crashing at startup.
    warm_error: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        ready: dict[str, Any] = {
            "host": self.host,
            "port": self.port,
            "pid": self.pid,
            "role": self.role,
        }
        if self.workers is not None:
            ready["workers"] = self.workers
        if self.warmed:
            ready["warmed"] = self.warmed
        if self.warm_error:
            ready["warm_error"] = self.warm_error
        return {"ready": ready}

    @staticmethod
    def from_dict(payload: dict[str, Any]) -> "ReadyFrame":
        ready = payload["ready"]
        return ReadyFrame(
            host=ready["host"],
            port=int(ready["port"]),
            pid=int(ready["pid"]),
            role=ready.get("role", "serve"),
            workers=ready.get("workers"),
            warmed=int(ready.get("warmed", 0)),
            warm_error=ready.get("warm_error"),
        )

    @staticmethod
    def from_line(line: Union[str, bytes]) -> Optional["ReadyFrame"]:
        """Parse one stdout line; None when it is not a ready frame
        (supervisors skim worker output with this — anything that is
        not the handshake is ignored, never fatal)."""
        if isinstance(line, bytes):
            line = line.decode("utf-8", "replace")
        line = line.strip()
        if not line.startswith("{"):
            return None
        try:
            payload = json.loads(line)
        except ValueError:
            return None
        if not isinstance(payload, dict) or "ready" not in payload:
            return None
        try:
            return ReadyFrame.from_dict(payload)
        except (KeyError, TypeError, ValueError):
            return None
