"""Serving front end: per-fingerprint session pooling over asyncio.

The layer that turns the service seam into a server:

* `SessionPool` — routes requests to `Session`s by schema content
  fingerprint (two-level: serialized spelling, then fingerprint), one
  session per fingerprint over its `CompiledSchema`, LRU
  eviction of cold fingerprints, aggregated `stats()` with per-shard
  heat, and `warm()` for manifest-driven precompilation;
* `DecideServer` / `run_server` — the asyncio JSON-lines TCP front end:
  cached decisions answered on the event loop (`SessionPool.lookup`),
  the rest on a fixed set of decision threads, backpressure via a
  bounded in-flight gate (optionally shedding `Overloaded` frames),
  per-request deadlines with cooperative cancellation, per-client
  token-bucket quotas, graceful drain, and structured `ErrorFrame`s
  for every failure;
* `Supervisor` / `WorkerSpec` / `WorkerHandle` — the crash-tolerant
  worker supervisor: serve loop in a child process with a readiness
  handshake on stdout, health-check watchdog, jittered-exponential-
  backoff restarts, crash-loop breaker;
* `HashRing` / `FleetDispatcher` / `Fleet` — the prefork fleet: N
  supervised worker processes behind one dispatcher that routes frames
  by consistent hashing of the schema fingerprint and relays the
  worker's reply bytes undecoded, failing over worker deaths as typed
  retryable `WorkerLost` errors;
* `lines.FrameLoop` / `lines.FrameMemo` — the one protocol-based
  JSON-lines connection loop (framing, ``FrameTooLong``, drain, replies
  written on the spot when no work is pending) and the per-process
  memo of parsed request lines that `DecideServer` and
  `FleetDispatcher` both serve through;
* `make_wsgi_app` — the same pool behind any WSGI httpd (stdlib
  ``wsgiref`` pairs with it for a dependency-free HTTP server), with
  Prometheus exposition on ``GET /metrics``.

Observability rides `repro.obs`: every layer here exposes
``register_metrics(registry)``, ``op: metrics`` returns the registry
snapshot (fleet-aggregated at the dispatcher), and ``--log-format
json`` turns on one-JSON-line-per-request logs.

Exposed on the CLI as ``python -m repro serve`` / ``fleet``.
"""

import importlib

#: The public names, by the submodule that defines them; each is
#: imported on first access (PEP 562), so the fleet dispatcher's
#: ``repro.server.fleet`` never drags in the session pool and, through
#: it, the decision core.
_EXPORTED_BY = {
    ".pool": (
        "DEFAULT_MAX_FINGERPRINTS",
        "SessionLimits", "SessionPool", "introspection_frame",
    ),
    ".server": (
        "DEFAULT_MAX_PENDING", "DEFAULT_PORT",
        "DecideServer", "run_server",
    ),
    ".supervisor": (
        "BackoffPolicy", "BreakerPolicy", "CrashLoopError",
        "Supervisor", "WorkerHandle", "WorkerSpec",
        "serve_spawn", "tcp_ping",
    ),
    ".hashring": ("DEFAULT_REPLICAS", "HashRing"),
    ".fleet": ("Fleet", "FleetDispatcher"),
    ".wsgi": ("make_wsgi_app",),
}
_SOURCE = {
    name: module for module, names in _EXPORTED_BY.items() for name in names
}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
