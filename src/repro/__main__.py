"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``decide SCHEMA.json QUERY [--json]``
    Decide monotone answerability of the query under the schema; exit
    code 0 for YES, 1 for NO, 2 for UNKNOWN.  ``decide``, ``plan`` and
    ``classify`` print ``error: <message>`` and exit 2 on bad input: an
    unreadable or malformed schema, an unparseable query, or a query
    that does not fit the schema.
``plan SCHEMA.json QUERY [--json]``
    Extract and print a static plan for an answerable query.
``batch SCHEMA.json [--input FILE]``
    JSON-lines service mode: one request per input line (a bare query
    string or a `DecideRequest` object), one `DecideResponse` JSON per
    output line.  Requests may carry an inline ``schema``; routing goes
    through a `repro.server.SessionPool`, so sessions are compiled once
    per distinct schema fingerprint and reused across lines.
``serve [SCHEMA.json] [--host H] [--port P] ...``
    The asyncio JSON-lines TCP server: the ``batch`` protocol on a
    socket, decisions on a fixed set of executor threads, one session
    per schema fingerprint with LRU eviction (``--max-fingerprints``)
    and bounded in-flight backpressure (``--max-pending``).  ``op``
    frames ``stats`` and ``ping`` expose introspection; the default
    schema is optional when every request carries its own.  Resilience
    knobs: ``--request-deadline`` (per-request budget),
    ``--drain-timeout`` (graceful SIGTERM drain), ``--client-rate`` /
    ``--client-burst`` / ``--max-inflight-per-client`` (per-client
    quotas), ``--shed-after`` (Overloaded shedding at gate saturation).
``fleet [SCHEMA.json] [--workers N] [--port P] ...``
    ``serve`` workers in supervised child processes (``op: ping``
    health watchdog, crash restarts with jittered exponential backoff,
    a crash-loop breaker) behind a dispatcher that routes by schema
    fingerprint.
``simplify SCHEMA.json {existence-check,fd,choice}``
    Print the simplified schema (JSON).
``classify SCHEMA.json [--json]``
    Print the detected constraint fragment and its Table-1 row.

All commands are built on `repro.service.Session`, so a process serving
many queries pays the per-schema analysis once.  ``--max-rounds`` /
``--max-facts`` default to the chase limits in `repro.defaults`
(`DEFAULT_CHASE_ROUNDS`, `DEFAULT_CHASE_FACTS`) — the single source of
truth.  Each command imports only the layers it drives: ``fleet``'s
dispatcher relays frames without loading the decision core, while
``serve`` loads all of it before it reports ready.

The schema format is documented in `repro.io`; queries use the text
syntax ``"Q(n) :- Prof(i, n, 10000)"`` (or a bare Boolean body), either
inline or as a path to a file containing it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .defaults import (
    DEFAULT_CHASE_FACTS,
    DEFAULT_CHASE_ROUNDS,
    DEFAULT_MAX_DISJUNCTS,
    DEFAULT_MAX_FINGERPRINTS,
    DEFAULT_MAX_PENDING,
    DEFAULT_PORT,
)
from .io import (
    DecideRequest,
    ErrorFrame,
    ReadyFrame,
    SchemaFormatError,
    json_safe,
    load_query,
    load_schema,
    schema_to_dict,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from .server.pool import SessionLimits, SessionPool
    from .service import Session


def _positive_int(text: str) -> int:
    """argparse type for counts and sizes that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _at_least_one(text: str) -> float:
    """argparse type for a real quantity that must be at least 1."""
    value = float(text)
    if not value >= 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for a rate that must be greater than 0."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be greater than 0, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Answerability of conjunctive queries over result-bounded "
            "data interfaces (Amarilli & Benedikt, PODS 2018)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_limits(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--max-rounds",
            type=_positive_int,
            default=DEFAULT_CHASE_ROUNDS,
            help="chase round cap for the semidecidable routes "
            f"(default: {DEFAULT_CHASE_ROUNDS})",
        )
        subparser.add_argument(
            "--max-facts",
            type=_positive_int,
            default=DEFAULT_CHASE_FACTS,
            help="chase fact cap protecting against breadth explosion "
            f"(default: {DEFAULT_CHASE_FACTS})",
        )
        subparser.add_argument(
            "--max-disjuncts",
            type=_positive_int,
            default=DEFAULT_MAX_DISJUNCTS,
            help="budget for the ID route's backward UCQ rewriting; "
            "exceeding it yields UNKNOWN with a structured error "
            f"(default: {DEFAULT_MAX_DISJUNCTS})",
        )

    def add_cache_dir(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="directory for the durable artifact cache (a shared "
            "SQLite store): decisions, plans, and warmed schemas "
            "persist across restarts and are shared between concurrent "
            "workers; corruption or version drift degrades to "
            "recompute, never to an error (default: no persistence)",
        )

    decide = commands.add_parser(
        "decide", help="decide monotone answerability"
    )
    decide.add_argument("schema", help="path to the JSON schema")
    decide.add_argument("query", help="query text or path to a query file")
    decide.add_argument(
        "--finite",
        action="store_true",
        help="decide the finite variant (Prop 2.2 / Cor 7.3)",
    )
    decide.add_argument(
        "--json",
        action="store_true",
        help="emit the DecideResponse as JSON instead of text",
    )
    add_limits(decide)
    add_cache_dir(decide)

    plan = commands.add_parser(
        "plan", help="extract a static plan for an answerable query"
    )
    plan.add_argument("schema")
    plan.add_argument("query")
    plan.add_argument(
        "--json",
        action="store_true",
        help="emit the PlanResponse as JSON instead of text",
    )
    add_limits(plan)
    add_cache_dir(plan)

    batch = commands.add_parser(
        "batch",
        help="decide many queries: JSON-lines in, JSON-lines out",
    )
    batch.add_argument("schema", help="path to the default JSON schema")
    batch.add_argument(
        "--input",
        default="-",
        help="path to the JSON-lines request file (default: stdin)",
    )
    batch.add_argument(
        "--stats",
        action="store_true",
        help="after the stream, print the session pool's aggregated "
        "cache, rewrite-engine, and matching statistics as one JSON "
        "line on stderr",
    )
    add_limits(batch)
    add_cache_dir(batch)

    serve = commands.add_parser(
        "serve",
        help="serve the batch protocol on a TCP socket (asyncio, "
        "per-fingerprint session pooling)",
    )
    serve.add_argument(
        "schema",
        nargs="?",
        default=None,
        help="path to the default JSON schema (optional: requests may "
        "each carry an inline schema)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"TCP port, 0 for ephemeral (default: {DEFAULT_PORT})",
    )
    serve.add_argument(
        "--max-fingerprints",
        type=_positive_int,
        default=DEFAULT_MAX_FINGERPRINTS,
        help="distinct schema fingerprints held live before LRU "
        f"eviction (default: {DEFAULT_MAX_FINGERPRINTS})",
    )
    serve.add_argument(
        "--max-pending",
        type=_positive_int,
        default=DEFAULT_MAX_PENDING,
        help="bound on queued-or-running decisions; past it the server "
        "stops reading new frames until capacity frees "
        f"(default: {DEFAULT_MAX_PENDING})",
    )
    serve.add_argument(
        "--warm",
        default=None,
        metavar="MANIFEST",
        help="fingerprint warmup manifest (JSON: a 'schemas' list of "
        "inline schema objects or paths); every entry is precompiled "
        "into the session pool before the readiness line is emitted, "
        "so warmed fingerprints never pay first-request compile "
        "latency",
    )

    def add_serving_options(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--request-deadline",
            type=float,
            default=None,
            metavar="MS",
            help="default per-request deadline in milliseconds; a "
            "request's own deadline_ms is capped at this value "
            "(default: unbounded)",
        )
        subparser.add_argument(
            "--drain-timeout",
            type=float,
            default=10.0,
            metavar="SECONDS",
            help="on SIGTERM/shutdown, seconds to let in-flight work "
            "finish (budgets are cancelled halfway through) before "
            "force-closing connections (default: 10)",
        )
        subparser.add_argument(
            "--client-rate",
            type=_positive_float,
            default=None,
            metavar="PER_SECOND",
            help="per-client token-bucket refill rate in requests per "
            "second; past it requests are shed with retryable "
            "Overloaded frames (default: no rate limit)",
        )
        subparser.add_argument(
            "--client-burst",
            type=_at_least_one,
            default=8.0,
            help="per-client token-bucket capacity (default: 8)",
        )
        subparser.add_argument(
            "--max-inflight-per-client",
            type=_positive_int,
            default=None,
            metavar="N",
            help="concurrent in-flight requests allowed per client "
            "address before shedding (default: unbounded)",
        )
        subparser.add_argument(
            "--shed-after",
            type=float,
            default=None,
            metavar="MS",
            help="shed (Overloaded) instead of queueing when the global "
            "in-flight gate stays saturated this long "
            "(default: queue indefinitely)",
        )
        subparser.add_argument(
            "--log-format",
            choices=("text", "json"),
            default="text",
            help="request logging: 'json' emits one structured JSON "
            "line per request to stderr (peer, op, fingerprint, "
            "outcome, stage timings, retry hints); 'text' (default) "
            "keeps request logging off",
        )

    add_serving_options(serve)
    add_limits(serve)
    add_cache_dir(serve)

    fleet = commands.add_parser(
        "fleet",
        help="prefork worker fleet: N supervised serve processes on "
        "ephemeral ports behind a consistent-hashing dispatcher that "
        "routes by schema fingerprint, fails worker loss over as "
        "typed retryable errors, and rebalances the ring on "
        "death/restart",
    )
    fleet.add_argument(
        "schema",
        nargs="?",
        default=None,
        help="path to the default JSON schema (optional: requests may "
        "each carry an inline schema)",
    )
    fleet.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="worker processes behind the dispatcher (default: 2)",
    )
    fleet.add_argument(
        "--host", default="127.0.0.1", help="dispatcher bind address"
    )
    fleet.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help="dispatcher TCP port, 0 for ephemeral (default: "
        f"{DEFAULT_PORT}); workers always bind ephemeral ports, "
        "discovered from their readiness lines",
    )
    fleet.add_argument(
        "--max-fingerprints",
        type=_positive_int,
        default=DEFAULT_MAX_FINGERPRINTS,
    )
    fleet.add_argument(
        "--max-pending", type=_positive_int, default=DEFAULT_MAX_PENDING
    )
    fleet.add_argument(
        "--warm",
        default=None,
        metavar="MANIFEST",
        help="fingerprint warmup manifest (JSON) each worker loads "
        "before reporting ready and joining the ring",
    )
    add_cache_dir(fleet)
    fleet.add_argument(
        "--max-crashes",
        type=int,
        default=5,
        help="crash-loop breaker: crashes tolerated inside the window "
        "before giving up (default: 5)",
    )
    fleet.add_argument(
        "--crash-window",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="crash-loop breaker window (default: 30)",
    )
    fleet.add_argument(
        "--backoff-base",
        type=float,
        default=0.1,
        metavar="SECONDS",
        help="restart backoff base delay (default: 0.1)",
    )
    fleet.add_argument(
        "--backoff-cap",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="restart backoff delay cap (default: 5)",
    )
    fleet.add_argument(
        "--health-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between op:ping health probes (default: 1)",
    )
    add_serving_options(fleet)
    add_limits(fleet)

    simplify = commands.add_parser(
        "simplify", help="print a simplified schema"
    )
    simplify.add_argument("schema")
    simplify.add_argument(
        "kind", choices=["existence-check", "fd", "choice"]
    )

    classify = commands.add_parser(
        "classify", help="detect the constraint fragment"
    )
    classify.add_argument("schema")
    classify.add_argument(
        "--json",
        action="store_true",
        help="emit the classification as JSON instead of text",
    )
    return parser


def _open_store(args: argparse.Namespace):
    """The durable `ArtifactStore` behind ``--cache-dir`` (None when
    the flag is unset).  An unusable cache directory degrades to cold
    operation with a stderr warning — persistence is an accelerant,
    never a liveness dependency."""
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None:
        return None
    from .cache import CacheError, open_directory

    try:
        return open_directory(cache_dir)
    except CacheError as error:
        print(
            f"warning: cache disabled: {error}",
            file=sys.stderr,
            flush=True,
        )
        return None


def _session(args: argparse.Namespace) -> Session:
    from .service import Session

    return Session(
        load_schema(args.schema),
        max_rounds=args.max_rounds,
        max_facts=args.max_facts,
        max_disjuncts=args.max_disjuncts,
        store=_open_store(args),
    )


def _close_store(owner) -> None:
    store = getattr(owner, "store", None)
    if store is not None:
        store.close()


def _cmd_decide(args: argparse.Namespace) -> int:
    session = _session(args)
    try:
        response = session.decide(
            load_query(args.query), finite=args.finite
        )
    finally:
        _close_store(session)
    if args.json:
        print(json.dumps(response.to_dict()))
    else:
        print(f"query     : {response.query}")
        print(f"fragment  : {response.constraint_class}")
        print(f"route     : {response.route}")
        print(f"decision  : {response.decision.upper()}")
        print(f"reason    : {response.reason}")
        if response.error is not None:
            print(f"error     : {json.dumps(response.error)}")
    return response.exit_code


def _cmd_plan(args: argparse.Namespace) -> int:
    session = _session(args)
    try:
        response = session.plan(load_query(args.query))
    finally:
        _close_store(session)
    if args.json:
        print(json.dumps(response.to_dict()))
        return 0 if response.answerable else 1
    if not response.answerable:
        print("no plan: the query is not (provably) monotone answerable")
        return 1
    print(response.plan)
    return 0


def _limits(args: argparse.Namespace) -> SessionLimits:
    from .server.pool import SessionLimits

    return SessionLimits(
        max_rounds=args.max_rounds,
        max_facts=args.max_facts,
        max_disjuncts=args.max_disjuncts,
        deadline_ms=getattr(args, "request_deadline", None),
    )


def _pool(args: argparse.Namespace) -> SessionPool:
    from .server.pool import SessionPool

    schema = getattr(args, "schema", None)
    return SessionPool(
        load_schema(schema) if schema is not None else None,
        limits=_limits(args),
        max_fingerprints=getattr(
            args, "max_fingerprints", DEFAULT_MAX_FINGERPRINTS
        ),
        store=_open_store(args),
    )


def _cmd_batch(args: argparse.Namespace) -> int:
    from .server.pool import introspection_frame

    pool = _pool(args)
    if args.input == "-":
        lines = sys.stdin
    else:
        lines = open(args.input)
    failures = 0
    try:
        for line in lines:
            line = line.strip()
            if not line:
                continue
            request = None
            try:
                request = DecideRequest.from_dict(json.loads(line))
                if request.op in ("ping", "stats", "metrics"):
                    frame = introspection_frame(request, pool)
                else:
                    frame = pool.process(request).to_dict()
                print(json.dumps(frame, sort_keys=True), flush=True)
            except Exception as error:  # keep the stream going
                failures += 1
                report = ErrorFrame.from_exception(
                    error,
                    id=request.id if request is not None else None,
                    line=line,
                )
                print(json.dumps(report.to_dict()), flush=True)
    finally:
        if lines is not sys.stdin:
            lines.close()
    if args.stats:
        print(
            json.dumps(json_safe(pool.stats()), sort_keys=True),
            file=sys.stderr,
            flush=True,
        )
    _close_store(pool)
    return 1 if failures else 0


def _warm_pool(
    pool: SessionPool, manifest: str | None
) -> tuple[int, str | None]:
    """Precompile the warm set into the pool: the ``--warm`` manifest
    (when given) plus whatever warm set a bound durable store
    remembers from previous runs.  Returns ``(warmed count,
    typed error text or None)`` — a bad warm source degrades to cold
    serving with the error surfaced on the readiness frame, it does
    not kill the worker."""
    from .io import WarmupError, load_warm_manifest

    warmed = 0
    warm_error: str | None = None
    if manifest is not None:
        try:
            descriptions = load_warm_manifest(manifest)
        except WarmupError as error:
            warm_error = str(error)
        else:
            warmed += len(pool.warm_many(descriptions))
    if pool.store is not None:
        warmed += pool.warm_from_store()
    return warmed, warm_error


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os
    import signal

    # The server and its pool load the whole decision core here, before
    # the readiness line, so no request pays for an import.
    from .server.server import DecideServer

    pool = _pool(args)
    warmed, warm_error = _warm_pool(pool, getattr(args, "warm", None))
    if warm_error is not None:
        print(
            f"warning: warmup failed, serving cold: {warm_error}",
            file=sys.stderr,
            flush=True,
        )

    from .obs import MetricsRegistry, request_logger_from_format

    async def serve() -> None:
        server = DecideServer(
            pool,
            host=args.host,
            port=args.port,
            max_pending=args.max_pending,
            client_rate=args.client_rate,
            client_burst=args.client_burst,
            max_inflight_per_client=args.max_inflight_per_client,
            shed_after_ms=args.shed_after,
            metrics=MetricsRegistry(),
            request_log=request_logger_from_format(
                getattr(args, "log_format", None)
            ),
        )
        await server.start()
        host, port = server.address
        # SIGTERM/SIGINT trigger a graceful drain: stop accepting,
        # finish (or deadline-cancel) in-flight work, flush responses,
        # exit 0 — bounded by --drain-timeout.  Handlers are installed
        # *before* the banner: the banner is the readiness signal, and
        # a SIGTERM sent the instant it appears must already drain.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        hooked = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
                hooked.append(signum)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix loop: fall back to KeyboardInterrupt
        print(
            f"serving on {host}:{port} "
            f"(max_pending={args.max_pending}; Ctrl-C to stop)",
            file=sys.stderr,
            flush=True,
        )
        # The machine channel: one ReadyFrame JSON line on *stdout*
        # (the banner above is for humans).  Supervisors and the fleet
        # dispatcher parse this to discover ephemeral ports and pids.
        print(
            json.dumps(
                ReadyFrame(
                    host=host,
                    port=port,
                    pid=os.getpid(),
                    warmed=warmed,
                    warm_error=warm_error,
                ).to_dict()
            ),
            flush=True,
        )
        forever = asyncio.ensure_future(server.serve_forever())
        stopped = asyncio.ensure_future(stop.wait())
        try:
            await asyncio.wait(
                {forever, stopped}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for signum in hooked:
                loop.remove_signal_handler(signum)
            stopped.cancel()
            forever.cancel()
            print(
                f"draining (timeout {args.drain_timeout:g}s)",
                file=sys.stderr,
                flush=True,
            )
            await server.close(drain_timeout=args.drain_timeout)
            _close_store(pool)
            print("shutdown complete", file=sys.stderr, flush=True)

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr, flush=True)
    return 0


def _worker_serve_args(args: argparse.Namespace) -> tuple:
    """The ``serve`` CLI flags a child worker inherits from a parsed
    ``fleet`` namespace (everything except schema, bind address, and
    warm manifest — those live on the `WorkerSpec` proper)."""
    argv: list = []
    argv += ["--max-fingerprints", str(args.max_fingerprints)]
    argv += ["--max-pending", str(args.max_pending)]
    argv += ["--max-rounds", str(args.max_rounds)]
    argv += ["--max-facts", str(args.max_facts)]
    argv += ["--max-disjuncts", str(args.max_disjuncts)]
    argv += ["--drain-timeout", str(args.drain_timeout)]
    if args.request_deadline is not None:
        argv += ["--request-deadline", str(args.request_deadline)]
    if args.client_rate is not None:
        argv += ["--client-rate", str(args.client_rate)]
    argv += ["--client-burst", str(args.client_burst)]
    if args.max_inflight_per_client is not None:
        argv += [
            "--max-inflight-per-client",
            str(args.max_inflight_per_client),
        ]
    if args.shed_after is not None:
        argv += ["--shed-after", str(args.shed_after)]
    if getattr(args, "log_format", "text") != "text":
        argv += ["--log-format", args.log_format]
    if getattr(args, "cache_dir", None) is not None:
        argv += ["--cache-dir", str(args.cache_dir)]
    return tuple(argv)


def _worker_spec(args: argparse.Namespace):
    """Build the `WorkerSpec` of one ``fleet`` worker: spawn argv,
    health policy, and restart policy.  Workers always bind loopback
    ephemeral ports and announce them via the readiness handshake;
    ``--host``/``--port`` are the *dispatcher*'s."""
    from .server.supervisor import BackoffPolicy, BreakerPolicy, WorkerSpec

    return WorkerSpec(
        schema=args.schema,
        host="127.0.0.1",
        port=0,
        serve_args=_worker_serve_args(args),
        warm=getattr(args, "warm", None),
        health_interval_s=args.health_interval,
        backoff=BackoffPolicy(
            base_s=args.backoff_base, cap_s=args.backoff_cap
        ),
        breaker=BreakerPolicy(
            max_crashes=args.max_crashes, window_s=args.crash_window
        ),
    )


def _cmd_fleet(args: argparse.Namespace) -> int:
    import asyncio
    import os
    import signal

    from .server.fleet import Fleet, FleetDispatcher

    specs = [_worker_spec(args) for __ in range(args.workers)]

    from .obs import MetricsRegistry, request_logger_from_format

    async def serve() -> None:
        dispatcher = FleetDispatcher(host=args.host, port=args.port)
        dispatcher.register_metrics(MetricsRegistry())
        dispatcher.set_request_log(
            request_logger_from_format(getattr(args, "log_format", None))
        )
        await dispatcher.start()
        fleet = Fleet(specs, dispatcher)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        hooked = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
                hooked.append(signum)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            admitted = await fleet.start()
            host, port = dispatcher.address
            print(
                f"fleet dispatcher on {host}:{port} "
                f"({admitted}/{args.workers} workers in ring; "
                "Ctrl-C to stop)",
                file=sys.stderr,
                flush=True,
            )
            print(
                json.dumps(
                    ReadyFrame(
                        host=host,
                        port=port,
                        pid=os.getpid(),
                        role="fleet",
                        workers=admitted,
                    ).to_dict()
                ),
                flush=True,
            )
            forever = asyncio.ensure_future(dispatcher.serve_forever())
            stopped = asyncio.ensure_future(stop.wait())
            try:
                await asyncio.wait(
                    {forever, stopped},
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                stopped.cancel()
                forever.cancel()
        finally:
            for signum in hooked:
                loop.remove_signal_handler(signum)
            print(
                f"draining fleet (timeout {args.drain_timeout:g}s)",
                file=sys.stderr,
                flush=True,
            )
            await fleet.close(drain_timeout=args.drain_timeout)
            print("fleet shutdown complete", file=sys.stderr, flush=True)

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr, flush=True)
    except RuntimeError as error:
        print(f"fleet failed: {error}", file=sys.stderr, flush=True)
        return 1
    return 0


def _cmd_simplify(args: argparse.Namespace) -> int:
    from .answerability import (
        choice_simplification,
        existence_check_simplification,
        fd_simplification,
    )

    schema = load_schema(args.schema)
    transform = {
        "existence-check": existence_check_simplification,
        "fd": fd_simplification,
        "choice": choice_simplification,
    }[args.kind]
    result = transform(schema)
    print(json.dumps(schema_to_dict(result.schema), indent=2))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from .service import compile_schema

    compiled = compile_schema(load_schema(args.schema))
    if args.json:
        schema = compiled.schema
        print(
            json.dumps(
                {
                    "fingerprint": compiled.fingerprint,
                    "constraint_class": compiled.constraint_class.value,
                    "result_bounded_methods": [
                        m.name for m in compiled.result_bounded_methods
                    ],
                    "relations": len(schema.relations),
                    "methods": len(schema.methods),
                    "constraints": len(schema.constraints),
                }
            )
        )
        return 0
    print(f"fragment      : {compiled.constraint_class.value}")
    print(
        "result bounds : "
        f"{len(compiled.result_bounded_methods)} methods"
    )
    print(f"fingerprint   : {compiled.fingerprint[:16]}")
    return 0


def _input_errors() -> tuple[type[BaseException], ...]:
    """What ``decide``/``plan``/``classify`` report as bad input.
    Called only once an exception is in flight, so the imports stay
    lazy."""
    from .logic.parser import ParseError
    from .schema.schema import SchemaError
    from .service import QuerySchemaError

    return (
        OSError, json.JSONDecodeError, ParseError, QuerySchemaError,
        SchemaError, SchemaFormatError,
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "decide": _cmd_decide,
        "plan": _cmd_plan,
        "batch": _cmd_batch,
        "serve": _cmd_serve,
        "fleet": _cmd_fleet,
        "simplify": _cmd_simplify,
        "classify": _cmd_classify,
    }
    if args.command not in ("decide", "plan", "classify"):
        return handlers[args.command](args)
    try:
        return handlers[args.command](args)
    except _input_errors() as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
