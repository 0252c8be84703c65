"""Tests for the JSON loader and the CLI."""

import json
import os

import pytest

from repro.__main__ import _warm_pool, main
from repro.constraints import ConstraintClass, FunctionalDependency
from repro.io import (
    SchemaFormatError,
    WarmupError,
    load_query,
    load_warm_manifest,
    schema_from_dict,
    schema_to_dict,
)
from repro.server import SessionLimits, SessionPool

UNIVERSITY = {
    "relations": {"Prof": 3, "Udirectory": 3},
    "attributes": {"Prof": ["id", "name", "salary"]},
    "methods": [
        {"name": "pr", "relation": "Prof", "inputs": [1]},
        {
            "name": "ud",
            "relation": "Udirectory",
            "inputs": [],
            "result_bound": 100,
        },
    ],
    "constraints": ["Prof(i,n,s) -> Udirectory(i,a,p)"],
}


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(UNIVERSITY))
    return str(path)


class TestLoader:
    def test_round_trip(self):
        schema = schema_from_dict(UNIVERSITY)
        assert schema.method("ud").result_bound == 100
        assert schema.method("pr").input_positions == frozenset({0})
        assert (
            schema.constraint_class()
            is ConstraintClass.BOUNDED_WIDTH_IDS
        )
        again = schema_to_dict(schema)
        assert again["relations"] == UNIVERSITY["relations"]
        assert again["methods"][1]["result_bound"] == 100

    def test_fd_constraint_detected(self):
        description = dict(UNIVERSITY)
        description["constraints"] = ["Udirectory: 1 -> 2"]
        schema = schema_from_dict(description)
        assert isinstance(
            schema.constraints[0], FunctionalDependency
        )

    def test_missing_relations(self):
        with pytest.raises(SchemaFormatError):
            schema_from_dict({"methods": []})

    def test_zero_based_inputs_rejected(self):
        description = dict(UNIVERSITY)
        description["methods"] = [
            {"name": "m", "relation": "Prof", "inputs": [0]}
        ]
        with pytest.raises(SchemaFormatError):
            schema_from_dict(description)

    def test_load_query_inline_and_file(self, tmp_path):
        q = load_query("Prof(i, n, s)")
        assert q.is_boolean()
        path = tmp_path / "q.txt"
        path.write_text("Q(n) :- Prof(i, n, 10000)")
        q2 = load_query(str(path))
        assert len(q2.free_variables) == 1


class TestCLI:
    def test_decide_yes(self, schema_file, capsys):
        code = main(["decide", schema_file, "Udirectory(i,a,p)"])
        assert code == 0
        assert "YES" in capsys.readouterr().out

    def test_decide_no(self, schema_file, capsys):
        code = main(["decide", schema_file, "Prof(i,n,10000)"])
        assert code == 1
        assert "NO" in capsys.readouterr().out

    def test_decide_finite(self, schema_file, capsys):
        code = main(["decide", "--finite", schema_file, "Udirectory(i,a,p)"])
        assert code == 0

    def test_plan(self, schema_file, capsys):
        code = main(["plan", schema_file, "Udirectory(i,a,p)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "<= ud <=" in out

    def test_plan_refused(self, schema_file, capsys):
        code = main(["plan", schema_file, "Prof(i,n,10000)"])
        assert code == 1

    #: An inline query longer than a file name may be (255 bytes): the
    #: path probe fails with ENAMETOOLONG and must read it as text.
    LONG_QUERY = ", ".join(["Udirectory(i, a, p)"] * 15)

    def test_decide_long_inline_query(self, schema_file, capsys):
        assert len(self.LONG_QUERY) > 300
        code = main(["decide", schema_file, self.LONG_QUERY])
        assert code == 0
        assert "YES" in capsys.readouterr().out

    def test_plan_long_inline_query(self, schema_file, capsys):
        code = main(["plan", schema_file, self.LONG_QUERY])
        assert code == 0
        assert "<= ud <=" in capsys.readouterr().out

    def test_simplify(self, schema_file, capsys):
        code = main(["simplify", schema_file, "choice"])
        assert code == 0
        description = json.loads(capsys.readouterr().out)
        ud = next(m for m in description["methods"] if m["name"] == "ud")
        assert ud["result_bound"] == 1

    def test_classify(self, schema_file, capsys):
        code = main(["classify", schema_file])
        assert code == 0
        assert "bounded-width" in capsys.readouterr().out

    def test_max_rounds_default_is_the_shared_constant(self):
        from repro.__main__ import _build_parser
        from repro.answerability.deciders import (
            DEFAULT_CHASE_FACTS,
            DEFAULT_CHASE_ROUNDS,
        )

        from repro.containment.rewriting import DEFAULT_MAX_DISJUNCTS

        args = _build_parser().parse_args(["decide", "s.json", "R(x)"])
        assert args.max_rounds == DEFAULT_CHASE_ROUNDS
        assert args.max_facts == DEFAULT_CHASE_FACTS
        assert args.max_disjuncts == DEFAULT_MAX_DISJUNCTS

    def test_serve_parser_defaults_are_the_shared_constants(self):
        from repro.__main__ import _build_parser
        from repro.server import (
            DEFAULT_MAX_FINGERPRINTS,
            DEFAULT_MAX_PENDING,
            DEFAULT_PORT,
        )

        args = _build_parser().parse_args(["serve"])
        assert args.schema is None
        assert args.host == "127.0.0.1"
        assert args.port == DEFAULT_PORT
        assert args.max_fingerprints == DEFAULT_MAX_FINGERPRINTS
        assert args.max_pending == DEFAULT_MAX_PENDING


SIZE_FLAGS = {
    "serve": (
        "--max-fingerprints", "--max-pending", "--max-inflight-per-client",
    ),
    "fleet": (
        "--workers", "--max-fingerprints", "--max-pending",
        "--max-inflight-per-client",
    ),
}
#: Resource limits, on every command that decides: each must be >= 1.
LIMIT_FLAGS = ("--max-rounds", "--max-facts", "--max-disjuncts")
#: Positional arguments each deciding command needs to parse.
LIMIT_COMMANDS = {
    "decide": ["schema.json", "Q() :- R(x)"],
    "plan": ["schema.json", "Q() :- R(x)"],
    "batch": ["schema.json"],
    "serve": [],
    "fleet": [],
}
#: Quota flags that take a real number: (flag, bad value, message).
QUOTA_FLAGS = (
    ("--client-rate", "0", "must be greater than 0"),
    ("--client-rate", "-2.5", "must be greater than 0"),
    ("--client-burst", "0", "must be at least 1"),
    ("--client-burst", "0.5", "must be at least 1"),
)
#: Knobs that no longer exist: a fixed decision-thread count per worker,
#: one session per fingerprint, and the dispatcher's own channel default.
REMOVED_FLAGS = (
    ("serve", "--workers"),
    ("serve", "--pool-size"),
    ("fleet", "--worker-threads"),
    ("fleet", "--pool-size"),
    ("fleet", "--channels-per-worker"),
)


class TestCLISizeFlags:
    """Counts, sizes and quotas out of range are usage errors (exit 2)
    caught by the parser, before a server starts or a worker is
    spawned."""

    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command, flags in SIZE_FLAGS.items()
         for flag in flags]
        + [(command, flag) for command in LIMIT_COMMANDS
           for flag in LIMIT_FLAGS],
    )
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_size_is_a_usage_error(
        self, command, flag, value, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([command, flag, value])
        assert exit_info.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(SIZE_FLAGS))
    def test_positive_sizes_parse(self, command):
        from repro.__main__ import _build_parser

        argv = [command]
        for flag in SIZE_FLAGS[command]:
            argv += [flag, "1"]
        args = vars(_build_parser().parse_args(argv))
        for flag in SIZE_FLAGS[command]:
            assert args[flag[2:].replace("-", "_")] == 1

    @pytest.mark.parametrize("command", sorted(LIMIT_COMMANDS))
    def test_limits_of_one_parse(self, command):
        from repro.__main__ import _build_parser

        argv = [command, *LIMIT_COMMANDS[command]]
        for flag in LIMIT_FLAGS:
            argv += [flag, "1"]
        args = vars(_build_parser().parse_args(argv))
        for flag in LIMIT_FLAGS:
            assert args[flag[2:].replace("-", "_")] == 1

    @pytest.mark.parametrize("command", sorted(SIZE_FLAGS))
    def test_non_integer_size_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--max-pending", "two"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --max-pending: invalid" in err and "'two'" in err

    @pytest.mark.parametrize("command", sorted(SIZE_FLAGS))
    @pytest.mark.parametrize(
        "flag, value, message", QUOTA_FLAGS,
        ids=[f"{flag}={value}" for flag, value, __ in QUOTA_FLAGS],
    )
    def test_out_of_range_quota_is_a_usage_error(
        self, command, flag, value, message, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([command, flag, value])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(SIZE_FLAGS))
    def test_quotas_in_range_parse(self, command):
        from repro.__main__ import _build_parser

        args = _build_parser().parse_args([
            command, "--client-rate", "0.5", "--client-burst", "1",
            "--max-inflight-per-client", "1",
        ])
        assert args.client_rate == 0.5
        assert args.client_burst == 1.0
        assert args.max_inflight_per_client == 1

    @pytest.mark.parametrize(
        "command, flag", REMOVED_FLAGS,
        ids=[" ".join(pair) for pair in REMOVED_FLAGS],
    )
    def test_removed_flags_are_gone(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, flag, "2"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err

    def test_supervise_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["supervise"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["batch", "schema.json"],
            ["decide", "schema.json", "R(x)"],
            ["fleet"],
            ["plan", "schema.json", "R(x)"],
            ["serve"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_no_subsumption_is_gone(self, argv, capsys):
        # The ID route always prunes its rewriting; there is no opt-out.
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--no-subsumption"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --no-subsumption" in err


class TestCLIJson:
    def test_decide_json(self, schema_file, capsys):
        code = main(["decide", schema_file, "Udirectory(i,a,p)", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decision"] == "yes"
        assert payload["route"] == "linearization"
        assert payload["fingerprint"]

    def test_decide_json_no(self, schema_file, capsys):
        code = main(["decide", schema_file, "Prof(i,n,10000)", "--json"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["decision"] == "no"

    def test_plan_json(self, schema_file, capsys):
        code = main(["plan", schema_file, "Udirectory(i,a,p)", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["answerable"] is True
        assert "<= ud <=" in payload["plan"]

    def test_plan_json_refused(self, schema_file, capsys):
        code = main(["plan", schema_file, "Prof(i,n,10000)", "--json"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["plan"] is None

    def test_classify_json(self, schema_file, capsys):
        code = main(["classify", schema_file, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["constraint_class"].startswith("bounded-width")
        assert payload["result_bounded_methods"] == ["ud"]

    def test_decide_json_budget_error_is_structured(
        self, schema_file, capsys
    ):
        # A starved rewriting budget must come back as exit code 2 with
        # a machine-readable error object, not a traceback.
        code = main(
            [
                "decide",
                schema_file,
                "Udirectory(i,a,p)",
                "--json",
                "--max-disjuncts",
                "1",
            ]
        )
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["decision"] == "unknown"
        assert payload["error"]["type"] == "RewritingBudgetExceeded"
        assert payload["error"]["max_disjuncts"] == 1

    def test_decide_text_budget_error_line(self, schema_file, capsys):
        code = main(
            [
                "decide",
                schema_file,
                "Udirectory(i,a,p)",
                "--max-disjuncts",
                "1",
            ]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "UNKNOWN" in out
        assert "RewritingBudgetExceeded" in out


class TestCLIInputErrors:
    """Bad input to decide/plan/classify: one ``error:`` line on stderr
    and exit 2, never a traceback."""

    def _fails(self, argv, capsys, needle):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert needle in captured.err

    def test_empty_query_is_a_parse_error(self, schema_file, capsys):
        self._fails(["decide", schema_file, ""], capsys, "end of input")

    def test_unclosed_query_is_a_parse_error(self, schema_file, capsys):
        self._fails(["plan", schema_file, "R(x"], capsys, "end of input")

    @pytest.mark.parametrize("command", ["decide", "plan"])
    def test_missing_schema_file(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.json")
        self._fails([command, missing, "R(x)"], capsys, "missing.json")

    def test_classify_missing_schema_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        self._fails(["classify", missing], capsys, "missing.json")

    def test_malformed_schema_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        self._fails(["classify", str(path)], capsys, "line 1")

    def test_schema_format_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"methods": []}))
        self._fails(
            ["decide", str(path), "R(x)"], capsys, "missing 'relations'"
        )

    def test_schema_error(self, tmp_path, capsys):
        description = dict(UNIVERSITY)
        description["methods"] = [{"name": "m", "relation": "Nope"}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(description))
        self._fails(["classify", str(path)], capsys, "Nope")

    @pytest.mark.parametrize("command", ["decide", "plan"])
    @pytest.mark.parametrize(
        "query, needle",
        [
            ("Udirectory(i, a)", "arity 3"),
            ("Udirectory(i, a, p, q)", "arity 3"),
            ("Prof(i, n)", "arity 3"),
            ("Nope(x)", "does not declare"),
        ],
    )
    def test_query_that_does_not_fit_the_schema(
        self, schema_file, capsys, command, query, needle
    ):
        self._fails([command, schema_file, query], capsys, needle)


#: A valid two-column schema, and malformed variants of it keyed by
#: what each one breaks.
_VALID = {
    "relations": {"R": 2},
    "methods": [{"name": "m", "relation": "R", "inputs": [1]}],
}
MALFORMED_SCHEMAS = {
    "top-level-number": 5,
    "methods-number": {**_VALID, "methods": 5},
    "method-entry-number": {**_VALID, "methods": [5]},
    "constraints-number": {**_VALID, "constraints": 5},
    "constraint-entry-number": {**_VALID, "constraints": [5]},
    "attributes-number": {**_VALID, "attributes": {"R": 5}},
    "result-bound-zero": {
        **_VALID,
        "methods": [{"name": "m", "relation": "R", "result_bound": 0}],
    },
    "result-bound-text": {
        **_VALID,
        "methods": [{"name": "m", "relation": "R", "result_bound": "x"}],
    },
    "input-past-arity": {
        **_VALID,
        "methods": [{"name": "m", "relation": "R", "inputs": [3]}],
    },
    "tgd-head-arity": {**_VALID, "constraints": ["R(x,y) -> R(y,z,w)"]},
    "fd-position-past-arity": {**_VALID, "constraints": ["R: 1 -> 7"]},
}


class TestMalformedSchemas:
    """Every malformed description is a `SchemaFormatError`: ``decide``
    reports it as bad input, and a warm manifest holding it degrades to
    cold serving."""

    @pytest.fixture(params=sorted(MALFORMED_SCHEMAS))
    def description(self, request):
        return MALFORMED_SCHEMAS[request.param]

    def test_loader_raises_schema_format_error(self, description):
        with pytest.raises(SchemaFormatError):
            schema_from_dict(description)

    def test_decide_exits_2(self, description, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(description))
        code = main(["decide", str(path), "R('c', y)"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_warm_manifest_entry_serves_cold(self, description, tmp_path):
        manifest = tmp_path / "warm.json"
        manifest.write_text(json.dumps({"schemas": [description]}))
        with pytest.raises(WarmupError, match="entry 0"):
            load_warm_manifest(manifest)
        warmed, warm_error = _warm_pool(
            SessionPool(limits=SessionLimits()), str(manifest)
        )
        assert warmed == 0
        assert warm_error.startswith(f"warm manifest {manifest}")


class TestCLIBatch:
    def _run(self, schema_file, lines, tmp_path, extra=()):
        requests = tmp_path / "requests.jsonl"
        requests.write_text("\n".join(lines) + "\n")
        return main(
            ["batch", schema_file, "--input", str(requests), *extra]
        )

    def test_batch_round_trip(self, schema_file, tmp_path, capsys):
        code = self._run(
            schema_file,
            [
                '"Udirectory(i,a,p)"',
                json.dumps({"query": "Prof(i,n,10000)", "id": 7}),
                json.dumps({"query": "Udirectory(x,y,z)", "id": "again"}),
            ],
            tmp_path,
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        payloads = [json.loads(line) for line in lines]
        assert [p["decision"] for p in payloads] == ["yes", "no", "yes"]
        assert payloads[1]["id"] == 7
        # Third line is alpha-equivalent to the first: a cache hit.
        assert payloads[2]["cached"] is True

    def test_batch_inline_schema(self, schema_file, tmp_path, capsys):
        inline = {
            "relations": {"Udirectory": 3},
            "methods": [
                {"name": "ud", "relation": "Udirectory", "inputs": []}
            ],
        }
        code = self._run(
            schema_file,
            [json.dumps({"query": "Udirectory(i,a,p)", "schema": inline})],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decision"] == "yes"
        assert payload["constraint_class"] == "no constraints"

    def test_batch_bad_line_keeps_streaming(
        self, schema_file, tmp_path, capsys
    ):
        code = self._run(
            schema_file,
            ["not-json", '"Udirectory(i,a,p)"'],
            tmp_path,
        )
        assert code == 1
        lines = capsys.readouterr().out.strip().splitlines()
        error = json.loads(lines[0])["error"]
        # Structured ErrorFrame: typed, with the offending line.
        assert error["type"] == "JSONDecodeError"
        assert error["detail"]["line"] == "not-json"
        assert json.loads(lines[1])["decision"] == "yes"

    def test_batch_error_echoes_request_id(
        self, schema_file, tmp_path, capsys
    ):
        code = self._run(
            schema_file,
            [json.dumps({"query": "Bad((", "id": 7})],
            tmp_path,
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "ParseError"
        assert payload["id"] == 7

    def test_batch_plan_ping_and_stats_ops(
        self, schema_file, tmp_path, capsys
    ):
        code = self._run(
            schema_file,
            [
                json.dumps(
                    {"op": "plan", "query": "Udirectory(i,a,p)", "id": 1}
                ),
                json.dumps({"op": "ping", "id": 2}),
                json.dumps({"op": "stats"}),
            ],
            tmp_path,
        )
        assert code == 0
        plan, pong, stats = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert plan["answerable"] is True and plan["id"] == 1
        assert "<= ud <=" in plan["plan"]
        assert pong == {"op": "pong", "id": 2}
        assert stats["op"] == "stats"
        assert stats["pool"]["counters"]["requests"] == 1
        process = stats["process"]
        assert process["pid"] == os.getpid()
        assert process["user_s"] > 0 and process["sys_s"] >= 0
        assert process["max_rss_mb"] > 1

    def test_batch_stats_line_on_stderr(
        self, schema_file, tmp_path, capsys
    ):
        code = self._run(
            schema_file,
            ['"Udirectory(i,a,p)"', '"Udirectory(x,y,z)"'],
            tmp_path,
            extra=["--stats"],
        )
        assert code == 0
        captured = capsys.readouterr()
        # stdout stays a pure response stream; stats go to stderr.
        for line in captured.out.strip().splitlines():
            assert "sessions" not in json.loads(line)
        stats = json.loads(captured.err.strip().splitlines()[-1])
        session = stats["sessions"][0]
        assert session["cache"]["hits"] == 1
        assert session["rewrite_engine"]["rewrites"] >= 1
