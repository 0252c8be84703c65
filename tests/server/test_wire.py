"""Wire-protocol property tests: round-trip fuzzing of the codecs.

Every frame crossing a process boundary — requests, decide/plan
responses, error frames — must survive ``to_dict`` → JSON → ``from_dict``
unchanged, over randomly generated schemas and queries, and every
malformed frame must come back as a *typed* codec error (so transports
can answer with a structured `ErrorFrame` instead of a stack trace).

A seeded tier-1 sample runs on every push; the wide sweeps carry the
``slow`` marker and run nightly.
"""

import json
import random

import pytest

from repro.io import (
    DecideRequest,
    DecideResponse,
    ErrorFrame,
    PlanResponse,
    SchemaFormatError,
    schema_from_dict,
    schema_to_dict,
)
from repro.server import SessionPool
from repro.service import schema_fingerprint
from repro.workloads import random_id_workload


def query_text(query) -> str:
    """The parser syntax for a Boolean CQ body."""
    return ", ".join(
        f"{a.relation}({', '.join(str(t) for t in a.terms)})"
        for a in query.atoms
    )


def random_request(rng: random.Random, description: dict, query) -> DecideRequest:
    op = rng.choice(["decide", "decide", "decide", "plan", "stats", "ping"])
    return DecideRequest(
        query=query_text(query) if op in ("decide", "plan") else "",
        schema=description if rng.random() < 0.5 else None,
        id=rng.choice([None, rng.randrange(1000), f"req-{rng.random()}"]),
        finite=rng.random() < 0.2,
        op=op,
        deadline_ms=rng.choice([None, None, 1.0, 250.0, 60_000.0]),
    )


def assert_request_round_trips(request: DecideRequest) -> None:
    wire = json.loads(json.dumps(request.to_dict()))
    assert DecideRequest.from_dict(wire) == request


class TestRequestRoundTrip:
    def test_bare_string_form(self):
        request = DecideRequest.from_dict("R(x, y)")
        assert request == DecideRequest(query="R(x, y)")
        assert_request_round_trips(request)

    def test_random_requests_round_trip(self):
        rng = random.Random(7)
        for seed in range(20):
            workload = random_id_workload(seed)
            description = schema_to_dict(workload.schema)
            request = random_request(rng, description, workload.query)
            assert_request_round_trips(request)
            # The inline schema also round-trips to the same fingerprint.
            if request.schema is not None:
                rebuilt = schema_from_dict(
                    json.loads(json.dumps(request.schema))
                )
                assert schema_fingerprint(rebuilt) == schema_fingerprint(
                    workload.schema
                )

    @pytest.mark.slow
    def test_random_requests_round_trip_sweep(self):
        rng = random.Random(11)
        for seed in range(300):
            workload = random_id_workload(
                seed, relations=rng.randint(2, 7), ids=rng.randint(1, 8)
            )
            assert_request_round_trips(
                random_request(
                    rng, schema_to_dict(workload.schema), workload.query
                )
            )


class TestResponseRoundTrip:
    def _decide_responses(self, seeds):
        """Real responses, decided over random schemas through a pool."""
        pool = SessionPool()
        for seed in seeds:
            workload = random_id_workload(seed)
            request = DecideRequest(
                query=query_text(workload.query),
                schema=schema_to_dict(workload.schema),
                id=seed,
            )
            yield pool.process(request)

    def test_real_decide_responses_round_trip(self):
        for response in self._decide_responses(range(12)):
            wire = json.loads(json.dumps(response.to_dict()))
            rebuilt = DecideResponse.from_dict(wire)
            assert rebuilt.to_dict() == response.to_dict()
            assert rebuilt.decision == response.decision
            assert rebuilt.id == response.id

    @pytest.mark.slow
    def test_real_decide_responses_round_trip_sweep(self):
        for response in self._decide_responses(range(150)):
            wire = json.loads(json.dumps(response.to_dict()))
            assert DecideResponse.from_dict(wire).to_dict() == (
                response.to_dict()
            )

    def test_plan_response_round_trips_with_id(self):
        response = PlanResponse(
            query="Q",
            answerable=True,
            plan="T <= m <= T",
            fingerprint="f" * 64,
            id="plan-1",
        )
        wire = json.loads(json.dumps(response.to_dict()))
        assert PlanResponse.from_dict(wire) == response

    def test_synthetic_decide_response_fields_survive(self):
        response = DecideResponse(
            query="Q",
            decision="unknown",
            reason="budget",
            route="linearization",
            constraint_class="ids",
            fingerprint="a" * 64,
            cached=True,
            elapsed_ms=1.25,
            id=9,
            detail={"rounds": 3, "nested": {"k": [1, 2]}},
            error={"type": "RewritingBudgetExceeded", "max_disjuncts": 1},
        )
        wire = json.loads(json.dumps(response.to_dict()))
        assert DecideResponse.from_dict(wire) == response


class TestErrorFrameRoundTrip:
    def test_from_exception_and_round_trip(self):
        frame = ErrorFrame.from_exception(
            SchemaFormatError("bad schema"), id=4, line="{...}"
        )
        wire = json.loads(json.dumps(frame.to_dict()))
        assert ErrorFrame.from_dict(wire) == frame
        assert wire["error"]["type"] == "SchemaFormatError"
        assert wire["error"]["detail"]["line"] == "{...}"

    def test_retry_contract_fields_round_trip(self):
        from repro.runtime import DeadlineExceeded, Overloaded

        # from_exception lifts retryable / retry_after_ms off the error.
        frame = ErrorFrame.from_exception(
            Overloaded("busy", retry_after_ms=125.0), id="r1"
        )
        wire = json.loads(json.dumps(frame.to_dict()))
        assert wire["error"]["retryable"] is True
        assert wire["error"]["retry_after_ms"] == 125.0
        assert ErrorFrame.from_dict(wire) == frame

        frame = ErrorFrame.from_exception(
            DeadlineExceeded("late", deadline_ms=5.0, elapsed_ms=6.0)
        )
        wire = json.loads(json.dumps(frame.to_dict()))
        assert wire["error"]["retryable"] is True
        assert "retry_after_ms" not in wire["error"]  # no hint, no key
        assert ErrorFrame.from_dict(wire) == frame

        # Non-retryable errors say so explicitly on the wire.
        wire = ErrorFrame.from_exception(ValueError("bad")).to_dict()
        assert wire["error"]["retryable"] is False

    def test_pre_retry_contract_frames_still_parse(self):
        # Frames emitted before retryable/retry_after_ms existed carry
        # neither key; they must parse as non-retryable.
        legacy = {"error": {"type": "ParseError", "message": "nope"}}
        frame = ErrorFrame.from_dict(legacy)
        assert frame.type == "ParseError"
        assert frame.retryable is False
        assert frame.retry_after_ms is None

    def test_error_frames_never_collide_with_responses(self):
        # The discriminator: an ErrorFrame has no "decision" and a
        # DecideResponse always does, even when it carries an error.
        frame = ErrorFrame("ParseError", "nope").to_dict()
        assert "decision" not in frame
        response = DecideResponse(
            query="Q", decision="unknown", error={"type": "X"}
        ).to_dict()
        assert "decision" in response


MALFORMED = [
    17,
    None,
    ["R(x)"],
    {"op": "wat", "query": "R(x)"},
    {"op": "decide"},
    {"op": "plan", "query": ""},
    {"query": 17},
    {"query": ["R(x)"]},
    {"query": "R(x)", "schema": "not-a-dict"},
    {"query": "R(x)", "schema": ["x"]},
    {"query": "R(x)", "id": [1]},
    {"query": "R(x)", "id": {"k": 1}},
    {"query": "R(x)", "deadline_ms": 0},
    {"query": "R(x)", "deadline_ms": -5},
    {"query": "R(x)", "deadline_ms": True},
    {"query": "R(x)", "deadline_ms": "fast"},
]


class TestMalformedFrames:
    @pytest.mark.parametrize("payload", MALFORMED, ids=repr)
    def test_malformed_frame_raises_the_typed_codec_error(self, payload):
        with pytest.raises(SchemaFormatError):
            DecideRequest.from_dict(payload)

    def test_introspection_ops_need_no_query(self):
        for op in ("stats", "ping"):
            request = DecideRequest.from_dict({"op": op})
            assert request.op == op and request.query == ""

    def test_random_json_junk_never_escapes_the_typed_error(self):
        rng = random.Random(23)

        def junk(depth=0):
            kinds = ["int", "str", "list", "dict", "none", "bool"]
            kind = rng.choice(kinds if depth < 2 else kinds[:2])
            if kind == "int":
                return rng.randrange(-1000, 1000)
            if kind == "str":
                return "".join(
                    rng.choice("abc(){}:,\"' \\")
                    for __ in range(rng.randrange(12))
                )
            if kind == "none":
                return None
            if kind == "bool":
                return rng.random() < 0.5
            if kind == "list":
                return [junk(depth + 1) for __ in range(rng.randrange(3))]
            return {
                rng.choice(
                    ["query", "schema", "id", "op", "finite", "x"]
                ): junk(depth + 1)
                for __ in range(rng.randrange(4))
            }

        parsed = 0
        for __ in range(500):
            payload = junk()
            try:
                DecideRequest.from_dict(payload)
                parsed += 1
            except SchemaFormatError:
                pass  # the only acceptable failure mode
        assert parsed > 0  # some junk is legitimately well-formed
