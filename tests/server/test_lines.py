"""The shared JSON-lines pieces: `FrameMemo`, `encode_frame` and
`is_error_line`.

The memo is what lets a repeated request line skip the JSON decode in
both the worker and the fleet dispatcher, so these tests pin that it
admits a line only on its second sighting, hands back exactly what a
fresh parse gives, stays within its byte cap, never remembers a
malformed line, and that nothing the server does with a memoized
request changes it.
"""

import asyncio
import json

import pytest

from repro.io import (
    DecideRequest,
    DecideResponse,
    ErrorFrame,
    PlanResponse,
    SchemaFormatError,
    schema_to_dict,
)
import repro.server.lines as frame_lines
from repro.server import DecideServer, SessionPool
from repro.server.lines import FrameMemo, encode_frame, is_error_line
from repro.server.pool import text_key_of
from repro.workloads import id_chain_workload, university_schema

SCHEMA = schema_to_dict(university_schema())


def line(**fields) -> bytes:
    return json.dumps(fields).encode("utf-8") + b"\n"


def fresh(raw: bytes):
    request = DecideRequest.from_dict(json.loads(raw.decode("utf-8")))
    return request, text_key_of(request.schema)


class TestAdmission:
    def test_a_line_is_admitted_on_its_second_sighting(self):
        memo = FrameMemo()
        raw = line(query="Udirectory(i,a,p)", schema=SCHEMA, id=1)
        first = memo.parse(raw)
        assert len(memo) == 0 and memo.bytes == 0
        second = memo.parse(raw)
        assert len(memo) == 1 and memo.bytes == len(raw)
        third = memo.parse(raw)
        assert third is second
        assert (memo.parsed, memo.hits) == (2, 1)
        assert first == second

    def test_a_line_seen_once_is_never_admitted(self):
        memo = FrameMemo()
        for n in range(50):
            memo.parse(line(query=f"R{n}(x)", schema=SCHEMA))
        assert len(memo) == 0 and memo.bytes == 0 and memo.hits == 0

    def test_seen_hashes_are_bounded_oldest_first(self, monkeypatch):
        monkeypatch.setattr(frame_lines, "FRAME_MEMO_SEEN", 3)
        memo = FrameMemo()
        lines = [line(query=f"R{n}(x)") for n in range(4)]
        for raw in lines:
            memo.parse(raw)
        assert len(memo._seen) == 3
        # The oldest was forgotten: its repeat counts as a first sighting.
        memo.parse(lines[0])
        assert len(memo) == 0
        memo.parse(lines[3])
        assert len(memo) == 1

    def test_a_line_over_the_cap_is_never_admitted(self, monkeypatch):
        monkeypatch.setattr(frame_lines, "FRAME_MEMO_BYTES", 64)
        memo = FrameMemo()
        raw = line(query="Udirectory(i,a,p)", schema=SCHEMA)
        for __ in range(3):
            memo.parse(raw)
        assert len(memo) == 0 and memo.parsed == 3


class TestSameParse:
    @pytest.mark.parametrize(
        "raw",
        [
            line(query="Udirectory(i,a,p)", schema=SCHEMA, id=1),
            line(query="Udirectory(i,a,p)", op="plan", id="p"),
            line(query="R(x)", finite=True, deadline_ms=5),
            line(op="stats"),
            b'"Udirectory(i, a, p)"\n',
        ],
    )
    def test_a_memo_hit_equals_a_fresh_parse(self, raw):
        memo = FrameMemo()
        memo.parse(raw)
        memo.parse(raw)
        hit = memo.parse(raw)
        assert memo.hits == 1
        assert hit == fresh(raw)

    def test_default_schema_frames_have_no_spelling(self):
        request, spelling = FrameMemo().parse(b'{"query": "R(x)"}\n')
        assert request.schema is None and spelling is None


class TestByteCap:
    def test_ten_thousand_distinct_frames_stay_under_the_cap(
        self, monkeypatch
    ):
        cap = 64 * 1024
        monkeypatch.setattr(frame_lines, "FRAME_MEMO_BYTES", cap)
        memo = FrameMemo()
        schemas = [
            schema_to_dict(id_chain_workload(n).schema) for n in range(2, 6)
        ]
        for n in range(10_000):
            raw = line(query=f"R0(c{n})", schema=schemas[n % 4], id=n)
            # Twice, so every frame is admitted and the cap must evict.
            memo.parse(raw)
            memo.parse(raw)
            assert memo.bytes <= cap
        assert memo.bytes == sum(len(raw) for raw in memo._frames)
        assert 0 < len(memo) < 10_000
        assert len(memo._seen) <= frame_lines.FRAME_MEMO_SEEN


class TestMalformed:
    @pytest.mark.parametrize(
        "bad,error",
        [
            (b"{not json\n", ValueError),
            (b'{"op": "no-such-op"}\n', SchemaFormatError),
            (b'{"query": 7}\n', SchemaFormatError),
            (b"\xff\xfe\n", ValueError),
        ],
    )
    def test_malformed_lines_raise_and_are_not_remembered(self, bad, error):
        memo = FrameMemo()
        for __ in range(3):
            with pytest.raises(error):
                memo.parse(bad)
        assert len(memo) == 0 and memo.parsed == 0
        assert memo._seen == {}

    def test_malformed_frames_are_answered_as_before(self):
        bad = [b"{not json\n", b'{"op": "no-such-op", "id": 1}\n']

        def expected(raw):
            try:
                DecideRequest.from_dict(json.loads(raw.decode("utf-8")))
            except Exception as error:
                snippet = raw.decode("utf-8", "replace").strip()
                return encode_frame(
                    ErrorFrame.from_exception(
                        error, line=snippet[:200]
                    ).to_dict()
                )
            raise AssertionError("frame parsed")

        async def scenario():
            server = DecideServer(SessionPool(university_schema()), port=0)
            await server.start()
            try:
                return [
                    server._process_line(raw, "peer")
                    for raw in bad * 3
                ], server.server_stats()
            finally:
                await server.close()

        replies, stats = asyncio.run(scenario())
        assert replies == [expected(raw) for raw in bad * 3]
        assert stats["frames_parsed"] == 0 and stats["memo_hits"] == 0


class TestNeverMutated:
    def test_serving_leaves_memoized_requests_untouched(self):
        workload = id_chain_workload(3)
        schema = schema_to_dict(workload.schema)
        lines = [
            line(query="R0(x)", schema=schema, id=1),
            line(query="R0(x)", schema=schema, op="plan", id=2),
            line(query="Udirectory(i,a,p)", id=3),
            line(query="Udirectory(i,a,p)", finite=True),
        ]

        async def scenario():
            server = DecideServer(SessionPool(university_schema()), port=0)
            await server.start()
            try:
                replies = []
                for __ in range(4):
                    for raw in lines:
                        reply = server._process_line(raw, "peer")
                        if not isinstance(reply, bytes):
                            reply = await reply
                        replies.append(json.loads(reply))
                return replies, server._memo
            finally:
                await server.close()

        replies, memo = asyncio.run(scenario())
        assert not any(is_error_line(encode_frame(r)) for r in replies)
        assert len(memo) == len(lines)
        for raw, (request, spelling) in memo._frames.items():
            assert (request, spelling) == fresh(raw)


class TestEncoding:
    def test_encoding_sorts_keys_and_ends_the_line(self):
        assert encode_frame({"op": "pong", "id": 3}) == (
            b'{"id": 3, "op": "pong"}\n'
        )

    def test_only_bare_error_frames_read_as_errors(self):
        assert is_error_line(encode_frame(ErrorFrame("X", "m").to_dict()))
        assert is_error_line(
            encode_frame(ErrorFrame("X", "m", id="a").to_dict())
        )
        # A decision carrying a decision-level error is not an error
        # frame: its ``cached`` key sorts before ``error``.
        unknown = DecideResponse(
            query="q",
            decision="unknown",
            error={"type": "RewritingBudgetExceeded"},
            id=1,
        )
        assert not is_error_line(encode_frame(unknown.to_dict()))
        plan = PlanResponse(query="q", answerable=False, reason="no")
        assert not is_error_line(encode_frame(plan.to_dict()))
        assert not is_error_line(encode_frame({"op": "pong"}))


def served_frames() -> list:
    """A decide, a plan, a decision-level error, error frames and a
    stats frame, as a worker builds them."""
    from repro.runtime import DeadlineExceeded, Overloaded, WorkerLost
    from repro.server.pool import introspection_frame

    pool = SessionPool(university_schema())
    schema = schema_to_dict(id_chain_workload(3).schema)
    frames = [
        pool.process(DecideRequest(query="Udirectory(i,a,p)", id=1)),
        pool.process(DecideRequest(query="R0(x)", schema=schema, id="é")),
        pool.process(
            DecideRequest(op="plan", query="Udirectory(i,a,p)", finite=True)
        ),
    ]
    frames = [frame.to_dict() for frame in frames]
    frames += [
        ErrorFrame.from_exception(error, id=ident).to_dict()
        for error in (
            WorkerLost("gone", worker="w0", retry_after_ms=100.0),
            Overloaded("busy", retry_after_ms=50.0, scope="client"),
            DeadlineExceeded("late"),
            ValueError("bad frame"),
        )
        for ident in (None, 7, "x")
    ]
    frames.append(
        introspection_frame(
            DecideRequest(op="stats", id=3), pool, server={"frames": 1}
        )
    )
    return frames


class TestSortedEncoder:
    def test_frames_and_spellings_equal_a_sorted_json_dumps(self):
        for frame in served_frames():
            assert encode_frame(frame) == (
                json.dumps(frame, sort_keys=True).encode("utf-8") + b"\n"
            )
        for schema in (
            SCHEMA,
            schema_to_dict(id_chain_workload(4).schema),
            {"relations": {"Ré": 2}, "methods": []},
        ):
            assert text_key_of(schema) == json.dumps(schema, sort_keys=True)
        assert text_key_of("university") is None

    def test_every_error_frame_reads_as_an_error_line(self):
        frames = served_frames()
        errors = [frame for frame in frames if set(frame) >= {"error"}]
        assert len(errors) == 12
        for frame in frames:
            line = encode_frame(frame)
            assert is_error_line(line) == (frame in errors)

    def test_no_encoder_is_built_per_call(self, monkeypatch):
        frames = served_frames()
        built = []
        init = json.JSONEncoder.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(json.JSONEncoder, "__init__", counted)
        for frame in frames:
            encode_frame(frame)
        text_key_of(SCHEMA)
        assert built == []
