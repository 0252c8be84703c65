"""Schema JSON round-trips: `schema_from_dict(schema_to_dict(s)) ≡ s`.

Covers every paper workload in `repro.workloads.paperschemas` plus the
generator families, checking relations, attributes, methods (inputs and
bounds), and constraints — including named constraints, whose ``[name]``
label `schema_to_dict` emits and `parse_constraint` reads back.
"""

import pytest

from repro.io import parse_constraint, schema_from_dict, schema_to_dict
from repro.workloads import (
    example_6_1_schema,
    example_8_1_story,
    fd_determinacy_workload,
    id_width_workload,
    lookup_chain_workload,
    tgd_transfer_workload,
    uid_fd_workload,
    university_schema,
)

PAPER_SCHEMAS = [
    ("university-plain", lambda: university_schema()),
    ("university-unbounded", lambda: university_schema(ud_bound=None)),
    (
        "university-full",
        lambda: university_schema(
            ud_bound=100, with_ud2=True, with_fd=True
        ),
    ),
    ("example-6-1", example_6_1_schema),
    ("example-8-1", lambda: example_8_1_story().schema),
]

GENERATED_SCHEMAS = [
    ("lookup-chain", lambda: lookup_chain_workload(3, dump_bound=7).schema),
    ("id-width", lambda: id_width_workload(3).schema),
    ("fd-determinacy", lambda: fd_determinacy_workload(3).schema),
    ("uid-fd", lambda: uid_fd_workload(3).schema),
    ("tgd-transfer", lambda: tgd_transfer_workload(3).schema),
]


def assert_schemas_equivalent(original, rebuilt):
    assert {r.name: r.arity for r in rebuilt.relations} == {
        r.name: r.arity for r in original.relations
    }
    assert {r.name: r.attributes for r in rebuilt.relations} == {
        r.name: r.attributes for r in original.relations
    }
    original_methods = {m.name: m for m in original.methods}
    rebuilt_methods = {m.name: m for m in rebuilt.methods}
    assert rebuilt_methods.keys() == original_methods.keys()
    for name, method in original_methods.items():
        other = rebuilt_methods[name]
        assert other.relation.name == method.relation.name
        assert other.input_positions == method.input_positions
        assert other.result_bound == method.result_bound
        assert other.result_lower_bound == method.result_lower_bound
    assert sorted(repr(c) for c in rebuilt.constraints) == sorted(
        repr(c) for c in original.constraints
    )


@pytest.mark.parametrize(
    "label,build",
    PAPER_SCHEMAS + GENERATED_SCHEMAS,
    ids=[c[0] for c in PAPER_SCHEMAS + GENERATED_SCHEMAS],
)
def test_round_trip(label, build):
    schema = build()
    rebuilt = schema_from_dict(schema_to_dict(schema))
    assert_schemas_equivalent(schema, rebuilt)


@pytest.mark.parametrize(
    "label,build",
    PAPER_SCHEMAS + GENERATED_SCHEMAS,
    ids=[c[0] for c in PAPER_SCHEMAS + GENERATED_SCHEMAS],
)
def test_dict_form_is_a_fixpoint(label, build):
    description = schema_to_dict(build())
    assert schema_to_dict(schema_from_dict(description)) == description


@pytest.mark.parametrize(
    "label,build",
    PAPER_SCHEMAS + GENERATED_SCHEMAS,
    ids=[c[0] for c in PAPER_SCHEMAS + GENERATED_SCHEMAS],
)
def test_fingerprint_survives_round_trip(label, build):
    from repro.service import schema_fingerprint

    schema = build()
    rebuilt = schema_from_dict(schema_to_dict(schema))
    assert schema_fingerprint(rebuilt) == schema_fingerprint(schema)


class TestUnknownKeys:
    """A misspelt key is an error, not a silently dropped setting."""

    def test_unknown_method_key_is_rejected(self):
        from repro.io import SchemaFormatError

        description = {
            "relations": {"R": 2},
            "methods": [
                {"name": "m", "relation": "R", "inputs": [1], "bound": 1}
            ],
        }
        with pytest.raises(SchemaFormatError, match="'bound'.*method 'm'"):
            schema_from_dict(description)

    def test_unknown_top_level_key_is_rejected(self):
        from repro.io import SchemaFormatError

        description = {
            "relations": {"R": 2},
            "constraint": ["R(x, y) -> R(y, z)"],
        }
        with pytest.raises(SchemaFormatError, match="'constraint'"):
            schema_from_dict(description)

    def test_every_key_schema_to_dict_writes_is_accepted(self):
        from repro.schema import Schema

        schema = university_schema(ud_bound=100, with_ud2=True, with_fd=True)
        extra = Schema()
        extra.add_relation("T", 2, ("a", "b"))
        extra.add_method("mt", "T", inputs=[0], result_lower_bound=2)
        extra.add_method("mb", "T", inputs=[1], result_bound=5)
        for original in (schema, extra):
            description = schema_to_dict(original)
            assert_schemas_equivalent(original, schema_from_dict(description))


class TestParseConstraint:
    def test_named_tgd(self):
        parsed = parse_constraint(
            "[tau] Prof(i, n, s) -> exists a, p. Udirectory(i, a, p)"
        )
        assert parsed.name == "tau"
        assert repr(parsed) == (
            "[tau] Prof(i, n, s) -> exists a, p. Udirectory(i, a, p)"
        )

    def test_named_fd(self):
        parsed = parse_constraint("[phi] Udirectory: 1 -> 2")
        assert parsed.name == "phi"
        assert parsed.relation == "Udirectory"
        assert parsed.determiner == frozenset({0})
        assert parsed.determined == 1

    def test_unterminated_label_rejected(self):
        from repro.io import SchemaFormatError

        with pytest.raises(SchemaFormatError):
            parse_constraint("[oops R(x) -> S(x)")


class TestReadyFrame:
    """The worker readiness handshake: one JSON line on stdout that
    supervisors and the fleet dispatcher parse for ephemeral ports."""

    def test_roundtrip(self):
        from repro.io import ReadyFrame

        frame = ReadyFrame(
            host="127.0.0.1", port=8765, pid=42, role="fleet",
            workers=4, warmed=3,
        )
        import json as jsonlib

        line = jsonlib.dumps(frame.to_dict())
        parsed = ReadyFrame.from_line(line)
        assert parsed == frame

    def test_defaults_omit_optional_fields(self):
        from repro.io import ReadyFrame

        payload = ReadyFrame(host="h", port=1, pid=2).to_dict()
        assert "workers" not in payload["ready"]
        assert payload["ready"]["role"] == "serve"

    def test_from_line_ignores_non_ready_output(self):
        from repro.io import ReadyFrame

        assert ReadyFrame.from_line("") is None
        assert ReadyFrame.from_line("serving on 127.0.0.1:80") is None
        assert ReadyFrame.from_line('{"op": "pong"}') is None
        assert ReadyFrame.from_line('{"ready": "not-an-object"}') is None


class TestWarmManifest:
    """``--warm`` manifests: schema paths or inline schema objects."""

    def test_inline_schemas_and_bare_array(self, tmp_path):
        import json as jsonlib

        from repro.io import load_warm_manifest

        inline = {
            "relations": {"R": 1},
            "methods": [{"name": "dump", "relation": "R", "inputs": []}],
        }
        nested = tmp_path / "manifest.json"
        nested.write_text(jsonlib.dumps({"schemas": [inline]}))
        bare = tmp_path / "bare.json"
        bare.write_text(jsonlib.dumps([inline]))
        assert load_warm_manifest(str(nested)) == [inline]
        assert load_warm_manifest(str(bare)) == [inline]

    def test_path_entries_resolve_relative_to_the_manifest(self, tmp_path):
        import json as jsonlib

        from repro.io import load_warm_manifest

        schema = {
            "relations": {"R": 1},
            "methods": [{"name": "dump", "relation": "R", "inputs": []}],
        }
        (tmp_path / "schema.json").write_text(jsonlib.dumps(schema))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(jsonlib.dumps({"schemas": ["schema.json"]}))
        [loaded] = load_warm_manifest(str(manifest))
        assert loaded["relations"] == {"R": 1}

    def test_malformed_manifests_are_rejected_eagerly(self, tmp_path):
        import json as jsonlib

        from repro.io import SchemaFormatError, load_warm_manifest

        bad_shape = tmp_path / "bad.json"
        bad_shape.write_text(jsonlib.dumps({"not-schemas": []}))
        with pytest.raises(SchemaFormatError):
            load_warm_manifest(str(bad_shape))
        bad_schema = tmp_path / "worse.json"
        bad_schema.write_text(
            jsonlib.dumps({"schemas": [{"relations": "nope"}]})
        )
        with pytest.raises(SchemaFormatError):
            load_warm_manifest(str(bad_schema))
