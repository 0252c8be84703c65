"""Warm manifests, batch warmup, and store-resident warm sets.

Covers the warm path end to end: `load_warm_manifest` failing only
with a typed `WarmupError`, `SessionPool.warm_many` keeping its counters and fingerprints identical
to a `warm()` loop, and `warm_from_store` re-admitting every schema a
store-bound pool ever compiled.
"""

import json
import os
import signal
import socket
import subprocess
import sys

import pytest

from repro.cache import (
    ArtifactStore,
    MemoryKVStore,
    load_warm_set,
    open_directory,
)
from repro.io import (
    ReadyFrame,
    SchemaFormatError,
    WarmupError,
    load_warm_manifest,
    schema_to_dict,
)
from repro.server import SessionLimits, SessionPool
from repro.service import compile_schema
from repro.workloads import (
    id_chain_workload,
    lookup_chain_workload,
    university_schema,
)


def descriptions():
    return [
        schema_to_dict(university_schema()),
        schema_to_dict(id_chain_workload(4).schema),
        schema_to_dict(lookup_chain_workload(3).schema),
    ]


class TestWarmManifestErrors:
    def test_manifest_loads_inline_schemas(self, tmp_path):
        wanted = descriptions()
        manifest = tmp_path / "warm.json"
        manifest.write_text(json.dumps({"schemas": wanted}))
        assert load_warm_manifest(manifest) == wanted

    def test_missing_file_is_a_typed_error(self, tmp_path):
        with pytest.raises(WarmupError):
            load_warm_manifest(tmp_path / "absent.json")

    def test_bad_json_is_a_typed_error(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text('{"schemas": [')
        with pytest.raises(WarmupError):
            load_warm_manifest(broken)

    def test_binary_file_is_a_typed_error(self, tmp_path):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe\x00garbage")
        with pytest.raises(WarmupError):
            load_warm_manifest(binary)

    def test_bad_path_entry_is_a_typed_error(self, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps({"relations": 3}))
        manifest = tmp_path / "warm.json"
        manifest.write_text(json.dumps(["bad.json", "absent.json"]))
        with pytest.raises(WarmupError, match="entry 0"):
            load_warm_manifest(manifest)

    def test_bad_manifest_entry_is_a_typed_error(self, tmp_path):
        manifest = tmp_path / "warm.json"
        manifest.write_text(json.dumps({"schemas": [{"relations": 3}]}))
        with pytest.raises(WarmupError) as excinfo:
            load_warm_manifest(manifest)
        # WarmupError IS a SchemaFormatError: callers catching the
        # broad type keep working.
        assert isinstance(excinfo.value, SchemaFormatError)


class TestServeWithBadManifest:
    def test_ready_line_carries_warm_error_and_serving_goes_on(
        self, tmp_path
    ):
        good = schema_to_dict(university_schema())
        bad = {
            **good,
            "methods": [{"name": "m", "relation": "Prof", "result_bound": 0}],
        }
        manifest = tmp_path / "warm.json"
        manifest.write_text(json.dumps({"schemas": [good, bad]}))
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps(good))
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(schema_path),
             "--port", "0", "--warm", str(manifest)],
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        try:
            ready = ReadyFrame.from_dict(
                json.loads(process.stdout.readline())
            )
            assert "entry 1" in ready.warm_error
            assert ready.warmed == 0
            with socket.create_connection(
                (ready.host, ready.port), timeout=30
            ) as conn:
                conn.sendall(b'{"query": "Udirectory(i, a, p)"}\n')
                reply = json.loads(conn.makefile("rb").readline())
            assert reply["decision"] == "yes"
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
            process.stdout.close()
            process.wait(10)


class TestWarmMany:
    def _batch(self):
        wanted = descriptions()
        # Duplicates exercise the compile-once dedup, and a compiled
        # passthrough exercises the no-compile path.
        return [
            wanted[0],
            wanted[1],
            wanted[0],
            compile_schema(lookup_chain_workload(3).schema),
            wanted[2],
            wanted[1],
        ]

    def test_counters_match_the_sequential_loop_exactly(self):
        looped = SessionPool(limits=SessionLimits())
        expected = [looped.warm(schema) for schema in self._batch()]
        batched = SessionPool(limits=SessionLimits())
        assert batched.warm_many(self._batch()) == expected
        assert batched.stats()["counters"] == looped.stats()["counters"]
        assert sorted(batched.fingerprints()) == sorted(
            looped.fingerprints()
        )

    def test_empty_batch_is_a_no_op(self):
        pool = SessionPool(limits=SessionLimits())
        assert pool.warm_many([]) == []
        assert pool.stats()["counters"]["schemas_compiled"] == 0


class TestWarmSets:
    def test_store_bound_pool_records_compiled_schemas(self):
        store = ArtifactStore(MemoryKVStore())
        pool = SessionPool(limits=SessionLimits(), store=store)
        pool.warm(descriptions()[0])
        pool.warm(descriptions()[1])
        warm_set = load_warm_set(store)
        assert len(warm_set) == 2

    def test_warm_from_store_readmits_after_restart(self, tmp_path):
        store = open_directory(tmp_path / "cache")
        first = SessionPool(limits=SessionLimits(), store=store)
        for description in descriptions():
            first.warm(description)
        expected = sorted(first.fingerprints())
        store.close()

        reopened = open_directory(tmp_path / "cache")
        try:
            second = SessionPool(limits=SessionLimits(), store=reopened)
            assert second.fingerprints() == ()
            assert second.warm_from_store() == len(expected)
            assert sorted(second.fingerprints()) == expected
        finally:
            reopened.close()

    def test_recompiles_after_eviction_record_the_schema_once(self):
        # A churning pool compiles each schema once; every return
        # after an eviction recalls the remembered fingerprint instead
        # of recompiling, and writes no second warm-set entry.
        store = ArtifactStore(MemoryKVStore())
        pool = SessionPool(
            limits=SessionLimits(), store=store, max_fingerprints=1
        )
        first, second = descriptions()[:2]
        for __ in range(4):
            # Warming ``second`` evicts ``first``, and vice versa.
            fingerprints = {pool.warm(first), pool.warm(second)}
        counters = pool.stats()["counters"]
        assert counters["schemas_compiled"] == 2
        assert counters["fingerprints_recalled"] == 6
        assert store.stats()["tiers"]["bundle"]["writes"] == 2
        fresh = SessionPool(limits=SessionLimits(), store=store)
        assert fresh.warm_from_store() == 2
        assert set(fresh.fingerprints()) == fingerprints

    def test_damaged_warm_set_entries_are_skipped(self):
        store = ArtifactStore(MemoryKVStore())
        pool = SessionPool(limits=SessionLimits(), store=store)
        pool.warm(descriptions()[0])
        store.kv.put("warmset", "bogus", b"garbage")
        store.store("bundle", "warmset", "wrong-shape", ["not a schema"])
        fresh = SessionPool(limits=SessionLimits(), store=store)
        assert fresh.warm_from_store() == 1


class TestReadyFrameWarmError:
    def test_warm_error_round_trips_on_the_wire(self):
        frame = ReadyFrame(
            host="127.0.0.1",
            port=4242,
            pid=7,
            warmed=0,
            warm_error="warm manifest warm.json: expected a 'schemas' list",
        )
        wire = frame.to_dict()
        assert wire["ready"]["warm_error"].startswith("warm manifest")
        parsed = ReadyFrame.from_dict(wire)
        assert parsed.warm_error == frame.warm_error

    def test_absent_warm_error_stays_off_the_wire(self):
        wire = ReadyFrame(host="h", port=1, pid=2).to_dict()
        assert "warm_error" not in wire["ready"]
        assert ReadyFrame.from_dict(wire).warm_error is None
