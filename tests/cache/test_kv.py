"""KVStore contract tests: both backends honor one behavior.

Every test parametrized over ``backend`` runs identically against the
in-memory store and the SQLite store — the artifact tier must not be
able to observe which one it sits on.  SQLite-only tests cover the
durability and failure-contract properties a dict cannot have:
persistence across reopen, corrupt-file sidelining, and data-path
degradation (errors become misses, never exceptions).
"""

import sqlite3

import pytest

from repro.cache import (
    CacheError,
    MemoryKVStore,
    SQLiteKVStore,
    open_directory,
)


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, tmp_path):
    if request.param == "memory":
        store = MemoryKVStore()
    else:
        store = SQLiteKVStore(tmp_path / "kv.sqlite")
    yield store
    store.close()


class TestContract:
    def test_get_put_roundtrip(self, backend):
        assert backend.get("ns", "k") is None
        backend.put("ns", "k", b"value")
        assert backend.get("ns", "k") == b"value"
        backend.put("ns", "k", b"replaced")
        assert backend.get("ns", "k") == b"replaced"

    def test_namespaces_isolate_keys(self, backend):
        backend.put("a", "k", b"1")
        backend.put("b", "k", b"2")
        assert backend.get("a", "k") == b"1"
        assert backend.get("b", "k") == b"2"
        assert list(backend.scan("a")) == ["k"]

    def test_scan_lists_one_namespace(self, backend):
        for key in ("alpha", "alps", "beta"):
            backend.put("ns", key, b"x")
        backend.put("other", "gamma", b"x")
        assert sorted(backend.scan("ns")) == ["alpha", "alps", "beta"]
        assert list(backend.scan("empty")) == []


class TestSQLiteDurability:
    def test_values_survive_reopen(self, tmp_path):
        path = tmp_path / "kv.sqlite"
        first = SQLiteKVStore(path)
        first.put("ns", "k", b"persisted")
        first.close()
        second = SQLiteKVStore(path)
        try:
            assert second.get("ns", "k") == b"persisted"
        finally:
            second.close()

    def test_corrupt_file_is_sidelined_and_recreated(self, tmp_path):
        path = tmp_path / "kv.sqlite"
        path.write_bytes(b"this is not a sqlite database at all\x00\xff")
        store = SQLiteKVStore(path)
        try:
            # Fresh, usable, empty — the garbage was moved aside.
            assert store.get("ns", "k") is None
            store.put("ns", "k", b"fresh")
            assert store.get("ns", "k") == b"fresh"
        finally:
            store.close()
        sidelined = list(tmp_path.glob("kv.sqlite.corrupt-*"))
        assert len(sidelined) == 1
        assert sidelined[0].read_bytes().startswith(b"this is not")

    def test_a_locked_new_file_is_waited_for_not_sidelined(
        self, tmp_path, monkeypatch
    ):
        # A sibling process switching the new file to WAL makes `_open`
        # fail with "database is locked" (no busy wait); the store must
        # retry rather than sideline the sibling's file.
        path = tmp_path / "kv.sqlite"
        SQLiteKVStore(path).close()
        opened = SQLiteKVStore._open
        failures = iter([sqlite3.OperationalError("database is locked")] * 2)

        def contended(store):
            failure = next(failures, None)
            if failure is not None:
                raise failure
            return opened(store)

        monkeypatch.setattr(SQLiteKVStore, "_open", contended)
        store = SQLiteKVStore(path)
        try:
            store.put("ns", "k", b"v")
            assert store.get("ns", "k") == b"v"
            assert store.operational_errors == 0
        finally:
            store.close()
        assert not list(tmp_path.glob("kv.sqlite.corrupt-*"))

    def test_unusable_path_raises_typed_error(self, tmp_path):
        # The parent "directory" is a plain file: the store can neither
        # be opened nor sidelined — construction fails with the typed
        # error the CLI turns into "cache disabled, serving cold".
        blocker = tmp_path / "blocker"
        blocker.write_text("occupied")
        with pytest.raises(CacheError):
            SQLiteKVStore(blocker / "kv.sqlite")

    def test_uncreatable_cache_dir_raises_typed_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("occupied")
        with pytest.raises(CacheError, match="cannot create"):
            open_directory(blocker / "cache")

    def test_data_path_errors_degrade_to_misses(self, tmp_path):
        store = SQLiteKVStore(tmp_path / "kv.sqlite")
        store.put("ns", "k", b"x")
        # Sabotage the live connection: every later statement fails.
        store._conn.close()
        store._conn = sqlite3.connect(":memory:")  # no cache table
        assert store.get("ns", "k") is None
        store.put("ns", "k2", b"y")  # swallowed
        assert list(store.scan("ns")) == []
        assert store.operational_errors >= 3
        assert store.describe()["operational_errors"] >= 3
        store.close()

    def test_closed_store_is_inert(self, tmp_path):
        store = SQLiteKVStore(tmp_path / "kv.sqlite")
        store.close()
        assert store.get("ns", "k") is None
        store.put("ns", "k", b"x")
        assert list(store.scan("ns")) == []
        store.close()  # idempotent

    def test_cross_handle_visibility(self, tmp_path):
        # Two open handles on one file (the fleet's shape, in-process):
        # a write through one is immediately readable through the other.
        path = tmp_path / "kv.sqlite"
        writer = SQLiteKVStore(path)
        reader = SQLiteKVStore(path)
        try:
            writer.put("ns", "k", b"shared")
            assert reader.get("ns", "k") == b"shared"
        finally:
            writer.close()
            reader.close()
