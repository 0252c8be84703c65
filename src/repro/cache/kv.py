"""Key–value stores: the persistence substrate of the cache tier.

A `KVStore` is the minimal durable interface the artifact tier needs:
namespaced byte blobs, read by key (`get`), written by key (`put`),
and listed per namespace (`scan`).  Two backends ship:

* `MemoryKVStore` — a process-local dict, the test fake: it makes the
  tier's load-through/write-through paths exercisable without touching
  disk.
* `SQLiteKVStore` — a single-file store in WAL mode.  WAL gives
  multi-process safety on one host: writers take the file lock briefly
  per transaction while readers keep reading the last checkpointed
  state, which is exactly the fleet's shape (N worker processes sharing
  one warm store).  A `BUSY_TIMEOUT_S` busy timeout turns lock
  contention into short waits instead of errors.

**Failure contract.**  A durable cache must never take serving down
with it: after construction, the data-path methods (`get` / `put` /
`scan`) swallow backend errors — a failed read is a miss, a failed
write is dropped — counting them in ``operational_errors`` and logging
the first occurrence.  Construction itself raises the typed
`CacheError` only when the backing file is unusable *and* cannot be
sidelined; a corrupt existing file is renamed to ``<name>.corrupt-<ts>``
and recreated fresh (the entries were disposable by definition — every
one can be recomputed).
"""

from __future__ import annotations

import logging
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Iterator, Optional, Union

logger = logging.getLogger("repro.cache")

#: Seconds a statement waits on another process's write lock.
BUSY_TIMEOUT_S = 5.0


class CacheError(Exception):
    """Typed failure of the persistence layer (never a wrong answer:
    callers treat any cache failure as a miss and recompute)."""


class KVStore:
    """Abstract namespaced byte store.

    Keys live inside namespaces (the tier derives one namespace per
    fingerprint per artifact kind), values are opaque ``bytes``.
    Implementations must be thread-safe.
    """

    def get(self, namespace: str, key: str) -> Optional[bytes]:
        raise NotImplementedError

    def put(self, namespace: str, key: str, value: bytes) -> None:
        raise NotImplementedError

    def scan(self, namespace: str) -> Iterator[str]:
        """Yield the keys of a namespace."""
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def describe(self) -> dict:
        return {"backend": type(self).__name__}


class MemoryKVStore(KVStore):
    """In-process backend: a dict of dicts."""

    def __init__(self) -> None:
        self._data: dict[str, dict[str, bytes]] = {}
        self._lock = threading.Lock()

    def get(self, namespace: str, key: str) -> Optional[bytes]:
        with self._lock:
            return self._data.get(namespace, {}).get(key)

    def put(self, namespace: str, key: str, value: bytes) -> None:
        with self._lock:
            self._data.setdefault(namespace, {})[key] = bytes(value)

    def scan(self, namespace: str) -> Iterator[str]:
        with self._lock:
            keys = list(self._data.get(namespace, {}))
        yield from keys


class SQLiteKVStore(KVStore):
    """Single-file SQLite backend (WAL mode) safe under concurrent
    worker processes on one host.

    One connection guarded by a lock serves the whole process (every
    operation is a single short statement; cross-thread contention is
    negligible next to the decisions being cached).  Cross-*process*
    concurrency is SQLite's own WAL locking.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.RLock()
        self._conn: Optional[sqlite3.Connection] = None
        self.operational_errors = 0
        self._error_logged = False
        try:
            self._conn = self._open_when_unlocked()
        except (sqlite3.Error, OSError):
            # A corrupt or non-database file: sideline it and start
            # fresh — cache entries are recomputable by construction,
            # so losing them is a cold start, not data loss.
            sidelined = self._sideline()
            try:
                self._conn = self._open()
            except (sqlite3.Error, OSError) as error:
                raise CacheError(
                    f"cannot open cache store at {self.path}: {error}"
                ) from error
            if sidelined is not None:
                logger.warning(
                    "corrupt cache store sidelined to %s; starting cold",
                    sidelined,
                )

    def _open_when_unlocked(self) -> sqlite3.Connection:
        """`_open`, retried for up to `BUSY_TIMEOUT_S` while another
        process holds the lock.  Workers that open one new file at once
        race to switch it to WAL, and the loser gets "database is
        locked" at once, without the busy timeout; taking that for
        corruption sidelined the winner's file under it."""
        deadline = time.monotonic() + BUSY_TIMEOUT_S
        while True:
            try:
                return self._open()
            except sqlite3.OperationalError as error:
                if "locked" not in str(error) or time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def _open(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(
            str(self.path),
            timeout=BUSY_TIMEOUT_S,
            check_same_thread=False,
            isolation_level=None,  # autocommit: one statement, one txn
        )
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                f"PRAGMA busy_timeout={int(BUSY_TIMEOUT_S * 1000)}"
            )
            # Files written by earlier builds carry one more, nullable
            # column; every statement here names its columns, so those
            # files keep working unchanged.
            conn.execute(
                "CREATE TABLE IF NOT EXISTS cache ("
                "  namespace TEXT NOT NULL,"
                "  key TEXT NOT NULL,"
                "  value BLOB NOT NULL,"
                "  PRIMARY KEY (namespace, key)"
                ")"
            )
            # Surface latent page corruption now (cheap on a fresh or
            # small file) instead of mid-request.
            conn.execute("SELECT COUNT(*) FROM cache").fetchone()
        except sqlite3.Error:
            conn.close()
            raise
        return conn

    def _sideline(self) -> Optional[Path]:
        if not self.path.exists():
            return None
        target = self.path.with_name(
            f"{self.path.name}.corrupt-{int(time.time() * 1000)}"
        )
        try:
            os.replace(self.path, target)
        except OSError:
            try:
                self.path.unlink()
            except OSError:
                return None
            return self.path
        # WAL sidecars belong to the sidelined file; drop them so the
        # fresh database does not try to replay a foreign journal.
        for suffix in ("-wal", "-shm"):
            try:
                Path(str(self.path) + suffix).unlink()
            except OSError:
                pass
        return target

    def _guard(self, operation: str, error: Exception) -> None:
        """Count-and-log once: data-path failures degrade, never raise."""
        self.operational_errors += 1
        if not self._error_logged:
            self._error_logged = True
            logger.warning(
                "cache store %s failed on %s (%s); degrading to misses",
                self.path,
                operation,
                error,
            )

    def get(self, namespace: str, key: str) -> Optional[bytes]:
        with self._lock:
            if self._conn is None:
                return None
            try:
                row = self._conn.execute(
                    "SELECT value FROM cache WHERE namespace = ? AND key = ?",
                    (namespace, key),
                ).fetchone()
            except sqlite3.Error as error:
                self._guard("get", error)
                return None
        return None if row is None else bytes(row[0])

    def put(self, namespace: str, key: str, value: bytes) -> None:
        with self._lock:
            if self._conn is None:
                return
            try:
                self._conn.execute(
                    "INSERT OR REPLACE INTO cache (namespace, key, value) "
                    "VALUES (?, ?, ?)",
                    (namespace, key, sqlite3.Binary(value)),
                )
            except sqlite3.Error as error:
                self._guard("put", error)

    def scan(self, namespace: str) -> Iterator[str]:
        with self._lock:
            if self._conn is None:
                return
            try:
                rows = self._conn.execute(
                    "SELECT key FROM cache WHERE namespace = ? ORDER BY key",
                    (namespace,),
                ).fetchall()
            except sqlite3.Error as error:
                self._guard("scan", error)
                return
        for (key,) in rows:
            yield key

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
                self._conn = None

    def describe(self) -> dict:
        return {
            "backend": "SQLiteKVStore",
            "path": str(self.path),
            "operational_errors": self.operational_errors,
        }
