"""`ArtifactStore`: the counted facade the serving layers talk to.

One `ArtifactStore` wraps one `KVStore` and exposes typed load/store
of enveloped payloads, tracking per-*tier* counters (a tier is an
artifact kind: ``"decision"`` for decisions and plans, ``"bundle"`` for
the warm set):

* ``hits`` — blob present and its envelope decoded cleanly;
* ``misses`` — no blob under the key;
* ``invalid`` — blob present but rejected (format/library-version
  mismatch, digest failure, garbage) — behaviourally a miss, counted
  apart because a high rate means a stale or damaged store;
* ``writes`` — envelopes persisted.

The facade inherits the kv layer's failure contract: no data-path
operation raises.  Additionally `store()` skips a payload that
``json.dumps`` cannot encode — an artifact that cannot be persisted is
simply not persisted.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Optional, Union

from .codec import decode_envelope, encode_envelope
from .kv import CacheError, KVStore, SQLiteKVStore

#: File name of the single-node store inside a ``--cache-dir``.
STORE_FILENAME = "repro-cache.sqlite"

_COUNTER_KEYS = ("hits", "misses", "writes", "invalid")


class ArtifactStore:
    """Fingerprint-addressed artifact persistence over a `KVStore`."""

    def __init__(self, kv: KVStore) -> None:
        self.kv = kv
        self._lock = threading.Lock()
        self._counters: dict[str, dict[str, int]] = {}

    def _bump(self, tier: str, counter: str) -> None:
        with self._lock:
            tiers = self._counters.setdefault(
                tier, dict.fromkeys(_COUNTER_KEYS, 0)
            )
            tiers[counter] += 1

    def load(self, tier: str, namespace: str, key: str) -> Optional[Any]:
        """Load and unwrap one artifact; ``None`` on miss or invalid."""
        blob = self.kv.get(namespace, key)
        if blob is None:
            self._bump(tier, "misses")
            return None
        payload = decode_envelope(blob, tier)
        if payload is None:
            self._bump(tier, "invalid")
            return None
        self._bump(tier, "hits")
        return payload

    def store(self, tier: str, namespace: str, key: str, payload: Any) -> bool:
        """Persist one artifact; returns False when it was skipped."""
        try:
            blob = encode_envelope(tier, payload)
        except (TypeError, ValueError):
            # A payload json.dumps cannot serialize, or a circular
            # reference: skip persisting, never raise.
            return False
        self.kv.put(namespace, key, blob)
        self._bump(tier, "writes")
        return True

    def stats(self) -> dict:
        with self._lock:
            tiers = {
                tier: dict(counters)
                for tier, counters in sorted(self._counters.items())
            }
        return {"backend": self.kv.describe(), "tiers": tiers}

    def close(self) -> None:
        self.kv.close()


def open_directory(cache_dir: Union[str, Path]) -> ArtifactStore:
    """Open (creating if needed) the single-node store for a directory.

    Raises `repro.cache.CacheError` when the directory's store file is
    unusable and cannot be sidelined; callers on the serving path catch
    that, warn, and proceed without persistence.
    """
    directory = Path(cache_dir)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise CacheError(
            f"cannot create cache directory {directory}: {error}"
        ) from error
    return ArtifactStore(SQLiteKVStore(directory / STORE_FILENAME))
