"""Durable fingerprint-addressed decision cache tier.

Layers, bottom up:

* `repro.cache.kv` — the `KVStore` interface (namespaced byte blobs:
  ``get``/``put``/``scan``) with `MemoryKVStore`, the test fake, and a
  WAL-mode `SQLiteKVStore` safe under concurrent worker processes on
  one host.
* `repro.cache.codec` — stamped envelopes (format + library version +
  payload digest; any mismatch is a miss, never an error).
* `repro.cache.tier` — `ArtifactStore`, the counted facade
  (hit/miss/write/invalid per artifact tier) the serving layers bind.
* `repro.cache.bundle` — the store-resident warm set.

Everything here is advisory by construction: a decision is a pure
function of (schema fingerprint, canonical query, limits), so the worst
a broken store can do is force a recompute.
"""

from ..io import WarmupError
from .bundle import BUNDLE_KIND, load_warm_set, record_warm_schema
from .codec import FORMAT_VERSION, decode_envelope, encode_envelope
from .kv import CacheError, KVStore, MemoryKVStore, SQLiteKVStore
from .tier import STORE_FILENAME, ArtifactStore, open_directory

__all__ = [
    "ArtifactStore",
    "BUNDLE_KIND",
    "CacheError",
    "FORMAT_VERSION",
    "KVStore",
    "MemoryKVStore",
    "SQLiteKVStore",
    "STORE_FILENAME",
    "WarmupError",
    "decode_envelope",
    "encode_envelope",
    "load_warm_set",
    "open_directory",
    "record_warm_schema",
]
