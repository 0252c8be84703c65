"""Durable fingerprint-addressed artifact & decision cache tier.

Layers, bottom up:

* `repro.cache.kv` — pluggable `KVStore` (namespaced byte blobs, TTL)
  with `MemoryKVStore` and a WAL-mode `SQLiteKVStore` safe under
  concurrent worker processes on one host.
* `repro.cache.codec` — stamped envelopes (format + library version +
  payload digest; any mismatch is a miss, never an error).
* `repro.cache.tier` — `ArtifactStore`, the counted facade
  (hit/miss/write/invalid per artifact tier) the serving layers bind.
* `repro.cache.bundle` — precompiled-schema bundles, the shared
  warm-source loader (`load_warm_source`, typed `WarmupError`), and
  store-resident warm sets.

Everything here is advisory by construction: a decision is a pure
function of (schema fingerprint, canonical query, limits), so the worst
a broken store can do is force a recompute.
"""

from .bundle import (
    BUNDLE_KIND,
    WarmupError,
    load_bundle,
    load_warm_set,
    load_warm_source,
    record_warm_schema,
    write_bundle,
)
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
    "load_bundle",
    "load_warm_set",
    "load_warm_source",
    "open_directory",
    "record_warm_schema",
    "write_bundle",
]
