"""Codec tests: envelopes are strict-in, total-out.

The envelope contract is the whole invalidation story of the
persistence tier: *any* deviation — format version bump, different
library version, wrong artifact kind, digest mismatch, truncation,
garbage — decodes to ``None`` (a miss) and never raises.  The
`ArtifactStore` facade layered on top turns those outcomes into the
``hits``/``misses``/``invalid``/``writes`` counters serving exposes.
"""

import json

import pytest

import repro
import repro.cache.codec as codec
from repro.cache import (
    ArtifactStore,
    MemoryKVStore,
    decode_envelope,
    encode_envelope,
)


class TestEnvelope:
    def test_roundtrip(self):
        payload = {"decision": "yes", "detail": {"disjuncts": 3}}
        blob = encode_envelope("decision", payload)
        assert decode_envelope(blob, "decision") == payload

    def test_kind_mismatch_is_a_miss(self):
        blob = encode_envelope("decision", {"x": 1})
        assert decode_envelope(blob, "bundle") is None

    def test_format_version_mismatch_is_a_miss(self):
        envelope = json.loads(encode_envelope("decision", {"x": 1}))
        envelope["v"] = codec.FORMAT_VERSION + 1
        assert decode_envelope(
            json.dumps(envelope).encode(), "decision"
        ) is None

    def test_library_version_mismatch_is_a_miss(self):
        envelope = json.loads(encode_envelope("decision", {"x": 1}))
        envelope["lib"] = "0.0.0-somebody-else"
        assert decode_envelope(
            json.dumps(envelope).encode(), "decision"
        ) is None

    def test_current_library_version_is_stamped(self):
        envelope = json.loads(encode_envelope("decision", {"x": 1}))
        assert envelope["lib"] == repro.__version__

    def test_digest_catches_payload_tampering(self):
        envelope = json.loads(encode_envelope("decision", {"x": 1}))
        envelope["payload"] = json.dumps({"x": 2})
        assert decode_envelope(
            json.dumps(envelope).encode(), "decision"
        ) is None

    @pytest.mark.parametrize(
        "blob",
        [
            None,
            b"",
            b"\xff\xfe garbage",
            b"not json at all",
            b"[1, 2, 3]",  # JSON but not an envelope object
            b'{"v": 1}',  # missing fields
            encode_envelope("decision", {"x": 1})[:-7],  # truncated
        ],
    )
    def test_damage_is_a_miss_never_an_error(self, blob):
        assert decode_envelope(blob, "decision") is None


class TestArtifactStoreCounters:
    def test_hit_miss_invalid_write_accounting(self):
        store = ArtifactStore(MemoryKVStore())
        assert store.load("decision", "ns", "k") is None  # miss
        assert store.store("decision", "ns", "k", {"x": 1}) is True
        assert store.load("decision", "ns", "k") == {"x": 1}  # hit
        store.kv.put("ns", "bad", b"garbage")
        assert store.load("decision", "ns", "bad") is None  # invalid
        # Wrong tier on a valid blob is also invalid, not a crash.
        assert store.load("bundle", "ns", "k") is None
        tiers = store.stats()["tiers"]
        assert tiers["decision"] == {
            "hits": 1, "misses": 1, "writes": 1, "invalid": 1,
        }
        assert tiers["bundle"]["invalid"] == 1

    def test_unencodable_payload_is_skipped_not_raised(self):
        store = ArtifactStore(MemoryKVStore())
        assert store.store("bundle", "ns", "k", {"x": {1, 2}}) is False
        assert store.load("bundle", "ns", "k") is None
        assert store.stats()["tiers"]["bundle"]["writes"] == 0
