"""Store-resident warm sets.

The warm set lives *inside* an artifact store (tier ``"bundle"``,
namespace ``"warmset"``, one entry per schema fingerprint): a pool
bound to a store records every schema it compiles, and a restarted
process re-warms from that set without any manifest at all.  The
``--warm`` manifest file is a separate, plain-JSON source loaded by
`repro.io.load_warm_manifest`.
"""

from __future__ import annotations

from typing import Any

from ..io import SchemaFormatError, schema_from_dict
from .tier import ArtifactStore

#: Envelope kind / artifact tier of warm-set entries.
BUNDLE_KIND = "bundle"

#: Store namespace holding the warm set (one entry per fingerprint).
WARMSET_NAMESPACE = "warmset"


def record_warm_schema(
    store: ArtifactStore, fingerprint: str, description: dict[str, Any]
) -> None:
    """Record one compiled schema in the store's warm set."""
    store.store(BUNDLE_KIND, WARMSET_NAMESPACE, fingerprint, description)


def load_warm_set(store: ArtifactStore) -> list[dict[str, Any]]:
    """All valid schema descriptions in the store's warm set.

    Invalid or stale entries are skipped (counted by the store as
    ``invalid``) — re-warming is an optimization, never a gate.
    """
    descriptions = []
    for key in store.kv.scan(WARMSET_NAMESPACE):
        payload = store.load(BUNDLE_KIND, WARMSET_NAMESPACE, key)
        if not isinstance(payload, dict):
            continue
        try:
            schema_from_dict(payload)
        except SchemaFormatError:
            continue
        descriptions.append(payload)
    return descriptions
