"""Versioned, fingerprint-addressed serialization for cached artifacts.

Every persisted value travels inside an *envelope*::

    {"v": FORMAT_VERSION, "lib": "<repro.__version__>",
     "kind": "<artifact kind>", "sha": "<payload digest>",
     "payload": ...}

Decoding is strict and total: any structural problem — wrong format
version, different library version, kind mismatch, digest mismatch,
truncated bytes, non-JSON garbage — returns ``None`` (a *miss*), never
raises.  The library-version stamp is compared for exact equality: a
new release invalidates every persisted artifact wholesale, which is
the only invalidation rule that needs no knowledge of what changed
between releases.  The payload digest catches torn writes that still
parse as JSON.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Optional

#: Bump on any change to the envelope layout or a payload wire form,
#: or when stored answers can be wrong (2: the ID route no longer
#: unifies two existential head variables, so older YES rows are void).
FORMAT_VERSION = 2


def _library_version() -> str:
    from .. import __version__

    return __version__


def _digest(payload_json: str) -> str:
    return hashlib.sha256(payload_json.encode("utf-8")).hexdigest()[:16]


def encode_envelope(kind: str, payload: Any) -> bytes:
    """Wrap `payload` (JSON-serializable) in a stamped envelope."""
    payload_json = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    )
    envelope = {
        "v": FORMAT_VERSION,
        "lib": _library_version(),
        "kind": kind,
        "sha": _digest(payload_json),
        "payload": payload_json,
    }
    return json.dumps(envelope, separators=(",", ":")).encode("utf-8")


def decode_envelope(blob: Optional[bytes], kind: str) -> Optional[Any]:
    """Unwrap an envelope; any mismatch or corruption is ``None``."""
    if blob is None:
        return None
    try:
        envelope = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(envelope, dict):
        return None
    if envelope.get("v") != FORMAT_VERSION:
        return None
    if envelope.get("lib") != _library_version():
        return None
    if envelope.get("kind") != kind:
        return None
    payload_json = envelope.get("payload")
    if not isinstance(payload_json, str):
        return None
    if envelope.get("sha") != _digest(payload_json):
        return None
    try:
        return json.loads(payload_json)
    except json.JSONDecodeError:
        return None
