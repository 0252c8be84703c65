"""Structured JSON request logs: one line per request, to stderr.

Enabled by ``--log-format json`` on ``serve``/``fleet``
(the flag is forwarded to fleet workers).  Each record is a single
JSON object per line — machine-parseable, append-only, no buffering
surprises (every record is flushed).  Field glossary lives in the
README "Operations" section; the stable core:

``ts``           ISO-8601 UTC wall time of completion
``event``        ``"request"`` (room for future event kinds)
``peer``         client address (``host:port`` or transport tag)
``op``           wire op (decide/plan/stats/ping/metrics)
``id``           request correlation id (when the client sent one)
``fingerprint``  schema fingerprint the request resolved to
``outcome``      ``"ok"`` or ``"error"``
``error_type``   ErrorFrame type on errors (absent on ok)
``retryable``    retry hint on errors (absent on ok)
``retry_after_ms``  backoff hint when the server supplied one
``elapsed_ms``   wall time from frame receipt to response write
``stages_ms``    exclusive per-stage split (see `repro.obs.timing`)
"""

from __future__ import annotations

import datetime as _datetime
import io
import json
import sys
import threading
from typing import Any, Optional, TextIO

__all__ = ["RequestLogger", "request_logger_from_format"]


class RequestLogger:
    """Thread-safe JSON-lines emitter for per-request records."""

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        clock: Optional[Any] = None,
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._lock = threading.Lock()
        self.records_written = 0
        self.records_dropped = 0

    def _now(self) -> str:
        if self._clock is not None:
            stamp = _datetime.datetime.fromtimestamp(
                self._clock(), tz=_datetime.timezone.utc
            )
        else:
            stamp = _datetime.datetime.now(tz=_datetime.timezone.utc)
        return stamp.isoformat(timespec="milliseconds").replace(
            "+00:00", "Z"
        )

    def log(self, event: str = "request", **fields: Any) -> None:
        """Emit one record; ``None``-valued fields are omitted.

        Never raises: a closed/broken stream or an unserializable
        field drops the record (counted) rather than failing the
        request it describes.
        """
        record: dict[str, Any] = {"ts": self._now(), "event": event}
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        try:
            line = json.dumps(record, default=str, sort_keys=False)
            with self._lock:
                self._stream.write(line + "\n")
                self._stream.flush()
            self.records_written += 1
        except (OSError, ValueError, io.UnsupportedOperation):
            self.records_dropped += 1

    def stats(self) -> dict:
        return {
            "records_written": self.records_written,
            "records_dropped": self.records_dropped,
        }


def request_logger_from_format(
    log_format: Optional[str], stream: Optional[TextIO] = None
) -> Optional[RequestLogger]:
    """CLI glue: ``"json"`` → a logger, ``None``/``"text"`` → None."""
    if log_format == "json":
        return RequestLogger(stream=stream)
    if log_format in (None, "text"):
        return None
    raise ValueError(f"unknown log format: {log_format!r}")
