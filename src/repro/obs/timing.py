"""Per-request stage timing: parse/queue/compile/rewrite/chase/match/persist.

A `StageTimer` accumulates *exclusive* self-time per named stage: the
instrumented choke points (`Session.lookup`'s query parse, fit check
and canonical key → ``parse``, `SessionPool._build` → ``compile``,
`RewriteEngine.rewrite` → ``rewrite``, the chase entry → ``chase``,
the containment deciders → ``match``, the durable tier → ``persist``)
wrap themselves in ``stage("name")``; entering a nested stage pauses
the enclosing one, so the stage totals sum to at most the wall time
and double-counting is structurally impossible (a containment check
that runs an inner chase attributes the chase rounds to ``chase`` and
only the decision shell to ``match``).

The active timer rides a thread-local.  Transports `activate` one
around each piece of the request body (the TCP server: the lookup,
and a miss decided within the loop slice, on its event loop, the rest
on a decision thread); with no active timer,
``stage(...)`` is a two-attribute-lookup no-op, which is what keeps
always-on instrumentation inside the latency budget — instrumented
library code pays nothing unless a transport asked for timings.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

__all__ = [
    "StageTimer",
    "stage",
    "activate",
    "deactivate",
    "current_timer",
    "STAGES",
]

#: The stage-timing glossary (README "Operations" documents each).
STAGES = (
    "parse", "queue", "compile", "rewrite", "chase", "match", "persist"
)

_active = threading.local()


class StageTimer:
    """Exclusive per-stage elapsed-time accumulator (one request)."""

    __slots__ = ("_clock", "_stack", "_mark", "stages")

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self._clock = clock
        self._stack: list[str] = []
        self._mark: Optional[float] = None
        self.stages: dict[str, float] = {}

    def push(self, name: str) -> None:
        now = self._clock()
        if self._stack:
            top = self._stack[-1]
            self.stages[top] = (
                self.stages.get(top, 0.0) + now - self._mark
            )
        self._stack.append(name)
        self._mark = now

    def pop(self) -> None:
        now = self._clock()
        name = self._stack.pop()
        self.stages[name] = self.stages.get(name, 0.0) + now - self._mark
        self._mark = now if self._stack else None

    def add(self, name: str, seconds: float) -> None:
        """Credit externally measured time (e.g. executor queue wait)."""
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def as_millis(self) -> dict[str, float]:
        """Stage totals in milliseconds, rounded, insertion-ordered by
        the canonical `STAGES` order (unknown stages trail, sorted)."""
        out: dict[str, float] = {}
        for name in STAGES:
            if name in self.stages:
                out[name] = round(self.stages[name] * 1000.0, 3)
        for name in sorted(self.stages):
            if name not in out:
                out[name] = round(self.stages[name] * 1000.0, 3)
        return out


def activate(timer: Optional[StageTimer]) -> Optional[StageTimer]:
    """Install ``timer`` as this thread's active timer; returns the
    previous one for `deactivate` to restore."""
    previous = getattr(_active, "timer", None)
    _active.timer = timer
    return previous


def deactivate(previous: Optional[StageTimer] = None) -> None:
    _active.timer = previous


def current_timer() -> Optional[StageTimer]:
    return getattr(_active, "timer", None)


class stage:
    """``with stage("chase"):`` — a no-op unless a timer is active."""

    __slots__ = ("name", "_timer")

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> "stage":
        self._timer = getattr(_active, "timer", None)
        if self._timer is not None:
            self._timer.push(self.name)
        return self

    def __exit__(self, *exc: object) -> bool:
        if self._timer is not None:
            self._timer.pop()
        return False
