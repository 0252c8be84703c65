"""Cooperative execution budgets: deadlines and cancellation.

The decision core (chase rounds, rewrite expansions, match-plan
execution) is CPU-bound Python running on worker threads — nothing can
preempt it.  Interruptibility is therefore *cooperative*: a `Budget`
travels with a request from the transport (`DecideRequest.deadline_ms`)
through `Session.decide` into every loop that can run long, and those
loops poll it:

* the chase checks at every round boundary (alongside ``max_rounds`` /
  ``max_facts``);
* the rewrite engine checks per expansion step;
* the matcher ticks per backtrack batch (amortized: a counter strides
  over `TICK_STRIDE` candidate facts between clock reads, so the hot
  search loop pays one integer decrement per fact).

An exhausted budget raises `DeadlineExceeded` out of the computation.
Because the exception propagates *before* any memo-table write (plan
cache, frontier memo, decision LRU — all write their entries only after
a complete result exists), a cancelled computation can never poison a
cache with a partial artifact; the request merely fails with a typed,
retryable error.

`Overloaded` is the companion error for admission-control rejections
(per-client quotas, a saturated global gate): the work was never
started, so retrying after ``retry_after_ms`` is always safe.

A serve loop that decides a miss itself does so inside `loop_slice`:
there `forbid_build` raises `DeadlineExceeded` (reason ``loop-slice``)
instead of letting a compiled-schema artifact be built, so compile work
is handed to a decision thread like an overrun slice.

Both errors carry ``retryable`` / ``retry_after_ms`` attributes that
`repro.io.ErrorFrame.from_exception` lifts onto the wire, giving
clients a machine-readable retry contract.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

#: Candidate facts examined between two clock reads in `Budget.tick`.
TICK_STRIDE = 256

#: Per-thread state: ``on_slice`` is true inside `loop_slice`.
_thread = threading.local()


class DeadlineExceeded(RuntimeError):
    """A computation ran past its budget (deadline or cancellation).

    Retryable by contract: the request may simply have landed on an
    overloaded worker or carried too tight a deadline — retrying with
    backoff (or a looser deadline) can succeed.  No partial result was
    cached (see the module docstring), so a retry recomputes honestly.
    """

    retryable = True
    retry_after_ms: Optional[float] = None

    def __init__(
        self,
        message: str = "deadline exceeded",
        *,
        deadline_ms: Optional[float] = None,
        elapsed_ms: Optional[float] = None,
        reason: str = "deadline",
    ) -> None:
        super().__init__(message)
        self.deadline_ms = deadline_ms
        self.elapsed_ms = elapsed_ms
        self.reason = reason

    def as_detail(self) -> dict:
        """The structured wire form (mirrors `RewritingBudgetExceeded`)."""
        detail: dict = {"type": "DeadlineExceeded", "reason": self.reason}
        if self.deadline_ms is not None:
            detail["deadline_ms"] = self.deadline_ms
        if self.elapsed_ms is not None:
            detail["elapsed_ms"] = round(self.elapsed_ms, 3)
        return detail


class Overloaded(RuntimeError):
    """A request was shed before any work started (quota or saturation).

    Always retryable; ``retry_after_ms`` hints when capacity should
    free (clients should add jitter — see README "Operations").
    """

    retryable = True

    def __init__(
        self,
        message: str = "server overloaded",
        *,
        retry_after_ms: Optional[float] = None,
        scope: str = "server",
    ) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms
        self.scope = scope


class WorkerLost(RuntimeError):
    """A fleet worker died (or its connection dropped) with the request
    in flight.

    Retryable by contract: the dispatcher has already removed the
    worker from its ring, so a retry routes to the shard's new owner
    (or to the restarted worker once it rejoins).  The answer that was
    being computed is simply lost — never replaced with a guess — which
    preserves the fault invariant: a correct decision or a typed
    retryable error, nothing in between.
    """

    retryable = True

    def __init__(
        self,
        message: str = "worker lost with request in flight",
        *,
        worker: str = "",
        retry_after_ms: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.worker = worker
        self.retry_after_ms = retry_after_ms


class Budget:
    """A deadline plus a cancellation flag, polled cooperatively.

    ::

        budget = Budget(deadline_ms=250)
        ...
        budget.check()          # raises DeadlineExceeded when exhausted
        budget.tick()           # amortized check (hot loops)
        budget.cancel("drain")  # flip from another thread

    ``cancel`` is safe from any thread (a single attribute write); the
    polling side reads it without a lock.  A ``deadline_ms`` of None
    means no deadline — the budget is then only sensitive to `cancel`,
    which is how graceful drain interrupts unbounded requests.
    """

    __slots__ = (
        "deadline_ms",
        "_clock",
        "_started",
        "_deadline",
        "_cancelled",
        "_cancel_reason",
        "_countdown",
    )

    def __init__(
        self,
        deadline_ms: Optional[float] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be positive, got {deadline_ms}"
            )
        self.deadline_ms = deadline_ms
        self._clock = clock
        self._started = clock()
        self._deadline = (
            None if deadline_ms is None else self._started + deadline_ms / 1000.0
        )
        self._cancelled = False
        self._cancel_reason = ""
        self._countdown = TICK_STRIDE

    # -- state ---------------------------------------------------------
    def cancel(self, reason: str = "cancelled") -> None:
        """Request cooperative cancellation (thread-safe, idempotent)."""
        self._cancel_reason = reason
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def expired(self) -> bool:
        """True iff the deadline (if any) has passed."""
        return self._deadline is not None and self._clock() > self._deadline

    def exhausted(self) -> bool:
        """Cancelled or past deadline — without raising."""
        return self._cancelled or self.expired()

    def elapsed_ms(self) -> float:
        return (self._clock() - self._started) * 1000.0

    def remaining_ms(self) -> Optional[float]:
        """Milliseconds until the deadline (None when unbounded);
        clamped at 0 once expired."""
        if self._deadline is None:
            return None
        return max(0.0, (self._deadline - self._clock()) * 1000.0)

    # -- polling -------------------------------------------------------
    def check(self) -> None:
        """Raise `DeadlineExceeded` iff the budget is exhausted."""
        if self._cancelled:
            raise DeadlineExceeded(
                f"request cancelled ({self._cancel_reason})",
                deadline_ms=self.deadline_ms,
                elapsed_ms=self.elapsed_ms(),
                reason=self._cancel_reason or "cancelled",
            )
        if self.expired():
            raise DeadlineExceeded(
                f"deadline of {self.deadline_ms}ms exceeded after "
                f"{self.elapsed_ms():.1f}ms",
                deadline_ms=self.deadline_ms,
                elapsed_ms=self.elapsed_ms(),
                reason="deadline",
            )

    def tick(self) -> None:
        """Amortized `check`: a real clock read every `TICK_STRIDE`
        calls (cancellation is still noticed immediately — it is a flag
        read, not a clock read)."""
        if self._cancelled:
            self.check()
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = TICK_STRIDE
            self.check()

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else (
            "expired" if self.expired() else "live"
        )
        return f"Budget(deadline_ms={self.deadline_ms}, {state})"


@contextmanager
def loop_slice() -> Iterator[None]:
    """Mark this thread as deciding on a serve loop's slice: inside,
    `forbid_build` raises rather than let an artifact be built."""
    _thread.on_slice = True
    try:
        yield
    finally:
        _thread.on_slice = False


def forbid_build(what: str) -> None:
    """Raise `DeadlineExceeded` (reason ``loop-slice``) inside
    `loop_slice`, before ``what`` would be built: the caller hands the
    computation to a thread, which builds it.  Free elsewhere."""
    if getattr(_thread, "on_slice", False):
        raise DeadlineExceeded(
            f"{what} is built off the serve loop", reason="loop-slice"
        )
