"""A crash-tolerant supervisor for serve workers.

The process-management half of the fleet (`repro.server.fleet` is the
routing half): one `Supervisor` owns one worker (the serve loop in a
child process), watches its liveness and — optionally — its health
over the wire (``op: ping``), and restarts it when it dies:

* **jittered exponential backoff** between restarts
  (`BackoffPolicy`): crash n waits ``min(cap, base * 2^(n-1))``
  seconds, scaled by a uniform ±jitter factor so a fleet of
  supervisors never thunders back in lockstep;
* **crash-loop breaker** (`BreakerPolicy`): more than ``max_crashes``
  crashes inside a sliding ``window_s`` trips the breaker —
  `Supervisor.run` raises `CrashLoopError` instead of burning CPU on a
  worker that can never come up (a bad schema, a bound port);
* **health-check watchdog**: a failing health probe (``health_failures``
  consecutive misses) is treated exactly like a crash — the worker is
  terminated and restarted under the same backoff/breaker accounting.

Everything time- and process-shaped is injectable (``spawn``,
``health_check``, ``clock``, ``sleep``, ``rng``), so the restart and
breaker logic is tested deterministically with fake workers and a fake
clock; the real path (`serve_spawn` / `WorkerSpec.spawn`) runs
``python -m repro serve ...`` in a subprocess, which inherits the
CLI's SIGTERM graceful drain.

**Readiness discovery.**  The serve CLI emits a machine-parsable
`repro.io.ReadyFrame` JSON line on stdout once its socket is bound
(and any ``--warm`` manifest is compiled).  `WorkerHandle` — the
subprocess handle `serve_spawn` returns — skims the child's stdout for
that line, so a worker started on ``--port 0`` exposes its *actual*
ephemeral port via ``handle.wait_ready()`` / ``handle.address``: no
log scraping, no port races.  The health watchdog and the fleet
dispatcher both key off the discovered address.

**WorkerSpec.**  The spawn/health/backoff configuration of one worker
lives in a `WorkerSpec`; ``python -m repro fleet`` builds one per
worker.  ``spec.supervisor()`` wires the spawn callable, the
address-following health probe, and the restart policies together.

::

    spec = WorkerSpec(schema="schema.json", port=0)
    supervisor = spec.supervisor()
    supervisor.run()        # blocks; Ctrl-C/stop() to leave
"""

from __future__ import annotations

import random
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..io import ReadyFrame

__all__ = [
    "BackoffPolicy",
    "BreakerPolicy",
    "CrashLoopError",
    "Supervisor",
    "WorkerHandle",
    "WorkerSpec",
    "serve_spawn",
    "tcp_ping",
]


@dataclass(frozen=True)
class BackoffPolicy:
    """Jittered exponential restart backoff."""

    base_s: float = 0.1
    cap_s: float = 5.0
    #: Fractional uniform jitter: delay is scaled by 1 ± jitter.
    jitter: float = 0.25

    def delay(self, consecutive_crashes: int, rng: random.Random) -> float:
        raw = min(
            self.cap_s,
            self.base_s * (2 ** max(0, consecutive_crashes - 1)),
        )
        if self.jitter <= 0:
            return raw
        return raw * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


@dataclass(frozen=True)
class BreakerPolicy:
    """The crash-loop breaker: give up past ``max_crashes`` crashes
    within a sliding ``window_s``-second window."""

    max_crashes: int = 5
    window_s: float = 30.0


class CrashLoopError(RuntimeError):
    """The worker crashed too often; the supervisor refuses to restart."""


def tcp_ping(host: str, port: int, timeout: float = 1.0) -> bool:
    """One ``op: ping`` round trip against a serving worker."""
    try:
        with socket.create_connection((host, port), timeout=timeout) as conn:
            conn.settimeout(timeout)
            conn.sendall(b'{"op": "ping"}\n')
            data = b""
            while not data.endswith(b"\n"):
                chunk = conn.recv(4096)
                if not chunk:
                    return False
                data += chunk
        return b'"pong"' in data
    except OSError:
        return False


class WorkerHandle:
    """A subprocess serve worker with the ``multiprocessing.Process``
    surface the supervisor polls (``is_alive``/``exitcode``/
    ``terminate``/``kill``/``join``) plus readiness discovery.

    A daemon thread pumps the child's stdout looking for its
    `ReadyFrame` handshake line; `wait_ready` blocks until the frame
    arrives (returning it) or the child exits or the timeout passes
    (returning None).  After readiness, `address` is the worker's
    *bound* host/port — the ephemeral-port truth, not the requested
    one.  Everything else the child writes to stdout is discarded;
    stderr passes through untouched.
    """

    def __init__(self, process: subprocess.Popen) -> None:
        self._process = process
        self._ready: Optional[ReadyFrame] = None
        self._ready_event = threading.Event()
        self._pump_thread = threading.Thread(
            target=self._pump, name="worker-stdout", daemon=True
        )
        self._pump_thread.start()

    def _pump(self) -> None:
        stdout = self._process.stdout
        if stdout is None:  # pragma: no cover - spawn always pipes
            self._ready_event.set()
            return
        try:
            for line in stdout:
                if self._ready is None:
                    frame = ReadyFrame.from_line(line)
                    if frame is not None:
                        self._ready = frame
                        self._ready_event.set()
        except (OSError, ValueError):
            pass
        finally:
            # EOF (the child exited): unblock waiters either way.
            self._ready_event.set()

    # -- readiness -----------------------------------------------------
    def wait_ready(self, timeout: Optional[float] = None) -> Optional[ReadyFrame]:
        """Block until the readiness handshake (the frame), the child's
        exit, or the timeout (None)."""
        self._ready_event.wait(timeout)
        return self._ready

    @property
    def ready(self) -> Optional[ReadyFrame]:
        return self._ready

    @property
    def address(self) -> Optional[tuple[str, int]]:
        """The bound (host, port) once ready, else None."""
        if self._ready is None:
            return None
        return (self._ready.host, self._ready.port)

    @property
    def pid(self) -> int:
        return self._process.pid

    # -- the multiprocessing.Process surface ---------------------------
    def is_alive(self) -> bool:
        return self._process.poll() is None

    @property
    def exitcode(self) -> Optional[int]:
        return self._process.poll()

    def terminate(self) -> None:
        if self.is_alive():
            self._process.terminate()  # SIGTERM: graceful drain

    def kill(self) -> None:
        if self.is_alive():
            self._process.kill()

    def join(self, timeout: Optional[float] = None) -> None:
        try:
            self._process.wait(timeout)
        except subprocess.TimeoutExpired:
            pass

    def __repr__(self) -> str:
        state = "alive" if self.is_alive() else f"exit={self.exitcode}"
        return f"WorkerHandle(pid={self.pid}, {state})"


def serve_spawn(argv: list) -> Callable[[], WorkerHandle]:
    """A spawn callable running ``python -m repro serve <argv...>`` as
    a subprocess (a clean interpreter, no inherited event loops or
    locks), stdout piped so the readiness handshake — and with it an
    ephemeral port — is discoverable through the returned
    `WorkerHandle`."""

    def spawn() -> WorkerHandle:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *map(str, argv)],
            stdout=subprocess.PIPE,
            text=True,
        )
        return WorkerHandle(process)

    return spawn


@dataclass
class WorkerSpec:
    """The spawn/health/backoff configuration of one serve worker (the
    ``fleet`` command builds one per worker).

    ``serve_args`` carries the serve CLI flags verbatim (limits,
    quotas, deadlines, drain): the spec does not re-model them, it
    transports them.  ``port=0`` is fully supported — the supervisor's
    health probe follows the *discovered* address of whichever worker
    generation is currently live, not the requested port.
    """

    schema: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 0
    #: Extra ``serve`` CLI flags (e.g. ``("--max-rounds", "50")``).
    serve_args: tuple[str, ...] = ()
    #: Warmup manifest path (``--warm``): schemas precompiled before
    #: the worker reports ready.
    warm: Optional[str] = None
    #: Seconds to wait for the readiness handshake after a spawn.
    ready_timeout_s: float = 60.0
    health_interval_s: float = 1.0
    health_failures: int = 3
    health_grace_s: float = 10.0
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    stop_grace_s: float = 10.0

    def serve_argv(self) -> list[str]:
        argv: list[str] = []
        if self.schema is not None:
            argv.append(str(self.schema))
        argv += ["--host", self.host, "--port", str(self.port)]
        if self.warm is not None:
            argv += ["--warm", str(self.warm)]
        argv += list(self.serve_args)
        return argv

    def spawn(self) -> WorkerHandle:
        return serve_spawn(self.serve_argv())()

    def supervisor(
        self,
        *,
        on_worker_up: Optional[Callable[[object], None]] = None,
        on_worker_down: Optional[Callable[[object], None]] = None,
        **overrides: object,
    ) -> "Supervisor":
        """A `Supervisor` for this spec: subprocess spawn, an
        address-following ``op: ping`` watchdog, the spec's restart
        policies.  ``overrides`` pass through to the `Supervisor`
        constructor (tests inject clocks and sleeps this way)."""
        supervisor: Optional[Supervisor] = None

        def health() -> bool:
            worker = supervisor.worker if supervisor is not None else None
            address = getattr(worker, "address", None)
            if address is None:
                return False
            return tcp_ping(*address)

        kwargs: dict = dict(
            health_check=health,
            health_interval_s=self.health_interval_s,
            health_failures=self.health_failures,
            health_grace_s=self.health_grace_s,
            backoff=self.backoff,
            breaker=self.breaker,
            stop_grace_s=self.stop_grace_s,
            on_worker_up=on_worker_up,
            on_worker_down=on_worker_down,
        )
        kwargs.update(overrides)
        spawn = kwargs.pop("spawn", self.spawn)
        supervisor = Supervisor(spawn, **kwargs)
        return supervisor


class Supervisor:
    """Run one worker, restart it on crash, give up on a crash loop.

    ``spawn`` returns a *started* worker handle exposing the
    ``multiprocessing.Process`` surface used here: ``is_alive()``,
    ``exitcode``, ``terminate()``, ``kill()``, ``join(timeout)``.
    ``health_check`` (optional) is polled every ``health_interval_s``
    while the worker is alive; ``health_failures`` consecutive misses
    terminate and restart it.

    ``on_worker_up(worker)`` fires right after each spawn (every
    generation) and ``on_worker_down(worker)`` as soon as the watch
    ends — the worker died, failed health, or supervision is stopping
    and it is about to be terminated.  The fleet uses these to admit
    workers to / evict workers from its routing ring; hooks run on the
    supervisor's thread, and an ``on_worker_up`` that terminates the
    worker (e.g. a failed readiness handshake) simply feeds the normal
    crash/backoff/breaker accounting.  Hook exceptions are treated as
    supervision bugs and propagate.
    """

    def __init__(
        self,
        spawn: Callable[[], object],
        *,
        health_check: Optional[Callable[[], bool]] = None,
        health_interval_s: float = 1.0,
        health_failures: int = 3,
        health_grace_s: float = 5.0,
        backoff: Optional[BackoffPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        stop_grace_s: float = 10.0,
        poll_interval_s: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
        sleep: Optional[Callable[[float], None]] = None,
        rng: Optional[random.Random] = None,
        on_worker_up: Optional[Callable[[object], None]] = None,
        on_worker_down: Optional[Callable[[object], None]] = None,
    ) -> None:
        if health_failures < 1:
            raise ValueError(
                f"health_failures must be >= 1, got {health_failures}"
            )
        self._spawn = spawn
        self._health_check = health_check
        self.health_interval_s = health_interval_s
        self.health_failures = health_failures
        self.health_grace_s = health_grace_s
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.breaker = breaker if breaker is not None else BreakerPolicy()
        self.stop_grace_s = stop_grace_s
        self.poll_interval_s = poll_interval_s
        self._clock = clock
        self._stop = threading.Event()
        self._sleep = sleep if sleep is not None else self._default_sleep
        self._rng = rng if rng is not None else random.Random()
        self._on_worker_up = on_worker_up
        self._on_worker_down = on_worker_down
        #: Crash timestamps inside the breaker window.
        self._crashes: deque = deque()
        self.restarts = 0
        self.generation = 0
        self.worker: Optional[object] = None

    def _default_sleep(self, seconds: float) -> None:
        # Interruptible: stop() wakes a supervisor dozing in backoff.
        self._stop.wait(seconds)

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Supervise until `stop()` (returns) or a crash loop (raises
        `CrashLoopError`)."""
        try:
            while not self._stop.is_set():
                self.generation += 1
                self.worker = self._spawn()
                if self._on_worker_up is not None:
                    self._on_worker_up(self.worker)
                healthy_exit = self._watch(self.worker)
                if self._on_worker_down is not None:
                    self._on_worker_down(self.worker)
                if self._stop.is_set():
                    break
                if healthy_exit:
                    # The worker exited cleanly on its own (e.g. it was
                    # SIGTERMed out of band): supervision is done.
                    break
                self._record_crash()
                self.restarts += 1
                self._sleep(
                    self.backoff.delay(len(self._crashes), self._rng)
                )
        finally:
            worker = self.worker
            self.worker = None
            if worker is not None:
                self._terminate(worker)

    def stop(self) -> None:
        """Ask the supervisor to stop; the worker is drained (SIGTERM,
        then killed after ``stop_grace_s``) by the `run` loop's exit."""
        self._stop.set()

    # ------------------------------------------------------------------
    def _watch(self, worker: object) -> bool:
        """Block while the worker lives; True iff it exited cleanly."""
        started = self._clock()
        last_probe = started
        misses = 0
        while not self._stop.is_set():
            if not worker.is_alive():
                return worker.exitcode == 0
            now = self._clock()
            if (
                self._health_check is not None
                and now - started >= self.health_grace_s
                and now - last_probe >= self.health_interval_s
            ):
                last_probe = now
                if self._health_check():
                    misses = 0
                else:
                    misses += 1
                    if misses >= self.health_failures:
                        # A live-but-unresponsive worker is a crash.
                        self._terminate(worker)
                        return False
            self._sleep(self.poll_interval_s)
        return True

    def _record_crash(self) -> None:
        now = self._clock()
        self._crashes.append(now)
        while self._crashes and now - self._crashes[0] > self.breaker.window_s:
            self._crashes.popleft()
        if len(self._crashes) > self.breaker.max_crashes:
            raise CrashLoopError(
                f"{len(self._crashes)} crashes in "
                f"{self.breaker.window_s:g}s (limit "
                f"{self.breaker.max_crashes}); refusing to restart"
            )

    def _terminate(self, worker: object) -> None:
        if not worker.is_alive():
            return
        worker.terminate()  # SIGTERM: the serve CLI drains gracefully
        worker.join(self.stop_grace_s)
        if worker.is_alive():
            worker.kill()
            worker.join(1.0)
