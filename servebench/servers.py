"""Serving processes and the closed-loop client that drives them.

`ServerProcess` runs ``python -m repro fleet`` (or ``serve``) from the
checkout's ``src`` with its own ``--cache-dir``, waits for the
readiness frame, reads CPU time and peak RSS of the whole process tree
from ``/proc``, and on `stop` sends SIGTERM and then checks through
``/proc`` that no process of the tree survived.

`closed_loop` drives an address over N connections from threads of
this one process: each connection sends its next frame only after the
previous reply arrived (callers block on a decision before planning
their accesses).  Every reply goes through `check`, the correctness
oracle: a decision that contradicts the generating family's ground
truth raises `WrongDecision` and ends the run.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from corpus import Request

#: Per-request reply timeout; an expired request counts as failed.
REQUEST_TIMEOUT_S = 30.0
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class WrongDecision(RuntimeError):
    """A reply decided the opposite of the family's ground truth."""


class BenchmarkError(RuntimeError):
    """The benchmark could not run as specified (not a wrong answer)."""


def check(request: Request, reply: dict) -> bool:
    """True for a correct decision, False for a failed request (error
    frame or UNKNOWN); raises `WrongDecision` on a wrong one."""
    decision = reply.get("decision")
    if decision not in ("yes", "no"):
        return False
    if (decision == "yes") != request.expected:
        raise WrongDecision(
            f"{request.family} query {request.query!r}: decided "
            f"{decision}, ground truth is "
            f"{'yes' if request.expected else 'no'}"
        )
    return True


# ----------------------------------------------------------------------
# /proc
# ----------------------------------------------------------------------
def _stat_fields(pid: int) -> Optional[list[str]]:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    # The command name may hold spaces; fields resume after its ')'.
    return text[text.rindex(")") + 2:].split()


def children_of(parent: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and int(fields[1]) == parent:
                found.append(int(entry))
    return found


def alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def cpu_seconds(pid: int) -> float:
    """utime + stime of every thread of ``pid``."""
    fields = _stat_fields(pid)
    if fields is None:
        raise BenchmarkError(f"process {pid} vanished during the run")
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for process {pid}")


# ----------------------------------------------------------------------
# Serving processes
# ----------------------------------------------------------------------
class ServerProcess:
    """``python -m repro <command> --port 0 --cache-dir DIR`` with the
    program's defaults otherwise."""

    def __init__(
        self, command: str, root: Path, cache_dir: Path, log_path: Path
    ) -> None:
        self.command = command
        self.root = root
        self.cache_dir = cache_dir
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None
        self.address: Optional[tuple[str, int]] = None
        self.workers: list[int] = []

    def start(self) -> "ServerProcess":
        from repro.io import ReadyFrame

        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", self.command,
                    "--port", "0", "--cache-dir", str(self.cache_dir),
                ],
                cwd=self.root,
                env=env,
                stdout=subprocess.PIPE,
                stderr=log,
            )
        deadline = time.monotonic() + READY_TIMEOUT_S
        stdout = self.process.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                self.stop(check=False)
                raise BenchmarkError(
                    f"{self.command} never reported ready "
                    f"(see {self.log_path})"
                )
            readable, __, __ = select.select([stdout], [], [], remaining)
            if readable:
                ready = ReadyFrame.from_line(stdout.readline())
                if ready is not None:
                    break
        self.address = (ready.host, ready.port)
        if self.command == "fleet":
            self.workers = children_of(self.process.pid)
            if len(self.workers) != ready.workers:
                self.stop(check=False)
                raise BenchmarkError(
                    f"fleet reported {ready.workers} workers, /proc shows "
                    f"{len(self.workers)} children"
                )
        return self

    @property
    def pids(self) -> list[int]:
        assert self.process is not None
        return [self.process.pid, *self.workers]

    def cpu_seconds(self) -> float:
        return sum(cpu_seconds(pid) for pid in self.pids)

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids)

    def stop(self, *, check: bool = True) -> None:
        """SIGTERM, wait, then verify no process of the tree survived
        (survivors are killed, and reported when ``check``)."""
        if self.process is None:
            return
        process, self.process = self.process, None
        pids = [process.pid, *self.workers]
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            process.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()
        deadline = time.monotonic() + 5.0
        while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if alive(pid)]
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if survivors and check:
            raise BenchmarkError(
                f"{self.command} processes survived SIGTERM: {survivors}"
            )


# ----------------------------------------------------------------------
# The client
# ----------------------------------------------------------------------
class Connection:
    """One JSON-lines TCP connection, one request in flight."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.address = address
        self._open()

    def _open(self) -> None:
        self.sock = socket.create_connection(self.address, REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def send(self, frame: bytes) -> bytes:
        """One frame out, one reply line back."""
        self.sock.sendall(frame)
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line

    def request(self, frame: bytes) -> dict:
        return json.loads(self.send(frame))

    def reopen(self) -> None:
        self.close()
        self._open()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def scrape_stats(address: tuple[str, int]) -> dict:
    """One ``op: stats`` frame on its own connection."""
    connection = Connection(address)
    try:
        return connection.request(b'{"op": "stats"}\n')
    finally:
        connection.close()


@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    cached: int = 0
    #: Latency and completion time of every correct reply.
    latencies_s: list[float] = field(default_factory=list)
    completed_at: list[float] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0

    @property
    def correct(self) -> int:
        return len(self.latencies_s)

    @property
    def elapsed_s(self) -> float:
        return self.finished - self.started

    def merge(self, other: "LoopResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.cached += other.cached
        self.latencies_s.extend(other.latencies_s)
        self.completed_at.extend(other.completed_at)

    def slices(self, count: int) -> list[list[float]]:
        """Latencies of correct replies in ``count`` equal slices of
        the phase, by completion time."""
        width = self.elapsed_s / count
        buckets: list[list[float]] = [[] for __ in range(count)]
        for done, latency in zip(self.completed_at, self.latencies_s):
            index = int((done - self.started) / width)
            buckets[min(count - 1, index)].append(latency)
        return buckets


def closed_loop(
    address: tuple[str, int],
    requests: Iterator[Request],
    *,
    connections: int,
    seconds: Optional[float] = None,
) -> LoopResult:
    """Send ``requests`` in order over ``connections`` closed-loop
    connections until they run out or ``seconds`` pass.  Latency runs
    from frame write to the full reply line, for correct replies."""
    lock = threading.Lock()
    stop = threading.Event()
    errors: list[BaseException] = []
    results = [LoopResult() for __ in range(connections)]
    opened = [Connection(address) for __ in range(connections)]
    total = LoopResult()
    total.started = time.perf_counter()
    deadline = None if seconds is None else total.started + seconds

    def drive(connection: Connection, result: LoopResult) -> None:
        try:
            while not stop.is_set():
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                with lock:
                    request = next(requests, None)
                if request is None:
                    return
                frame = request.frame
                result.attempted += 1
                sent = time.perf_counter()
                try:
                    line = connection.send(frame)
                    done = time.perf_counter()
                    reply = json.loads(line)
                except (OSError, ValueError):
                    # Timeout, reset, or a garbled line: a failed
                    # request on a connection that is now unusable.
                    result.failed += 1
                    connection.reopen()
                    continue
                if check(request, reply):
                    result.latencies_s.append(done - sent)
                    result.completed_at.append(done)
                    result.cached += bool(reply.get("cached"))
                else:
                    result.failed += 1
        except BaseException as error:  # re-raised on the main thread
            errors.append(error)
            stop.set()

    threads = [
        threading.Thread(target=drive, args=(connection, result))
        for connection, result in zip(opened, results)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        stop.set()
        total.finished = time.perf_counter()
        for connection in opened:
            connection.close()
    if errors:
        raise errors[0]
    for result in results:
        total.merge(result)
    return total
