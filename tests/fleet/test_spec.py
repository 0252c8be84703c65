"""Unit tests for `WorkerSpec` — the spawn/health/backoff config of a
``fleet`` worker — and the supervisor's worker lifecycle hooks the
fleet's ring admission rides on."""

import threading

from repro.server import (
    BackoffPolicy,
    BreakerPolicy,
    Supervisor,
    WorkerSpec,
)


class FakeWorker:
    """Scripted stand-in for a WorkerHandle (same duck surface)."""

    def __init__(self) -> None:
        self.alive = True
        self.terminated = False
        self.exitcode = None
        self.pid = 4242

    def is_alive(self) -> bool:
        return self.alive

    def terminate(self) -> None:
        self.terminated = True
        self.alive = False
        self.exitcode = 0

    def kill(self) -> None:
        self.alive = False
        self.exitcode = -9

    def join(self, timeout=None) -> None:
        pass


class TestServeArgv:
    def test_minimal_spec(self):
        argv = WorkerSpec().serve_argv()
        assert argv == ["--host", "127.0.0.1", "--port", "0"]

    def test_full_spec_orders_schema_first(self):
        spec = WorkerSpec(
            schema="schema.json",
            host="0.0.0.0",
            port=9000,
            warm="manifest.json",
            serve_args=("--max-rounds", "50", "--log-format", "json"),
        )
        assert spec.serve_argv() == [
            "schema.json",
            "--host", "0.0.0.0",
            "--port", "9000",
            "--warm", "manifest.json",
            "--max-rounds", "50",
            "--log-format", "json",
        ]

    def test_serve_args_are_transported_verbatim(self):
        spec = WorkerSpec(serve_args=("--client-rate", "5.5"))
        assert spec.serve_argv()[-2:] == ["--client-rate", "5.5"]


class TestSupervisorWiring:
    def test_policies_flow_into_the_supervisor(self):
        backoff = BackoffPolicy(base_s=0.25, cap_s=2.0)
        breaker = BreakerPolicy(max_crashes=2, window_s=7.0)
        spec = WorkerSpec(
            backoff=backoff,
            breaker=breaker,
            health_interval_s=0.5,
            health_failures=7,
        )
        supervisor = spec.supervisor()
        assert isinstance(supervisor, Supervisor)
        assert supervisor.backoff is backoff
        assert supervisor.breaker is breaker
        assert supervisor.health_interval_s == 0.5
        assert supervisor.health_failures == 7

    def test_up_down_hooks_fire_around_the_worker_lifetime(self):
        # The fleet admits a worker to the ring from on_worker_up and
        # evicts it from on_worker_down: the hooks must bracket every
        # generation, in order, on the supervisor thread.
        events = []
        worker = FakeWorker()
        spec = WorkerSpec(breaker=BreakerPolicy(max_crashes=1))
        supervisor = spec.supervisor(
            on_worker_up=lambda w: events.append(("up", w)),
            on_worker_down=lambda w: events.append(("down", w)),
            spawn=lambda: worker,
            health_check=lambda: worker.is_alive(),
            health_interval_s=0.01,
            health_grace_s=0.0,
            sleep=lambda s: None,
        )

        def die_soon():
            worker.alive = False

        killer = threading.Timer(0.05, die_soon)
        killer.start()
        try:
            supervisor.run()
        except Exception:
            pass  # breaker trip ends the run; the hooks are the point
        finally:
            killer.cancel()
        assert [kind for kind, __ in events[:2]] == ["up", "down"]
        assert events[0][1] is worker and events[1][1] is worker

    def test_health_check_follows_the_discovered_address(self):
        # port=0 specs: the probe must ping whatever address the live
        # generation announced, not the requested port.
        spec = WorkerSpec(port=0)
        supervisor = spec.supervisor(spawn=lambda: FakeWorker())
        # No worker yet: the address-following probe fails closed.
        assert supervisor._health_check() is False
        worker = FakeWorker()
        worker.address = None
        supervisor.worker = worker
        assert supervisor._health_check() is False  # spawned, not ready
