"""`StageTimer`: exclusive accounting, nesting, thread-local wiring."""

from repro.obs import (
    STAGES,
    StageTimer,
    activate,
    current_timer,
    deactivate,
    stage,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


class TestStageTimer:
    def test_flat_stages_accumulate(self):
        clock = FakeClock()
        timer = StageTimer(clock=clock)
        timer.push("chase")
        clock.tick(0.5)
        timer.pop()
        timer.push("chase")
        clock.tick(0.25)
        timer.pop()
        assert timer.stages == {"chase": 0.75}

    def test_nested_stage_pauses_the_parent(self):
        # match runs 1.0s wall, but 0.6s of it is an inner chase: the
        # exclusive split must be match=0.4, chase=0.6.
        clock = FakeClock()
        timer = StageTimer(clock=clock)
        timer.push("match")
        clock.tick(0.1)
        timer.push("chase")
        clock.tick(0.6)
        timer.pop()
        clock.tick(0.3)
        timer.pop()
        assert abs(timer.stages["match"] - 0.4) < 1e-9
        assert abs(timer.stages["chase"] - 0.6) < 1e-9
        assert abs(sum(timer.stages.values()) - 1.0) < 1e-9

    def test_add_credits_external_time(self):
        timer = StageTimer(clock=FakeClock())
        timer.add("queue", 0.032)
        timer.add("queue", 0.01)
        assert abs(timer.stages["queue"] - 0.042) < 1e-12

    def test_as_millis_orders_by_canonical_glossary(self):
        clock = FakeClock()
        timer = StageTimer(clock=clock)
        for name in ("persist", "compile", "custom_z", "chase"):
            timer.push(name)
            clock.tick(0.001)
            timer.pop()
        timer.add("queue", 0.002)
        keys = list(timer.as_millis())
        assert keys == ["queue", "compile", "chase", "persist", "custom_z"]
        assert timer.as_millis()["queue"] == 2.0

    def test_stage_glossary_is_the_documented_seven(self):
        assert STAGES == (
            "parse", "queue", "compile", "rewrite", "chase", "match",
            "persist",
        )


class TestThreadLocalWiring:
    def test_stage_is_noop_without_active_timer(self):
        assert current_timer() is None
        with stage("chase"):
            pass  # must not raise, must not record anywhere

    def test_activate_deactivate_restores_previous(self):
        outer, inner = StageTimer(), StageTimer()
        previous = activate(outer)
        assert previous is None and current_timer() is outer
        nested_previous = activate(inner)
        assert nested_previous is outer and current_timer() is inner
        deactivate(nested_previous)
        assert current_timer() is outer
        deactivate(previous)
        assert current_timer() is None

    def test_stage_records_into_the_active_timer(self):
        timer = StageTimer()
        previous = activate(timer)
        try:
            with stage("rewrite"):
                pass
        finally:
            deactivate(previous)
        assert "rewrite" in timer.stages

    def test_stage_pops_on_exception(self):
        clock = FakeClock()
        timer = StageTimer(clock=clock)
        previous = activate(timer)
        try:
            try:
                with stage("chase"):
                    clock.tick(0.2)
                    raise RuntimeError("boom")
            except RuntimeError:
                pass
        finally:
            deactivate(previous)
        assert abs(timer.stages["chase"] - 0.2) < 1e-9
        # the stack unwound: a fresh stage still nests correctly
        previous = activate(timer)
        try:
            with stage("match"):
                clock.tick(0.1)
        finally:
            deactivate(previous)
        assert abs(timer.stages["match"] - 0.1) < 1e-9
