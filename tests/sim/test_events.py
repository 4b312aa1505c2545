"""Unit tests for the event primitives."""

import pytest

from repro.sim import SimulationError, Simulator, Timeout


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_initial_state(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_succeed_sets_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.value == 42

    def test_succeed_none_still_triggered(self, sim):
        ev = sim.event()
        ev.succeed()
        assert ev.triggered
        assert ev.value is None

    def test_double_succeed_raises(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_callbacks_run_on_process(self, sim):
        ev = sim.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed("x")
        assert seen == []  # not yet processed
        sim.run()
        assert seen == ["x"]
        assert ev.processed


class TestTimeout:
    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            Timeout(sim, -1)

    def test_fires_at_delay(self, sim):
        t = sim.timeout(3.5, value="done")
        sim.run()
        assert sim.now == 3.5
        assert t.value == "done"

    def test_zero_delay_fires_now(self, sim):
        t = sim.timeout(0)
        sim.run()
        assert sim.now == 0.0
        assert t.processed

    def test_ordering_is_fifo_at_same_time(self, sim):
        order = []
        for i in range(5):
            sim.timeout(1).callbacks.append(lambda e, i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

