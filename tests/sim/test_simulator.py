"""Unit tests for the Simulator calendar."""

import pytest

from repro.sim import SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


def test_initial_time():
    assert Simulator().now == 0.0


def test_step_on_empty_raises(sim):
    with pytest.raises(SimulationError):
        sim.step()


def test_run_until_time_stops_and_sets_now(sim):
    fired = []
    sim.timeout(1).callbacks.append(lambda e: fired.append(1))
    sim.timeout(10).callbacks.append(lambda e: fired.append(10))
    sim.run(until=5)
    assert fired == [1]
    assert sim.now == 5.0
    sim.run()
    assert fired == [1, 10]


def test_run_until_boundary_inclusive(sim):
    fired = []
    sim.timeout(5).callbacks.append(lambda e: fired.append(5))
    sim.run(until=5)
    assert fired == [5]


def test_run_until_past_raises(sim):
    sim.run(until=10)
    with pytest.raises(SimulationError):
        sim.run(until=5)


def test_schedule_callback(sim):
    calls = []
    sim.schedule_callback(4, lambda: calls.append(sim.now))
    sim.run()
    assert calls == [4]


def test_determinism_across_runs():
    def trace():
        sim = Simulator()
        out = []

        def body(i):
            yield sim.timeout(i % 3)
            out.append((sim.now, i))
            yield sim.timeout(2)
            out.append((sim.now, i))

        for i in range(10):
            sim.process(body(i))
        sim.run()
        return out

    assert trace() == trace()

