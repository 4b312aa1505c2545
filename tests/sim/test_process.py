"""Unit tests for generator-based processes."""

import pytest

from repro.sim import SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


def test_process_advances_time(sim):
    log = []

    def body():
        yield sim.timeout(2)
        log.append(sim.now)
        yield sim.timeout(3)
        log.append(sim.now)

    sim.process(body())
    sim.run()
    assert log == [2, 5]


def test_yield_non_event_raises(sim):
    def body():
        yield 42

    sim.process(body())
    with pytest.raises(SimulationError, match="expected an Event"):
        sim.run()


def test_yield_event_of_another_simulator_raises(sim):
    other = Simulator()

    def body():
        yield other.timeout(1)

    sim.process(body())
    with pytest.raises(SimulationError, match="another simulator"):
        sim.run()


def test_exception_in_process_escalates(sim):
    def body():
        yield sim.timeout(1)
        raise KeyError("inner")

    sim.process(body())
    with pytest.raises(KeyError):
        sim.run()


def test_exception_leaves_run_at_the_instant_it_is_raised(sim):
    """Events already due at that instant stay on the calendar."""
    ran = []

    def failing():
        yield sim.timeout(5)
        raise KeyError("inner")

    def bystander():
        yield sim.timeout(5)  # queued after the failing process's timeout
        ran.append(sim.now)

    sim.process(failing())
    sim.process(bystander())
    with pytest.raises(KeyError):
        sim.run()
    assert sim.now == 5
    assert ran == []


def test_finished_process_costs_no_step(sim):
    """One step starts the process, one resumes it; finishing adds none."""
    steps = []
    sim.set_step_hook(lambda now, depth: steps.append(now))

    def body():
        yield sim.timeout(1)

    sim.process(body())
    sim.run()
    assert steps == [0.0, 1.0]


def test_yield_already_processed_event(sim):
    ready = sim.event()
    ready.succeed("early")

    def body(out):
        yield sim.timeout(5)
        got = yield ready  # processed long ago; must not deadlock
        out.append((sim.now, got))

    out = []
    sim.process(body(out))
    sim.run()
    assert out == [(5, "early")]


def test_many_processes_deterministic_order(sim):
    order = []

    def body(i):
        yield sim.timeout(1)
        order.append(i)

    for i in range(20):
        sim.process(body(i))
    sim.run()
    assert order == list(range(20))


def test_non_generator_rejected(sim):
    with pytest.raises(TypeError):
        sim.process(lambda: None)
