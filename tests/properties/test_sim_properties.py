"""Property-based tests for the discrete-event kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=50))
def test_events_fire_in_nondecreasing_time(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.timeout(d).callbacks.append(lambda e, d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
                min_size=1, max_size=30))
def test_same_time_events_fire_in_insertion_order(delays):
    sim = Simulator()
    order = []
    for i, d in enumerate(delays):
        sim.timeout(d).callbacks.append(lambda e, i=i: order.append(i))
    sim.run()
    # Stable by (time, insertion index).
    expect = [i for _d, i in sorted(
        ((d, i) for i, d in enumerate(delays)), key=lambda p: (p[0], p[1])
    )]
    assert order == expect


@given(st.lists(st.tuples(st.integers(0, 3), st.floats(0.01, 10)),
                min_size=1, max_size=20))
@settings(max_examples=50)
def test_resource_never_exceeds_capacity(jobs):
    """Mutual exclusion: hold intervals never overlap, and the lock is
    granted in request order."""
    from repro.sim import Resource

    sim = Simulator()
    res = Resource(sim)
    requested, held = [], []

    def worker(i, delay, hold):
        yield sim.timeout(delay)
        req = res.request()
        requested.append(i)
        yield req
        assert res.users == [req]
        start = sim.now
        yield sim.timeout(hold)
        held.append((i, start, sim.now))
        res.release(req)

    for i, (delay, hold) in enumerate(jobs):
        sim.process(worker(i, delay, hold))
    sim.run()
    assert res.count == 0
    assert [i for i, _start, _end in held] == requested
    for (_, _, end), (_, start, _) in zip(held, held[1:]):
        assert end <= start


@given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=25),
       st.integers(0, 2**32 - 1))
def test_simulation_is_deterministic(delays, seed):
    def trace():
        sim = Simulator()
        log = []

        def body(i, d):
            yield sim.timeout(d)
            log.append((round(sim.now, 9), i))
            yield sim.timeout(d / 2 + 0.1)
            log.append((round(sim.now, 9), -i))

        for i, d in enumerate(delays):
            sim.process(body(i, d))
        sim.run()
        return log

    assert trace() == trace()

