"""Unit tests for Resource and Store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, SimulationError, Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_grant_immediately_when_free(self, sim):
        res = Resource(sim, capacity=1)
        log = []

        def body():
            req = res.request()
            yield req
            log.append(sim.now)
            res.release(req)

        sim.process(body())
        sim.run()
        assert log == [0]
        assert res.count == 0

    def test_mutual_exclusion_serialises(self, sim):
        res = Resource(sim, capacity=1)
        spans = []

        def worker(i):
            req = res.request()
            yield req
            start = sim.now
            yield sim.timeout(10)
            res.release(req)
            spans.append((i, start, sim.now))

        for i in range(3):
            sim.process(worker(i))
        sim.run()
        assert spans == [(0, 0, 10), (1, 10, 20), (2, 20, 30)]

    def test_capacity_two_overlaps(self, sim):
        res = Resource(sim, capacity=2)
        starts = []

        def worker(i):
            req = res.request()
            yield req
            starts.append((i, sim.now))
            yield sim.timeout(10)
            res.release(req)

        for i in range(4):
            sim.process(worker(i))
        sim.run()
        assert starts == [(0, 0), (1, 0), (2, 10), (3, 10)]

    def test_priority_order(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def holder():
            req = res.request()
            yield req
            yield sim.timeout(5)
            res.release(req)

        def waiter(name, prio, delay):
            yield sim.timeout(delay)
            req = res.request(priority=prio)
            yield req
            order.append(name)
            res.release(req)

        sim.process(holder())
        sim.process(waiter("low", 10, 1))
        sim.process(waiter("high", 0, 2))
        sim.run()
        assert order == ["high", "low"]

    def test_context_manager_releases(self, sim):
        res = Resource(sim, capacity=1)

        def body():
            with res.request() as req:
                yield req
                yield sim.timeout(1)

        sim.process(body())
        sim.run()
        assert res.count == 0
        assert res.queue_length == 0

    def test_release_unheld_raises(self, sim):
        res = Resource(sim, capacity=1)
        req = res.request()
        sim.run()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    def test_cancel_waiting_request(self, sim):
        res = Resource(sim, capacity=1)
        first = res.request()
        second = res.request()
        assert res.queue_length == 1
        second.cancel()
        assert res.queue_length == 0
        res.release(first)

    def test_equal_priorities_are_fifo(self, sim):
        res = Resource(sim, capacity=1)
        holder = res.request()
        priorities = (3, 1, 3, 2, 1, 3, 0, 2)
        waiters = [res.request(priority=p) for p in priorities]
        granted = []
        res.release(holder)
        while res.users:
            granted.append(res.users[0])
            res.release(res.users[0])
        order = sorted(range(len(priorities)), key=lambda i: priorities[i])
        assert granted == [waiters[i] for i in order]

    def test_cancel_mid_queue_removes_only_that_waiter(self, sim):
        res = Resource(sim, capacity=1)
        holder = res.request()
        waiters = [res.request(priority=p) for p in (0, 0, 2, 1, 0, 2)]
        waiters[1].cancel()  # second in line
        assert res.queue_length == 5
        granted = []
        res.release(holder)
        while res.users:
            granted.append(res.users[0])
            res.release(res.users[0])
        assert granted == [waiters[i] for i in (0, 4, 3, 2, 5)]
        assert not waiters[1].triggered

    @settings(max_examples=60)
    @given(
        capacity=st.integers(1, 3),
        actions=st.lists(
            st.tuples(
                # Requests outnumber releases, so the queue runs deep.
                st.sampled_from(["request"] * 3 + ["release", "cancel"]),
                st.integers(-2, 9),
            ),
            max_size=60,
        ),
    )
    def test_grant_order_matches_sorted_list(self, capacity, actions):
        """Under random priorities, releases and cancellations, the
        holders (in grant order) and the queue always match a waiting
        list that is re-sorted on every request."""
        res = Resource(Simulator(), capacity=capacity)
        waiting, users = [], []
        for kind, arg in actions:
            if kind == "request":
                waiting.append(res.request(priority=arg))
                waiting.sort(key=lambda r: r.key)
            elif kind == "release" and users:
                res.release(users.pop(arg % len(users)))
            elif kind == "cancel" and waiting:
                waiting.pop(arg % len(waiting)).cancel()
            while waiting and len(users) < capacity:
                users.append(waiting.pop(0))
            assert res.users == users
            assert res.queue_length == len(waiting)


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        got = []

        def producer():
            yield store.put("a")
            yield store.put("b")

        def consumer():
            x = yield store.get()
            got.append(x)
            y = yield store.get()
            got.append(y)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == ["a", "b"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []

        def consumer():
            x = yield store.get()
            got.append((sim.now, x))

        def producer():
            yield sim.timeout(9)
            yield store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(9, "late")]

    def test_bounded_put_blocks(self, sim):
        store = Store(sim, capacity=1)
        events = []

        def producer():
            yield store.put(1)
            events.append(("put1", sim.now))
            yield store.put(2)
            events.append(("put2", sim.now))

        def consumer():
            yield sim.timeout(5)
            yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert events == [("put1", 0), ("put2", 5)]

    def test_len(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        sim.run()
        assert len(store) == 2

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)
