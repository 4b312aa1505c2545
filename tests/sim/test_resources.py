"""Unit tests for Resource, the FIFO mutex."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_grant_immediately_when_free(self, sim):
        res = Resource(sim)
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
        res = Resource(sim)
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

    def test_context_manager_releases(self, sim):
        res = Resource(sim)

        def body():
            with res.request() as req:
                yield req
                yield sim.timeout(1)

        sim.process(body())
        sim.run()
        assert res.count == 0
        assert res.queue_length == 0

    def test_release_unheld_raises(self, sim):
        res = Resource(sim)
        req = res.request()
        sim.run()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    def test_cancel_waiting_request(self, sim):
        res = Resource(sim)
        first = res.request()
        second = res.request()
        assert res.queue_length == 1
        second.cancel()
        assert res.queue_length == 0
        res.release(first)

    def test_equal_priorities_are_fifo(self, sim):
        """No request outranks another: waiters go in arrival order."""
        res = Resource(sim)
        holder = res.request()
        waiters = [res.request() for _ in range(8)]
        granted = []
        res.release(holder)
        while res.users:
            granted.append(res.users[0])
            res.release(res.users[0])
        assert granted == waiters

    def test_cancel_mid_queue_removes_only_that_waiter(self, sim):
        res = Resource(sim)
        holder = res.request()
        waiters = [res.request() for _ in range(6)]
        waiters[1].cancel()  # second in line
        assert res.queue_length == 5
        granted = []
        res.release(holder)
        while res.users:
            granted.append(res.users[0])
            res.release(res.users[0])
        assert granted == [waiters[i] for i in (0, 2, 3, 4, 5)]
        assert not waiters[1].triggered

    @settings(max_examples=60)
    @given(
        actions=st.lists(
            st.tuples(
                # Requests outnumber releases, so the queue runs deep.
                st.sampled_from(
                    ["request"] * 3 + ["release", "cancel", "cancel-held"]
                ),
                st.integers(0, 9),
            ),
            max_size=60,
        ),
    )
    def test_grant_order_matches_sorted_list(self, actions):
        """Under random requests, releases and cancellations, the holder
        and the queue always match a plain list kept in arrival order:
        a freed lock goes to the oldest waiter, and a granted request
        cannot be cancelled."""
        res = Resource(Simulator())
        waiting, users = [], []
        for kind, arg in actions:
            if kind == "request":
                waiting.append(res.request())
            elif kind == "release" and users:
                res.release(users.pop())
            elif kind == "cancel" and waiting:
                waiting.pop(arg % len(waiting)).cancel()
            elif kind == "cancel-held" and users:
                with pytest.raises(SimulationError):
                    users[0].cancel()
            if waiting and not users:
                users.append(waiting.pop(0))
            assert res.users == users
            assert res.queue_length == len(waiting)
            assert all(r.triggered for r in users)
            assert not any(r.triggered for r in waiting)
