"""Property-based tests for the CPU scheduling disciplines.

Three contracts the refactor must not break, over arbitrary interleaved
enqueue/pick sequences:

* **conservation** — no discipline ever loses or duplicates a task;
* **degeneracy** — ``RoundRobin(time_slice=inf)`` makes exactly the
  same decisions as ``Fifo`` (only the quantum differs, and an infinite
  quantum *is* FIFO);
* **no starvation** — ``AgedPriority`` eventually dispatches every
  task, however low its priority, once its wait outweighs the priority
  gap (the aging credit grows without bound).

Every discipline is additionally held to the reference oracle in
``tests/osim/reference.py`` — the seed list queue with a stable min-scan
— over the same enqueue, pick and clock sequence: its deque, heap or
per-pick scan must not change a single decision.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.osim import Task, make_cpu_scheduler
from tests.osim.reference import reference_scheduler

# An op sequence: True = enqueue the next pending task, False = pick.
OPS = st.lists(st.booleans(), min_size=1, max_size=80)
PRIORITIES = st.lists(st.integers(0, 5), min_size=80, max_size=80)
# Few levels and many same-instant enqueues, so equal keys are common
# and the arrival-order tie-break is exercised too.
LEVELS = st.lists(st.integers(0, 2), min_size=40, max_size=40)
DEADLINES = st.lists(st.one_of(st.none(), st.integers(0, 5)),
                     min_size=40, max_size=40)
# Seconds the clock moves before each op: mostly none, else short of,
# at, or past the default 50 ms aging step.
ADVANCES = st.sampled_from([0.0, 0.0, 5e-3, 50e-3, 120e-3])

ALL_NAMES = ["fifo", "rr", "priority", "edf", "aged-priority"]


def _tasks(priorities, deadlines=None):
    if deadlines is None:
        deadlines = [float(i) for i in range(len(priorities))]
    return [Task(f"t{i}", [], priority=p, deadline=d)
            for i, (p, d) in enumerate(zip(priorities, deadlines))]


def _drive(scheduler, ops, tasks):
    """Apply the op sequence, then drain; returns the picked tasks."""
    pending = list(tasks)
    picked = []
    for enq in ops:
        if enq and pending:
            scheduler.enqueue(pending.pop(0))
        else:
            t = scheduler.pick()
            if t is not None:
                picked.append(t)
    while len(scheduler):
        picked.append(scheduler.pick())
    return picked


class TestConservation:
    @given(st.sampled_from(ALL_NAMES), OPS, PRIORITIES)
    @settings(max_examples=120)
    def test_no_task_lost_or_duplicated(self, name, ops, priorities):
        tasks = _tasks(priorities)
        scheduler = make_cpu_scheduler(name)
        n_enqueued = min(sum(ops), len(tasks))  # enqueues actually done
        picked = _drive(scheduler, ops, tasks)
        # Exactly the enqueued prefix comes back: nothing lost, nothing
        # invented, nothing twice (identity-level comparison).
        assert len(picked) == n_enqueued
        assert len({id(t) for t in picked}) == len(picked)
        assert {id(t) for t in picked} == {id(t)
                                           for t in tasks[:n_enqueued]}
        assert len(scheduler) == 0


class TestDegeneracy:
    @given(OPS, PRIORITIES)
    @settings(max_examples=80)
    def test_rr_infinite_slice_is_fifo(self, ops, priorities):
        tasks = _tasks(priorities)
        rr = make_cpu_scheduler("rr", time_slice=float("inf"))
        fifo = make_cpu_scheduler("fifo")
        assert _drive(rr, ops, tasks) == _drive(fifo, ops, list(tasks))
        t = tasks[0]
        assert rr.quantum(t) == fifo.quantum(t) == float("inf")


class TestOracleEquivalence:
    @pytest.mark.parametrize("name", ALL_NAMES)
    @given(st.lists(st.tuples(st.booleans(), ADVANCES), min_size=1,
                    max_size=40),
           LEVELS, DEADLINES)
    @settings(max_examples=100)
    def test_discipline_matches_reference(self, name, ops, priorities,
                                          deadlines):
        tasks = _tasks(priorities, deadlines)
        now = 0.0
        scheduler = make_cpu_scheduler(name)
        oracle = reference_scheduler(name)
        scheduler.bind_clock(lambda: now)
        oracle.bind_clock(lambda: now)
        pending = list(tasks)
        for enqueue, advance in ops:
            now += advance
            if enqueue and pending:
                task = pending.pop(0)
                scheduler.enqueue(task)
                oracle.enqueue(task)
            else:
                assert scheduler.pick() is oracle.pick()
            assert len(scheduler) == len(oracle)
        while len(oracle):
            now += 20e-3
            assert scheduler.pick() is oracle.pick()
        assert scheduler.pick() is None
        assert scheduler.quantum(tasks[0]) == oracle.quantum(tasks[0])


class TestNoStarvation:
    @given(st.integers(1, 5), st.integers(1, 20))
    @settings(max_examples=60)
    def test_aged_priority_dispatches_the_starved(self, gap, n_rivals):
        """A single low-priority task enqueued at time 0 beats any
        stream of fresh priority-0 rivals once its wait exceeds
        ``gap * aging``."""
        scheduler = make_cpu_scheduler("aged-priority", aging=1.0)
        now = 0.0
        scheduler.bind_clock(lambda: now)
        victim = Task("victim", [], priority=gap)
        scheduler.enqueue(victim)
        for i in range(n_rivals):
            # Fresh urgent rival each round; clock advances one aging
            # quantum per round.
            now = float(i)
            rival = Task(f"r{i}", [], priority=0)
            scheduler.enqueue(rival)
            picked = scheduler.pick()
            if picked is victim:
                break
            assert picked is rival
            assert now - 0.0 <= gap  # not yet aged past the gap
        else:
            # Never picked inside the loop: one more round past the gap
            # must surface the victim.
            now = float(gap) + 1.0
            scheduler.enqueue(Task("last-rival", [], priority=0))
            assert scheduler.pick() is victim
