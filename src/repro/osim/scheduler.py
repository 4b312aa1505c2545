"""CPU scheduling disciplines for the simulated kernel.

The kernel calls :meth:`enqueue` whenever a task becomes ready, asks
:meth:`pick` which ready task to dispatch next and :meth:`quantum` how
long it may run, and binds its simulation clock once through
:meth:`bind_clock`.  Each discipline is one class that owns its ready
queue:

=================  ==========================  ==============================
name               class                       ready queue and decision
=================  ==========================  ==============================
``fifo``           :class:`Fifo`               deque; arrival order, bursts
                                               run whole
``rr``             :class:`RoundRobin`         deque; arrival order, fixed
                                               quantum
``priority``       :class:`PriorityScheduler`  heap; least ``(priority,
                                               arrival)``
``edf``            :class:`DeadlineEDF`        heap; least ``(deadline,
                                               arrival)``
``aged-priority``  :class:`AgedPriority`       stable min-scan at each pick
                                               over ``priority - wait/aging``
=================  ==========================  ==============================

Keys of the heap disciplines are fixed at enqueue; only aging depends on
the decision instant.  The plain-list decision rule every discipline
reproduces is kept as the oracle in ``tests/osim/reference.py``.  The
paper's observation that a non-preemptable FPGA "implicitly forces the
scheduling to a strictly FIFO policy" (§4) is tested by running these
disciplines against different FPGA services (experiment E3).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from .task import Task

__all__ = [
    "Fifo",
    "RoundRobin",
    "PriorityScheduler",
    "DeadlineEDF",
    "AgedPriority",
    "Scheduler",
    "CPU_SCHEDULERS",
    "make_cpu_scheduler",
]


def _positive(value: float, what: str) -> float:
    if value <= 0:
        raise ValueError(f"{what} must be positive")
    return value


class Fifo:
    """Run-to-completion batch scheduling: arrival order, and each CPU
    burst runs whole."""

    def __init__(self) -> None:
        self._ready: Deque[Task] = deque()

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Arrival order needs no clock."""

    def enqueue(self, task: Task) -> None:
        self._ready.append(task)

    def pick(self) -> Optional[Task]:
        """Remove and return the next task to run (None if idle)."""
        return self._ready.popleft() if self._ready else None

    def quantum(self, task: Task) -> float:
        """CPU time slice granted to ``task`` (inf = run burst to end)."""
        return float("inf")

    def __len__(self) -> int:
        return len(self._ready)


class RoundRobin(Fifo):
    """Time-shared FIFO with a fixed quantum — the paper's time-shared
    multitasking baseline."""

    def __init__(self, time_slice: float = 10e-3) -> None:
        super().__init__()
        self.time_slice = _positive(time_slice, "time_slice")

    def quantum(self, task: Task) -> float:
        return self.time_slice


class PriorityScheduler:
    """Static priorities (lower :attr:`Task.priority` first), arrival
    order within a level, and a fixed quantum."""

    def __init__(self, time_slice: float = 10e-3) -> None:
        self.time_slice = _positive(time_slice, "time_slice")
        #: ``(key, arrival ticket, task)``: tickets are unique, so the
        #: tuple order never reaches the task.
        self._heap: List[Tuple[float, int, Task]] = []
        self._tickets = 0

    @staticmethod
    def _key(task: Task) -> float:
        return task.priority

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """The key is fixed at enqueue; no clock is needed."""

    def enqueue(self, task: Task) -> None:
        heapq.heappush(self._heap, (self._key(task), self._tickets, task))
        self._tickets += 1

    def pick(self) -> Optional[Task]:
        return heapq.heappop(self._heap)[2] if self._heap else None

    def quantum(self, task: Task) -> float:
        return self.time_slice

    def __len__(self) -> int:
        return len(self._heap)


class DeadlineEDF(PriorityScheduler):
    """Earliest :attr:`Task.deadline` first.

    Tasks without a deadline sort last and keep arrival order among
    themselves, so a deadline-free workload runs exactly as
    :class:`RoundRobin`.
    """

    @staticmethod
    def _key(task: Task) -> float:
        return float("inf") if task.deadline is None else task.deadline


class AgedPriority:
    """Static priorities with aging — no starvation.

    A task's effective priority drops by one level for every ``aging``
    seconds it has waited in the ready queue, so any task eventually
    outranks a steady stream of higher-priority arrivals.  The key moves
    with the clock, so every pick scans the queue in arrival order and
    keeps the first least key.  With ``aging = inf`` this is
    :class:`PriorityScheduler`.
    """

    def __init__(self, time_slice: float = 10e-3,
                 aging: float = 50e-3) -> None:
        self.time_slice = _positive(time_slice, "time_slice")
        self.aging = _positive(aging, "aging")
        #: ``(enqueued_at, task)`` in arrival order.
        self._ready: List[Tuple[float, Task]] = []
        self._clock: Callable[[], float] = lambda: 0.0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Read waiting time off ``clock`` (unbound, time stays 0.0)."""
        self._clock = clock

    def enqueue(self, task: Task) -> None:
        self._ready.append((self._clock(), task))

    def pick(self) -> Optional[Task]:
        ready = self._ready
        if not ready:
            return None
        now = self._clock()
        aging = self.aging
        best = min(
            range(len(ready)),
            key=lambda i: (ready[i][1].priority
                           - max(0.0, now - ready[i][0]) / aging),
        )
        return ready.pop(best)[1]

    def quantum(self, task: Task) -> float:
        return self.time_slice

    def __len__(self) -> int:
        return len(self._ready)


#: Any CPU discipline: what :class:`~repro.osim.Kernel` takes as its
#: ``scheduler``.
Scheduler = Union[Fifo, RoundRobin, PriorityScheduler, DeadlineEDF,
                  AgedPriority]

#: Registry of the disciplines by name (CLI ``--cpu-sched`` space).
CPU_SCHEDULERS: Dict[str, Callable[..., Scheduler]] = {
    "fifo": Fifo,
    "rr": RoundRobin,
    "priority": PriorityScheduler,
    "edf": DeadlineEDF,
    "aged-priority": AgedPriority,
}


def make_cpu_scheduler(name: str, **kw) -> Scheduler:
    """A fresh discipline by registry name (``kw`` go to its
    constructor)."""
    try:
        cls = CPU_SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown cpu scheduler {name!r}; have {sorted(CPU_SCHEDULERS)}"
        ) from None
    return cls(**kw)
