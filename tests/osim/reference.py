"""Reference CPU scheduler: the oracle every discipline in
:mod:`repro.osim.scheduler` is pinned to.

The production disciplines keep O(1) deques, O(log n) heaps or a
per-pick scan.  The seed ready queue lives here instead, as plain as it
was: a list in arrival order, and at every pick a stable linear min-scan
over ``(key(task, enqueued_at, now), arrival)``.  The scheduler tests
and the engine-parity tests check that each discipline makes exactly
its decisions:

* :class:`ReferenceScheduler` — the list queue, with the kernel's
  ``enqueue``/``pick``/``quantum``/``__len__``/``bind_clock`` protocol;
* :func:`reference_scheduler` — the oracle for one discipline by
  registry name, with that discipline's constructor arguments.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.osim import Task

#: ``key(task, enqueued_at, now)`` -> the rank a pick minimizes.
Key = Callable[[Task, float, float], float]


class ReferenceScheduler:
    """A list in arrival order, popped at its least
    ``(key(task, enqueued_at, now), arrival)``."""

    def __init__(self, key: Key, time_slice: float = float("inf")) -> None:
        self.key = key
        self.time_slice = time_slice
        self._ready: List[Tuple[float, Task]] = []
        self._clock: Callable[[], float] = lambda: 0.0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def enqueue(self, task: Task) -> None:
        self._ready.append((self._clock(), task))

    def pick(self) -> Optional[Task]:
        if not self._ready:
            return None
        now = self._clock()
        best = min(
            range(len(self._ready)),
            key=lambda i: (self.key(self._ready[i][1], self._ready[i][0],
                                    now), i),
        )
        return self._ready.pop(best)[1]

    def quantum(self, task: Task) -> float:
        return self.time_slice

    def __len__(self) -> int:
        return len(self._ready)


def _arrival(task: Task, enqueued_at: float, now: float) -> float:
    return 0.0


def _priority(task: Task, enqueued_at: float, now: float) -> float:
    return task.priority


def _deadline(task: Task, enqueued_at: float, now: float) -> float:
    return float("inf") if task.deadline is None else task.deadline


def _aged(aging: float) -> Key:
    def key(task: Task, enqueued_at: float, now: float) -> float:
        return task.priority - max(0.0, now - enqueued_at) / aging
    return key


def reference_scheduler(name: str, time_slice: float = 10e-3,
                        aging: float = 50e-3) -> ReferenceScheduler:
    """The oracle for the discipline registered as ``name``."""
    if name == "fifo":
        return ReferenceScheduler(_arrival)
    if name == "rr":
        return ReferenceScheduler(_arrival, time_slice)
    if name == "priority":
        return ReferenceScheduler(_priority, time_slice)
    if name == "edf":
        return ReferenceScheduler(_deadline, time_slice)
    if name == "aged-priority":
        return ReferenceScheduler(_aged(aging), time_slice)
    raise ValueError(f"no reference for cpu scheduler {name!r}")
