"""Shared-resource primitives built on the event kernel.

Provides the two constructs the simulated OS needs:

* :class:`Resource` — a capacity-limited resource with a FIFO (optionally
  priority-ordered) wait queue.  ``request()`` returns an event that triggers
  when a slot is granted; ``release()`` frees a slot.
* :class:`Store` — an unbounded (or bounded) FIFO of Python objects with
  blocking ``get``/``put``, used for message queues between OS components.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from .events import Event, SimulationError
from .simulator import Simulator

__all__ = ["Resource", "Request", "Store"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Usable as a context manager inside process bodies::

        with resource.request() as req:
            yield req
            ...   # holding the resource
        # released on exit
    """

    __slots__ = ("resource", "priority", "key")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        super().__init__(resource.sim)
        self.resource = resource
        self.priority = priority
        self.key = (priority, next(resource._ticket))
        heapq.heappush(resource._waiting, self)
        resource._grant()

    def __lt__(self, other: "Request") -> bool:
        """Wait-queue heap order: priority, then arrival (keys are unique)."""
        return self.key < other.key

    def cancel(self) -> None:
        """Withdraw an ungranted request (granted requests must release)."""
        if self in self.resource._waiting:
            self.resource._waiting.remove(self)
            heapq.heapify(self.resource._waiting)
        elif self in self.resource.users:
            raise SimulationError("cancel() on a granted request; use release()")

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc) -> None:
        if self in self.resource.users:
            self.resource.release(self)
        else:
            self.cancel()


class Resource:
    """Capacity-limited shared resource with an ordered wait queue.

    Lower ``priority`` values are served first; ties are FIFO.
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.users: List[Request] = []
        #: Ungranted requests, a heap on ``Request.key``.
        self._waiting: List[Request] = []
        self._ticket = itertools.count()

    @property
    def count(self) -> int:
        """Number of granted (active) requests."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests still waiting."""
        return len(self._waiting)

    def request(self, priority: int = 0) -> Request:
        """Claim one slot; the returned event triggers when granted."""
        return Request(self, priority=priority)

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        try:
            self.users.remove(request)
        except ValueError:
            raise SimulationError("release() of a request that is not held") from None
        self._grant()

    def _grant(self) -> None:
        while self._waiting and len(self.users) < self.capacity:
            req = heapq.heappop(self._waiting)
            self.users.append(req)
            req.succeed(req)


class Store:
    """Blocking FIFO of arbitrary items.

    ``put`` blocks while the store is full (if bounded); ``get`` blocks while
    it is empty.  Both return events.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        ev = Event(self.sim)
        self._putters.append((ev, item))
        self._settle()
        return ev

    def get(self) -> Event:
        ev = Event(self.sim)
        self._getters.append(ev)
        self._settle()
        return ev

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters and (
                self.capacity is None or len(self.items) < self.capacity
            ):
                ev, item = self._putters.popleft()
                self.items.append(item)
                ev.succeed(item)
                progress = True
            if self._getters and self.items:
                ev = self._getters.popleft()
                ev.succeed(self.items.popleft())
                progress = True
