"""The shared-resource primitive built on the event kernel.

:class:`Resource` is a FIFO mutex: at most one granted request at a time,
and waiters are granted oldest first.  ``request()`` returns an event that
triggers when the lock is granted; ``release()`` hands it to the next
waiter.  The VFPGA services guard their configuration port, partitions and
fault paths with it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from .events import Event, SimulationError
from .simulator import Simulator

__all__ = ["Resource", "Request"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Usable as a context manager inside process bodies::

        with resource.request() as req:
            yield req
            ...   # holding the resource
        # released on exit
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim)
        self.resource = resource
        resource._waiting.append(self)
        resource._grant()

    def cancel(self) -> None:
        """Withdraw an ungranted request (granted requests must release)."""
        if self in self.resource._waiting:
            self.resource._waiting.remove(self)
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
    """A FIFO mutex: one holder at a time, waiters served oldest first."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: The granted request, if any (a list of at most one).
        self.users: List[Request] = []
        self._waiting: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of granted requests (0 or 1)."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests still waiting."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim the lock; the returned event triggers when granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return the lock and grant it to the oldest waiter."""
        if request not in self.users:
            raise SimulationError("release() of a request that is not held")
        self.users.clear()
        self._grant()

    def _grant(self) -> None:
        if self._waiting and not self.users:
            req = self._waiting.popleft()
            self.users.append(req)
            req.succeed(req)
