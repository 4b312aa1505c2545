"""The discrete-event simulation calendar.

:class:`Simulator` keeps a heap of ``(time, seq, event)`` entries.
``seq`` is a monotone counter so that events scheduled for the same time are
processed in insertion order (deterministic FIFO tie-breaking — essential
for reproducible OS scheduling experiments).
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from .events import Event, SimulationError, Timeout
from .process import Process

__all__ = ["Simulator"]


class Simulator:
    """Deterministic discrete-event simulator; time starts at 0.

    Examples
    --------
    >>> sim = Simulator()
    >>> log = []
    >>> def proc(sim, log):
    ...     yield sim.timeout(5)
    ...     log.append(sim.now)
    >>> _ = sim.process(proc(sim, log))
    >>> sim.run()
    >>> log
    [5.0]
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list = []
        self._seq = 0
        #: Optional per-step telemetry hook ``fn(now, queue_depth)`` —
        #: see :meth:`set_step_hook`.
        self._step_hook: Optional[Callable[[float, int], None]] = None

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event owned by this simulator."""
        return Event(self)

    def timeout(self, delay: float, value=None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator, name: str | None = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    # -- scheduling --------------------------------------------------------
    def _enqueue(self, event: Event, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, event))

    def schedule_callback(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` time units; returns the trigger event."""
        ev = Event(self)
        ev._value = None
        ev.callbacks.append(lambda _ev: fn())
        self._enqueue(ev, delay)
        return ev

    # -- telemetry ---------------------------------------------------------
    def set_step_hook(
        self, hook: Optional[Callable[[float, int], None]]
    ) -> None:
        """Install ``hook(now, queue_depth)``, invoked after every event is
        processed (``None`` uninstalls).  This is the event-loop telemetry
        tap: the kernel uses it to publish
        :class:`~repro.telemetry.SimStep` events with the calendar depth
        when step telemetry is enabled.  Costs one ``None`` check per step
        when uninstalled."""
        self._step_hook = hook

    # -- main loop ---------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event.  An exception raised by a callback
        (a process body included) propagates from here unchanged."""
        if not self._queue:
            raise SimulationError("calendar is empty")
        time, _seq, event = heapq.heappop(self._queue)
        if time < self._now:  # pragma: no cover - guarded by _enqueue
            raise SimulationError("time went backwards")
        self._now = time
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            raise SimulationError(f"{event!r} processed twice")
        for cb in callbacks:
            cb(event)
        if self._step_hook is not None:
            self._step_hook(self._now, len(self._queue))

    def run(self, until: float | None = None) -> None:
        """Run until the calendar empties or ``until`` time passes.

        Passing a time equal to ``now`` is allowed and processes all events
        scheduled at the current instant.
        """
        horizon = float("inf") if until is None else float(until)
        if horizon < self._now:
            raise SimulationError(f"until={horizon} is in the past (now={self._now})")
        while self._queue and self._queue[0][0] <= horizon:
            self.step()
        if horizon != float("inf"):
            self._now = horizon
