"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic event-calendar design: an :class:`Event` is a
one-shot occurrence with a value and a list of callbacks.  Events move
through three states::

    pending --> triggered --> processed

An event becomes *triggered* when it is given a value and placed on the
simulator calendar; it becomes *processed* once the simulator has popped it
and run its callbacks.  Events only ever succeed: an error is an ordinary
Python exception that leaves :meth:`~repro.sim.Simulator.step` at once.
Processes (see :mod:`repro.sim.process`) suspend by yielding events and are
resumed by the event's callbacks.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .simulator import Simulator

__all__ = ["Event", "Timeout", "SimulationError"]


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


#: Sentinel distinguishing "no value yet" from "value is None".
_PENDING = object()


class Event:
    """A one-shot occurrence on the simulation calendar.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.simulator.Simulator`.

    Notes
    -----
    ``callbacks`` is a list of one-argument callables invoked (with the event
    itself) when the simulator processes the event.  After processing,
    ``callbacks`` is set to ``None`` so that late registration is an error
    rather than a silent no-op.
    """

    __slots__ = ("sim", "callbacks", "_value")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list | None = []
        self._value: object = _PENDING

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the calendar."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the simulator has run the callbacks."""
        return self.callbacks is None

    @property
    def value(self):
        """The event's value."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value=None) -> "Event":
        """Trigger the event with ``value`` at the current instant."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self.sim._enqueue(self, 0.0)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically ``delay`` time units from now."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value=None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(sim)
        self.delay = delay
        self._value = value
        sim._enqueue(self, delay)
