"""Generator-based simulation processes.

A *process* is a Python generator that yields :class:`~repro.sim.events.Event`
instances.  Yielding an event suspends the process until the event is
processed; the event's value is then sent back into the generator.  This is
the coroutine style of SimPy, which the simulated operating system in
:mod:`repro.osim` is written in.
"""

from __future__ import annotations

import typing

from .events import Event, SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator

__all__ = ["Process"]


class Process:
    """Drives a generator through the event calendar.

    The process starts through an event queued at the current instant.  A
    finished process enqueues nothing, and nothing can wait on it.  An
    exception that escapes the generator leaves
    :meth:`~repro.sim.Simulator.step` unchanged, at the instant it is raised.
    """

    __slots__ = ("sim", "generator", "name")

    def __init__(self, sim: "Simulator", generator, name: str | None = None) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        self.sim = sim
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        init = Event(sim)
        init.callbacks.append(self._resume)
        init.succeed()

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s value."""
        try:
            next_ev = self.generator.send(event._value)
        except StopIteration:
            return
        if not isinstance(next_ev, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {next_ev!r}, expected an Event"
            )
        if next_ev.sim is not self.sim:
            raise SimulationError("yielded event belongs to another simulator")
        if next_ev.callbacks is None:
            # Already processed: resume at the next step of this instant.
            relay = Event(self.sim)
            relay.callbacks.append(self._resume)
            relay.succeed(next_ev._value)
        else:
            next_ev.callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r}>"
