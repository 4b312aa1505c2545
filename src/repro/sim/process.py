"""Generator-based simulation processes.

A *process* is a Python generator that yields :class:`~repro.sim.events.Event`
instances.  Yielding an event suspends the process until the event is
processed; the event's value is sent back into the generator (or its
exception thrown in).  This mirrors the coroutine style of SimPy, which the
simulated operating system in :mod:`repro.osim` is written in.
"""

from __future__ import annotations

import typing

from .events import Event, SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries an arbitrary payload describing why the process was
    interrupted (e.g. "preempted").
    """

    @property
    def cause(self):
        return self.args[0]


class Process(Event):
    """Wraps a generator and drives it through the event calendar.

    A ``Process`` is itself an :class:`Event`: it triggers with the
    generator's return value when the generator finishes (or fails with the
    escaping exception).  Other processes can therefore ``yield`` a process
    to join on it.
    """

    __slots__ = ("generator", "name", "_target", "_started")

    def __init__(self, sim: "Simulator", generator, name: str | None = None) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None when running
        #: or finished).  Used by interrupt() to detach from the old target.
        self._target: Event | None = None
        self._started = False
        # Kick off the process at the current simulation time.
        init = Event(sim)
        init.callbacks.append(self._resume)
        init._ok = True
        init._value = None
        sim._enqueue(init, delay=0.0)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause=None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event (the event
        still fires, but this process no longer reacts to it).
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        if self._target is self:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_ev = Event(self.sim)
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev.defused = True
        interrupt_ev.callbacks.append(self._resume)
        self.sim._enqueue(interrupt_ev, delay=0.0)

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        if self.triggered:
            # Already finished (e.g. an interrupt raced with completion).
            return
        # Detach from the event we were waiting on, if any.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        self.sim._active_process = self
        try:
            if event._ok:
                next_ev = self.generator.send(event._value if self._started else None)
            else:
                event.defused = True
                next_ev = self.generator.throw(event._value)
        except StopIteration as stop:
            self.sim._active_process = None
            self._started = True
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.sim._active_process = None
            self._started = True
            self.fail(exc)
            return
        finally:
            self._started = True
            self.sim._active_process = None

        if not isinstance(next_ev, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {next_ev!r}, expected an Event"
            )
        if next_ev.sim is not self.sim:
            raise SimulationError("yielded event belongs to another simulator")
        if next_ev.processed:
            # Event already happened: resume immediately (next tick, t+0).
            relay = Event(self.sim)
            relay._ok = next_ev._ok
            relay._value = next_ev._value
            if not next_ev._ok:
                relay.defused = True
            relay.callbacks.append(self._resume)
            self.sim._enqueue(relay, delay=0.0)
            self._target = relay
        else:
            next_ev.callbacks.append(self._resume)
            self._target = next_ev

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} {'done' if self.triggered else 'alive'}>"
