"""Deterministic discrete-event simulation kernel.

This is the substrate beneath the simulated operating system
(:mod:`repro.osim`) and the VFPGA manager (:mod:`repro.core`).  It provides a
SimPy-style generator-process model: processes ``yield`` events, the
simulator advances virtual time between events, and all same-time ties break
deterministically in insertion order.  Events only ever succeed (an
exception leaves :meth:`Simulator.step` at once), and the one shared-resource
primitive is a FIFO mutex.
"""

from .events import Event, SimulationError, Timeout
from .process import Process
from .resources import Request, Resource
from .simulator import Simulator

__all__ = [
    "Event",
    "Process",
    "Request",
    "Resource",
    "SimulationError",
    "Simulator",
    "Timeout",
]
