"""Preemption policies for circuits executing on the fabric (paper §3).

When the OS wants the device back before an operation finishes, the paper
enumerates the options:

* **combinational circuits** — simply wait for the propagation to complete
  (nanoseconds); nothing needs saving, completed evaluations stand;
* **sequential circuits** — either *save and restore* the internal state
  (only if the circuit was designed observable and controllable), or
  *roll back*: discard progress and later restart from the initial data,
  or refuse preemption altogether (*run to completion*).

A policy reduces to one :class:`PreemptDecision` per preemption point; the
services charge the returned costs and keep or discard progress
accordingly.  :class:`Adaptive` picks rollback vs save/restore by
comparing the work that would be lost with the state-movement cost — the
paper's "as simple and fast as possible" requirement turned into a rule.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..device import ConfigPort
from .errors import StateAccessError
from .registry import ConfigEntry

__all__ = [
    "PreemptDecision",
    "PreemptionPolicy",
    "RunToCompletion",
    "Rollback",
    "SaveRestore",
    "Adaptive",
]


@dataclass(frozen=True)
class PreemptDecision:
    """What happens at one preemption point."""

    allowed: bool
    keep_progress: bool = False
    save_cost: float = 0.0      #: charged when the circuit is preempted
    restore_cost: float = 0.0   #: charged when it resumes (reload is separate)
    used_state_access: bool = False

    @property
    def state_cost(self) -> float:
        """Total state movement (save + restore) this decision would
        charge — the term the fabric verdict prices against
        the reconfiguration bill (zero unless progress is kept)."""
        return self.save_cost + self.restore_cost if self.keep_progress else 0.0


class PreemptionPolicy(ABC):
    """Strategy deciding whether/how an executing circuit is preempted."""

    name: str = "abstract"

    @abstractmethod
    def decide(
        self, entry: ConfigEntry, port: ConfigPort, progress_done: float
    ) -> PreemptDecision:
        """``progress_done`` is the fabric time already spent on the op."""

    @staticmethod
    def _combinational(entry: ConfigEntry) -> PreemptDecision:
        # Wait-for-propagation: one clock period and the outputs are done;
        # completed evaluations are results already delivered, so progress
        # is inherently preserved at zero state cost.
        return PreemptDecision(allowed=True, keep_progress=True)


class RunToCompletion(PreemptionPolicy):
    """Never preempt (the paper's non-preemptable resource, §4)."""

    name = "run-to-completion"

    def decide(self, entry, port, progress_done):
        return PreemptDecision(allowed=False)


class Rollback(PreemptionPolicy):
    """Preempt by discarding progress; the op restarts from its initial
    data when the task gets the fabric back (§3)."""

    name = "rollback"

    def decide(self, entry, port, progress_done):
        if not entry.is_sequential:
            return self._combinational(entry)
        return PreemptDecision(allowed=True, keep_progress=False)


class SaveRestore(PreemptionPolicy):
    """Preempt by reading back all memory elements and restoring them on
    resume.  Requires the circuit's state to be observable and
    controllable; ``strict=True`` raises on inaccessible circuits,
    otherwise they fall back to run-to-completion (refusing preemption is
    always safe)."""

    name = "save-restore"

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict

    def decide(self, entry, port, progress_done):
        if not entry.is_sequential:
            return self._combinational(entry)
        if not entry.state_accessible:
            if self.strict:
                raise StateAccessError(
                    f"configuration {entry.name!r} has unobservable state; "
                    "save/restore preemption is impossible (paper §3)"
                )
            return PreemptDecision(allowed=False)
        return PreemptDecision(
            allowed=True,
            keep_progress=True,
            save_cost=port.state_save_time(entry.bitstream).seconds,
            restore_cost=port.state_restore_time(entry.bitstream).seconds,
            used_state_access=True,
        )


class Adaptive(PreemptionPolicy):
    """Pick the cheaper of rollback and save/restore at each point.

    Rolling back costs the progress already made (it must be redone);
    saving costs the state movement.  Early in an op rollback is cheap,
    late in a long op save/restore wins — the crossover experiment E6
    charts exactly this.
    """

    name = "adaptive"

    def decide(self, entry, port, progress_done):
        if not entry.is_sequential:
            return self._combinational(entry)
        if not entry.state_accessible:
            return PreemptDecision(allowed=True, keep_progress=False)
        move_cost = (
            port.state_save_time(entry.bitstream).seconds
            + port.state_restore_time(entry.bitstream).seconds
        )
        if progress_done <= move_cost:
            return PreemptDecision(allowed=True, keep_progress=False)
        return PreemptDecision(
            allowed=True,
            keep_progress=True,
            save_cost=port.state_save_time(entry.bitstream).seconds,
            restore_cost=port.state_restore_time(entry.bitstream).seconds,
            used_state_access=True,
        )
