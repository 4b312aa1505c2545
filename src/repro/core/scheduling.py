"""Fabric scheduling engine: is preempting the resident circuit worth it?

The paper's §3 preemption mechanics (save/restore vs rollback) say *how*
to preempt; this engine prices the whole context switch on a
reconfigurable device — the victim's eventual reload (delta-frame cost
from the resident :class:`~repro.device.ConfigRam` digests), the state
movement of the :class:`~repro.core.preemption.PreemptDecision`, the
progress a rollback discards — and weighs the bill against the fabric
time a switch buys the waiters.  ``fixed-quantum`` reproduces the seed
behavior (preempt whenever anyone waits); :class:`CostAwareFabric` skips
switches whose bill exceeds the benefit, following the cost models of
task-based preemptive FPGA scheduling on partial reconfiguration
(PAPERS.md).

The CPU side — the kernel's ready-queue disciplines — lives in
:mod:`repro.osim.scheduler`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Type, Union

from .preemption import PreemptDecision

__all__ = [
    "SwitchContext",
    "FabricDecision",
    "FabricSchedulerPolicy",
    "FixedQuantumFabric",
    "CostAwareFabric",
    "FABRIC_SCHEDULERS",
    "make_fabric_scheduler",
]


def _require_positive(value: float, what: str) -> float:
    if value <= 0:
        raise ValueError(f"{what} must be positive")
    return value


class SwitchContext:
    """Everything a fabric strategy may price at one preemption point.

    The reload cost is computed lazily through ``reload_cost`` (a
    callback into the service's delta-frame pricing against the
    resident :class:`~repro.device.ConfigRam` digests) and memoized, so
    strategies that never look at it — ``fixed-quantum`` — pay nothing.

    ``decision`` is the mechanism the
    :class:`~repro.core.preemption.PreemptionPolicy` already chose
    (save/restore vs rollback); the fabric strategy prices that
    mechanism, it never overrides it.
    """

    def __init__(
        self,
        waiting: int,
        remaining: float,
        progress_done: float,
        decision: PreemptDecision,
        waiter_slack: float,
        reload_cost: Callable[[], float],
    ) -> None:
        #: Operations queued for the fabric right now.
        self.waiting = waiting
        #: Fabric seconds the resident op still needs.
        self.remaining = remaining
        #: Fabric seconds the resident op has already run.
        self.progress_done = progress_done
        #: The preemption mechanism's verdict for this point.
        self.decision = decision
        #: Tightest waiter deadline slack (inf = no deadlines waiting).
        self.waiter_slack = waiter_slack
        self._reload_cost = reload_cost
        self._reconfig_cost: Optional[float] = None

    @property
    def reconfig_cost(self) -> float:
        """Port seconds to make the victim resident again (memoized)."""
        if self._reconfig_cost is None:
            self._reconfig_cost = float(self._reload_cost())
        return self._reconfig_cost

    @property
    def state_cost(self) -> float:
        """Save + restore seconds if the mechanism keeps progress."""
        d = self.decision
        return d.state_cost if d.allowed else 0.0

    @property
    def lost_progress(self) -> float:
        """Fabric seconds a rollback would discard (re-done later)."""
        d = self.decision
        if d.allowed and not d.keep_progress:
            return self.progress_done
        return 0.0

    @property
    def bill(self) -> float:
        """Total cost of switching now: reload + state + lost work."""
        return self.reconfig_cost + self.state_cost + self.lost_progress


@dataclass(frozen=True)
class FabricDecision:
    """A fabric strategy's verdict at one preemption point."""

    preempt: bool
    reason: str = ""


class FabricSchedulerPolicy(ABC):
    """Strategy deciding whether a priced context switch happens."""

    name: str = "abstract"

    @abstractmethod
    def decide(self, ctx: SwitchContext) -> FabricDecision:
        """Preempt the resident op at this quantum boundary?"""

    def __repr__(self) -> str:
        params = ", ".join(
            f"{k}={v!r}" for k, v in sorted(vars(self).items())
            if not k.startswith("_")
        )
        return f"{type(self).__name__}({params})"


class FixedQuantumFabric(FabricSchedulerPolicy):
    """The seed behavior, reproduced exactly: preempt whenever anyone
    is waiting, blind to what the switch costs."""

    name = "fixed-quantum"

    def decide(self, ctx: SwitchContext) -> FabricDecision:
        if ctx.waiting > 0:
            return FabricDecision(True, "waiters")
        return FabricDecision(False, "idle")


class CostAwareFabric(FabricSchedulerPolicy):
    """Skip preemptions whose bill exceeds the benefit.

    Switching now buys the waiters up to ``remaining`` fabric seconds
    of earlier access; it costs the switch bill (victim reload + state
    movement or lost progress).  The strategy preempts only when

    * a waiter's deadline slack is tighter than ``remaining`` (deadline
      pressure overrides economics), or
    * ``bill * margin <= remaining`` — the switch is cheap relative to
      what it buys.

    ``margin > 1`` demands a larger payoff before switching (more
    conservative); ``margin < 1`` switches more eagerly.
    """

    name = "cost-aware"

    def __init__(self, margin: float = 1.0) -> None:
        self.margin = _require_positive(margin, "margin")

    def decide(self, ctx: SwitchContext) -> FabricDecision:
        if ctx.waiting == 0:
            return FabricDecision(False, "idle")
        if ctx.waiter_slack < ctx.remaining:
            return FabricDecision(True, "deadline-pressure")
        if ctx.bill * self.margin <= ctx.remaining:
            return FabricDecision(True, "cheap-switch")
        return FabricDecision(False, "bill-exceeds-benefit")


#: Registry of instantiable fabric strategies (CLI sweep space).
FABRIC_SCHEDULERS: Dict[str, Type[FabricSchedulerPolicy]] = {
    cls.name: cls for cls in (FixedQuantumFabric, CostAwareFabric)
}


def make_fabric_scheduler(
    name: Union[str, FabricSchedulerPolicy], **kw
) -> FabricSchedulerPolicy:
    """Instantiate a fabric strategy by name (instances pass through)."""
    if isinstance(name, FabricSchedulerPolicy):
        if kw:
            raise ValueError(
                "cannot pass constructor kwargs with a ready-made "
                f"FabricSchedulerPolicy instance ({name!r})"
            )
        return name
    try:
        cls = FABRIC_SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown fabric scheduler {name!r}; "
            f"have {sorted(FABRIC_SCHEDULERS)}"
        ) from None
    return cls(**kw)
