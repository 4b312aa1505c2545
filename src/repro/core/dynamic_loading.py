"""Dynamic loading — the paper's first virtualization mechanism (§3).

The whole device is multiplexed among tasks: the configuration a task
needs is downloaded when it reaches the head of the fabric queue (lazily —
"upon system call"), skipped when still resident from a previous use
(configuration affinity), and optionally *preempted* while executing so
the fabric can be time-shared.

Preemption semantics follow the paper exactly, delegated to a
:class:`~repro.core.preemption.PreemptionPolicy`:

* combinational circuits finish their propagation and lose nothing;
* sequential circuits are either saved/restored (observable state
  required), rolled back to their initial data, or simply not preempted.

``fpga_time_slice=None`` disables preemption entirely: operations run to
completion once started, but every operation may still require a
download.  That is the paper's non-preemptable device (§4):
``make_service("nonpreemptable")``.  With a slice, :func:`fabric_verdict`
rules on whether each contended quantum boundary switches.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..osim import FpgaOp, Task
from ..sim import Resource
from ..telemetry import (
    Hit,
    Miss,
    OpStart,
    Preempt,
    Prefetch,
    Rollback,
    SchedDecision,
)
from .base import VfpgaServiceBase
from .preemption import PreemptionPolicy, RunToCompletion
from .registry import ConfigRegistry

__all__ = ["DynamicLoadingService", "FABRIC_SCHEDULERS", "fabric_verdict"]

#: The fabric scheduling rules, by name (the CLI ``--fabric-sched`` choices).
FABRIC_SCHEDULERS = ("fixed-quantum", "cost-aware")


def fabric_verdict(
    rule: str, slack: float, remaining: float, bill: float
) -> Tuple[bool, str]:
    """Switch the fabric at a contended quantum boundary? ``(switch, reason)``.

    ``fixed-quantum`` always switches.  ``cost-aware`` switches when the
    tightest waiter deadline ``slack`` (``inf`` = none) is under the
    fabric seconds the resident op still needs, else when the ``bill``
    (reload + state movement + lost progress) does not exceed them — the
    cost model of task-based preemptive FPGA scheduling (PAPERS.md).
    """
    if rule == "fixed-quantum":
        return True, "waiters"
    if slack < remaining:
        return True, "deadline-pressure"
    if bill <= remaining:
        return True, "cheap-switch"
    return False, "bill-exceeds-benefit"


class DynamicLoadingService(VfpgaServiceBase):
    """Whole-device dynamic loading with optional fabric time-slicing.

    Parameters
    ----------
    registry:
        The OS configuration tables.
    preemption:
        Preemption policy applied when the fabric time slice expires with
        waiters present.
    fpga_time_slice:
        Fabric quantum in seconds; ``None`` = no preemption.
    fabric_sched:
        The :func:`fabric_verdict` rule deciding *whether* a
        quantum-boundary preemption is worth its priced cost, by name.
        The default ``fixed-quantum`` preempts whenever anyone waits;
        ``cost-aware`` skips switches whose bill exceeds the fabric
        time they buy, unless a waiter's deadline is tight.
    eager:
        Load the dispatched task's next configuration in the background
        while it is still in its CPU section — the paper's "implicitly
        when the task is started or reactivated" (§3).  The prefetch only
        runs when the fabric is idle, so it can never delay an op already
        in flight, but a prefetch in progress does make a newly arriving
        op wait (the classic prefetch gamble).
    """

    def __init__(
        self,
        registry: ConfigRegistry,
        preemption: Optional[PreemptionPolicy] = None,
        fpga_time_slice: Optional[float] = None,
        fabric_sched: str = "fixed-quantum",
        eager: bool = False,
        **kw,
    ) -> None:
        super().__init__(registry, **kw)
        self.policy = preemption if preemption is not None else RunToCompletion()
        if fpga_time_slice is not None and fpga_time_slice <= 0:
            raise ValueError("fpga_time_slice must be positive or None")
        self.fpga_time_slice = fpga_time_slice
        if fabric_sched not in FABRIC_SCHEDULERS:
            raise ValueError(f"unknown fabric scheduler {fabric_sched!r}; "
                             f"have {sorted(FABRIC_SCHEDULERS)}")
        self.fabric_sched = fabric_sched
        self.eager = eager
        self.n_prefetches = 0
        self._prefetching: Optional[str] = None
        self._fabric: Optional[Resource] = None
        self._resident_config: Optional[str] = None
        #: tid -> task currently queued for the fabric (deadline slack).
        self._fabric_waiters: Dict[int, Task] = {}

    def attach(self, kernel) -> None:
        super().attach(kernel)
        self._fabric = Resource(self.sim)

    # ------------------------------------------------------------------
    def _ensure_resident(self, task: Optional[Task], entry):
        """Download ``entry`` if it is not the resident configuration."""
        if self._resident_config == entry.name and self.is_resident(entry.name):
            self._publish(Hit, task, handle=entry.name)
            return
        self._publish(Miss, task, handle=entry.name)
        if self._resident_config is not None and self.is_resident(
            self._resident_config
        ):
            yield from self._charge_unload(task, self._resident_config)
        self._resident_config = None
        yield from self._charge_load(task, entry, (0, 0))
        self._resident_config = entry.name

    # -- eager (implicit) loading ----------------------------------------
    def on_dispatch(self, task: Task) -> None:
        if not self.eager:
            return
        config = self.kernel.next_fpga_config(task)
        if (
            config is None
            or config == self._resident_config
            or config == self._prefetching
            or self._fabric is None
            or self._fabric.count > 0
            or self._fabric.queue_length > 0
        ):
            return
        self.sim.process(self._prefetch(config), name=f"prefetch:{config}")

    def _prefetch(self, config: str):
        req = self._fabric.request()
        if req not in self._fabric.users:
            req.cancel()  # raced with a real op: give way immediately
            return
        self._prefetching = config
        try:
            yield req  # already granted; consume the event
            entry = self.registry.get(config)
            if self._resident_config != config:
                self.n_prefetches += 1
                self._publish(Prefetch, None, config=config)
                yield from self._ensure_resident(None, entry)
        finally:
            self._prefetching = None
            self._fabric.release(req)

    def _waiter_slack(self) -> float:
        """Tightest deadline slack among tasks queued for the fabric
        (inf when nobody waiting declared a deadline)."""
        now = self.sim.now
        return min((w.deadline - now for w in self._fabric_waiters.values()
                    if w.deadline is not None), default=float("inf"))

    def execute(self, task: Task, op: FpgaOp):
        entry = self.registry.get(op.config)
        self._check_fits_device(entry)
        total = self.op_seconds(entry, op)
        remaining = total
        io_done = False
        restore_pending = False
        t_queued = self.sim.now
        self._publish(OpStart, task, config=op.config)
        # Anti-livelock patience: an operation that keeps losing its
        # progress to rollbacks would restart forever under contention (a
        # hazard the paper does not address).  Each rollback doubles the
        # quantum this op gets before it may be preempted again, so it
        # eventually runs to completion.
        op_rollbacks = 0

        while remaining > 0 or not io_done:
            req = self._fabric.request()
            # Visible to the fabric verdict while queued, so
            # the resident op's preemption points can price our slack.
            self._fabric_waiters[task.tid] = task
            try:
                yield req
            finally:
                self._fabric_waiters.pop(task.tid, None)
            self._charge_wait(task, t_queued)
            try:
                yield from self._ensure_resident(task, entry)
                if restore_pending:
                    yield from self._charge_state(
                        task,
                        self.fpga.port.state_restore_time(entry.bitstream).seconds,
                        "restore",
                        handle=entry.name,
                    )
                    restore_pending = False
                if not io_done:
                    yield from self._charge_io(task, entry, op)
                    io_done = True
                task.current_config = op.config
                while remaining > 0:
                    # With a fabric time slice the op always advances in
                    # quantum-sized chunks so waiters arriving mid-op get a
                    # preemption point; uncontended boundaries just continue.
                    quantum = (
                        self.fpga_time_slice * (2 ** op_rollbacks)
                        if self.fpga_time_slice is not None
                        else remaining
                    )
                    chunk = min(quantum, remaining)
                    yield from self._charge_exec(task, entry, chunk,
                                                 handle=entry.name)
                    remaining -= chunk
                    if remaining <= 1e-15:
                        remaining = 0.0
                        break
                    # The preemption mechanism decides first (its strict
                    # modes must raise even at uncontended boundaries);
                    # with waiters present the fabric verdict then prices
                    # the switch and may veto it.
                    done = total - remaining
                    decision = self.policy.decide(
                        entry, self.fpga.port, progress_done=done
                    )
                    waiting = self._fabric.queue_length
                    if waiting == 0:
                        continue  # keep the fabric
                    slack = self._waiter_slack()
                    reconfig = float(self.switch_reload_cost(entry))
                    state = decision.state_cost if decision.allowed else 0.0
                    lost = done if decision.allowed and not decision.keep_progress else 0.0
                    switch, reason = fabric_verdict(
                        self.fabric_sched, slack, remaining, reconfig + state + lost)
                    preempt = decision.allowed and switch
                    self._publish(
                        SchedDecision, task,
                        strategy=self.fabric_sched,
                        handle=entry.name,
                        preempt=preempt,
                        reason=reason,
                        waiting=waiting,
                        reconfig_cost=reconfig,
                        state_cost=state,
                        lost_cost=lost,
                        remaining=remaining,
                        slack=slack,
                    )
                    if not preempt:
                        continue  # keep the fabric
                    # -- preempt ------------------------------------------
                    task.accounting.n_preemptions += 1
                    self._publish(Preempt, task, handle=entry.name)
                    if decision.keep_progress:
                        if decision.save_cost:
                            yield from self._charge_state(
                                task, decision.save_cost, "save",
                                handle=entry.name,
                            )
                            restore_pending = True
                    else:
                        # Roll back: the computation restarts from the
                        # beginning "by presenting the initial data" (§3)
                        # — including the input transfer.
                        self._publish(Rollback, task, handle=entry.name)
                        task.accounting.n_rollbacks += 1
                        op_rollbacks += 1
                        remaining = total
                        io_done = False
                    break  # release the fabric; loop re-queues us
            finally:
                self._fabric.release(req)
            t_queued = self.sim.now
