"""The simulated multitasking kernel.

One CPU, a pluggable CPU scheduler, a pluggable FPGA service.  Tasks are
programs of CPU bursts and FPGA operations: CPU bursts are time-sliced on
the single processor; FPGA operations block the issuing task (it leaves
the CPU) while the service carries them out concurrently — the
co-processor model of the paper (§2).

The kernel is deliberately policy-free about the FPGA: every decision the
paper discusses (when to download, whether to preempt, where to place)
lives behind :class:`repro.osim.syscalls.FpgaService`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim import Event, Simulator
from ..telemetry import (
    Admit,
    Dispatch,
    EventBus,
    FpgaComplete,
    FpgaRequest,
    QuantumExpired,
    SimStep,
    TaskDone,
)
from .scheduler import Scheduler
from .syscalls import FpgaService, SyscallError
from .task import CpuBurst, FpgaOp, Task, TaskState
from .trace import RunStats, run_stats

__all__ = ["Kernel", "DeadlockError"]


class DeadlockError(Exception):
    """The simulation ended with unfinished tasks."""


class _Progress:
    """Kernel-private execution cursor of one task."""

    __slots__ = ("step_index", "remaining", "enqueued_at")

    def __init__(self) -> None:
        self.step_index = 0
        self.remaining: Optional[float] = None  # of the current CPU burst
        self.enqueued_at: float = 0.0


class Kernel:
    """One simulated computing system: CPU + scheduler + FPGA service.

    Parameters
    ----------
    sim:
        The discrete-event simulator to run on.
    scheduler:
        CPU scheduling discipline (see :mod:`repro.osim.scheduler`).
    fpga_service:
        FPGA management policy (see :mod:`repro.core`).
    context_switch:
        Seconds charged at every dispatch.
    bus:
        The telemetry :class:`~repro.telemetry.EventBus` every layer
        publishes into (a fresh private bus when omitted).  The kernel
        subscribes nothing itself: to keep the run's events, attach an
        :class:`~repro.telemetry.EventLog` (or exporters, profilers) to a
        shared bus before the run starts.
    telemetry_steps:
        Publish a :class:`~repro.telemetry.SimStep` event (with calendar
        depth) for every simulator step.  Off by default — it is the one
        high-frequency event source.
    op_deadline:
        Liveness watchdog in simulation seconds: if an FPGA operation is
        still open that long after its :class:`~repro.telemetry.FpgaRequest`,
        the kernel raises :class:`DeadlockError` at the deadline instant
        instead of simulating a starving system to the bitter end
        (``None`` = off).  The stream-side equivalent is the
        :class:`~repro.telemetry.Auditor` ``deadline``.
    """

    #: ``source`` attribution of kernel-published events.
    SOURCE = "kernel"

    def __init__(
        self,
        sim: Simulator,
        scheduler: Scheduler,
        fpga_service: FpgaService,
        context_switch: float = 20e-6,
        bus: Optional[EventBus] = None,
        telemetry_steps: bool = False,
        op_deadline: Optional[float] = None,
    ) -> None:
        if op_deadline is not None and op_deadline <= 0:
            raise ValueError("op_deadline must be positive (or None)")
        self.sim = sim
        self.scheduler = scheduler
        # Time-aware disciplines (aging) read the simulation clock.
        scheduler.bind_clock(lambda: sim.now)
        self.service = fpga_service
        self.bus = bus if bus is not None else EventBus()
        if telemetry_steps:
            sim.set_step_hook(
                lambda now, depth: self.bus.publish(
                    SimStep(now, source=self.SOURCE, queue_depth=depth)
                )
            )
        self.service.attach(self)
        self.context_switch = context_switch
        self.op_deadline = op_deadline
        self.tasks: List[Task] = []
        #: Span-correlation ids: every FpgaRequest/FpgaComplete pair
        #: shares one kernel-unique op id (see repro.telemetry.spans).
        self._next_op_id = 1
        #: op_id -> (task name, config) of in-flight FPGA operations
        #: (the op_deadline watchdog's view).
        self._open_ops: Dict[int, tuple] = {}
        self._progress: Dict[int, _Progress] = {}
        self._wakeup: Optional[Event] = None
        self._dispatcher_started = False
        self.total_context_switches = 0

    # -- admission -----------------------------------------------------------
    def spawn(self, task: Task) -> Task:
        """Register ``task``; it arrives at ``task.arrival``.  A refused
        task leaves no trace, so a corrected one can be spawned again."""
        if task.state is not TaskState.NEW or task.tid in self._progress:
            raise ValueError(f"task {task.name!r} already spawned")
        delay = task.arrival - self.sim.now
        if delay < 0:
            raise ValueError(f"task {task.name!r} arrives in the past")
        self.tasks.append(task)
        self._progress[task.tid] = _Progress()
        self.sim.schedule_callback(delay, lambda: self._admit(task))
        self._ensure_dispatcher()
        return task

    def spawn_all(self, tasks) -> List[Task]:
        return [self.spawn(t) for t in tasks]

    def _admit(self, task: Task) -> None:
        task.state = TaskState.READY
        task.accounting.arrival = self.sim.now
        self.service.register_task(task)
        self.bus.publish(Admit(self.sim.now, task.name, source=self.SOURCE))
        self._make_ready(task)

    def _make_ready(self, task: Task) -> None:
        task.state = TaskState.READY
        self._progress[task.tid].enqueued_at = self.sim.now
        self.scheduler.enqueue(task)
        self._kick()

    def _kick(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _ensure_dispatcher(self) -> None:
        if not self._dispatcher_started:
            self._dispatcher_started = True
            self.sim.process(self._dispatcher(), name="dispatcher")

    # -- the CPU loop ------------------------------------------------------------
    def _dispatcher(self):
        while True:
            # Let every event scheduled for the current instant (admissions,
            # unblocks) settle before making a scheduling decision.
            yield self.sim.timeout(0)
            task = self.scheduler.pick()
            if task is None:
                if self._all_done():
                    return
                self._wakeup = self.sim.event()
                yield self._wakeup
                self._wakeup = None
                continue
            prog = self._progress[task.tid]
            task.accounting.ready_wait_time += self.sim.now - prog.enqueued_at
            if task.accounting.first_dispatch is None:
                task.accounting.first_dispatch = self.sim.now
            task.state = TaskState.RUNNING
            self.total_context_switches += 1
            self.bus.publish(
                Dispatch(self.sim.now, task.name, source=self.SOURCE)
            )
            if self.context_switch:
                yield self.sim.timeout(self.context_switch)
            self.service.on_dispatch(task)
            yield from self._run_quantum(task)

    def _run_quantum(self, task: Task):
        """Run ``task`` on the CPU until it blocks, exhausts its quantum,
        or finishes."""
        prog = self._progress[task.tid]
        budget = self.scheduler.quantum(task)
        while True:
            if prog.step_index >= len(task.program):
                self._finish(task)
                return
            step = task.program[prog.step_index]
            if isinstance(step, CpuBurst):
                if prog.remaining is None:
                    prog.remaining = step.duration
                slice_ = min(budget, prog.remaining)
                if slice_ > 0:
                    yield self.sim.timeout(slice_)
                    task.accounting.cpu_time += slice_
                    prog.remaining -= slice_
                    budget -= slice_
                if prog.remaining <= 1e-15:
                    prog.remaining = None
                    prog.step_index += 1
                if budget <= 1e-15:
                    if prog.step_index < len(task.program):
                        self.bus.publish(
                            QuantumExpired(self.sim.now, task.name,
                                           source=self.SOURCE)
                        )
                        self._make_ready(task)
                        return
            elif isinstance(step, FpgaOp):
                if step.config not in task.configs:
                    raise SyscallError(
                        f"task {task.name!r} uses undeclared config "
                        f"{step.config!r}"
                    )
                prog.step_index += 1
                task.state = TaskState.WAITING
                task.accounting.n_fpga_ops += 1
                op_id = self._next_op_id
                self._next_op_id += 1
                self.bus.publish(
                    FpgaRequest(self.sim.now, task.name, source=self.SOURCE,
                                config=step.config, op_id=op_id)
                )
                if self.op_deadline is not None:
                    self._open_ops[op_id] = (task.name, step.config)
                    self.sim.schedule_callback(
                        self.op_deadline,
                        lambda oid=op_id: self._check_op_deadline(oid),
                    )
                self.sim.process(
                    self._fpga_wrapper(task, step, op_id),
                    name=f"fpga:{task.name}",
                )
                return  # the CPU is free while the task waits
            else:  # pragma: no cover - guarded by Task typing
                raise TypeError(f"unknown step {step!r}")

    def _check_op_deadline(self, op_id: int) -> None:
        open_op = self._open_ops.get(op_id)
        if open_op is not None:
            task, config = open_op
            raise DeadlockError(
                f"operation {op_id} ({config!r}) of task {task!r} is still "
                f"open {self.op_deadline:g}s after its request "
                f"(op_deadline liveness watchdog)"
            )

    def _fpga_wrapper(self, task: Task, op: FpgaOp, op_id: int):
        yield from self.service.execute(task, op)
        self._open_ops.pop(op_id, None)
        self.bus.publish(
            FpgaComplete(self.sim.now, task.name, source=self.SOURCE,
                         config=op.config, op_id=op_id)
        )
        if self._progress[task.tid].step_index >= len(task.program):
            self._finish(task)
        else:
            self._make_ready(task)

    def _finish(self, task: Task) -> None:
        task.state = TaskState.DONE
        task.accounting.completion = self.sim.now
        self.service.on_task_exit(task)
        self.bus.publish(TaskDone(self.sim.now, task.name, source=self.SOURCE))
        self._kick()

    def _all_done(self) -> bool:
        return all(t.state is TaskState.DONE for t in self.tasks)

    # -- service queries -----------------------------------------------------
    def next_fpga_config(self, task: Task) -> Optional[str]:
        """The configuration of the task's next FPGA operation, if any.

        Services use this at dispatch time to load configurations
        *implicitly* when a task is started or reactivated (paper §3's
        eager variant of dynamic loading).
        """
        prog = self._progress.get(task.tid)
        if prog is None:
            return None
        for step in task.program[prog.step_index:]:
            if isinstance(step, FpgaOp):
                return step.config
        return None

    # -- running -----------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> RunStats:
        """Run the simulation to completion and return the run statistics.

        Raises :class:`DeadlockError` if the calendar empties (or ``until``
        passes) while tasks are unfinished — e.g. a task starving forever
        on a partition request (the paper's §4 hazard).
        """
        self.sim.run(until=until)
        stuck = [
            f"{t.name}({t.state.value})"
            for t in self.tasks
            if t.state is not TaskState.DONE
        ]
        if stuck:
            raise DeadlockError(f"unfinished tasks: {stuck[:8]}")
        return run_stats(self.tasks, makespan=self._makespan())

    def _makespan(self) -> float:
        if not self.tasks:
            return 0.0
        return max(
            (t.accounting.completion or 0.0) for t in self.tasks
        ) - min(t.accounting.arrival for t in self.tasks)

    def stats(self) -> RunStats:
        """Statistics of an already finished run."""
        return run_stats(self.tasks, makespan=self._makespan())
