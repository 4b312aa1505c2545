"""Task model for the simulated multitasking operating system.

A task is a *program*: a deterministic sequence of CPU bursts and FPGA
operations (the paper's model of an application that offloads selected
algorithms to the FPGA co-processor board, §2/§3).  Tasks also *declare*
the FPGA configurations they will use — the paper's ``fopen``-style
registration that fills the OS tables at task-load time (§3).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

__all__ = ["TaskState", "CpuBurst", "FpgaOp", "Step", "Task", "TaskAccounting"]


class TaskState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    WAITING = "waiting"        # blocked on the FPGA service
    SUSPENDED = "suspended"    # blocked on a partition / admission queue
    DONE = "done"


@dataclass(frozen=True)
class CpuBurst:
    """``duration`` seconds of pure CPU work (time-sliced by the kernel)."""

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"negative CPU burst {self.duration}")


@dataclass(frozen=True)
class FpgaOp:
    """One hardware-accelerated operation.

    Attributes
    ----------
    config:
        Name of the declared configuration implementing the algorithm.
    cycles:
        Clock cycles of work; once resident the operation takes
        ``cycles × critical_path(config)`` seconds of FPGA time.
    io_words:
        Words transferred over the device pins for this operation (drives
        the I/O-multiplexing cost model, paper §2).
    """

    config: str
    cycles: int
    io_words: int = 0

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ValueError(f"FpgaOp needs >= 1 cycle, got {self.cycles}")
        if self.io_words < 0:
            raise ValueError("negative io_words")


Step = Union[CpuBurst, FpgaOp]

_tid_counter = itertools.count(1)


@dataclass
class TaskAccounting:
    """Per-task time accounting, filled in by the kernel and FPGA service."""

    arrival: float = 0.0
    first_dispatch: Optional[float] = None
    completion: Optional[float] = None
    cpu_time: float = 0.0
    fpga_exec_time: float = 0.0       #: useful cycles on the fabric
    fpga_reconfig_time: float = 0.0   #: loads/unloads charged to this task
    fpga_state_time: float = 0.0      #: state save/restore charged
    fpga_io_time: float = 0.0         #: pin-multiplexed transfer time
    fpga_wait_time: float = 0.0       #: queueing for device/partition
    ready_wait_time: float = 0.0      #: waiting for the CPU
    n_fpga_ops: int = 0
    n_reconfigs: int = 0
    n_preemptions: int = 0
    n_rollbacks: int = 0
    #: Set (once) by the FPGA service when the task completes after its
    #: declared deadline — the idempotency latch behind the
    #: ``DeadlineMiss`` telemetry event.
    deadline_missed: bool = False

    @property
    def turnaround(self) -> Optional[float]:
        if self.completion is None:
            return None
        return self.completion - self.arrival

    @property
    def fpga_overhead_time(self) -> float:
        """All non-useful FPGA-related time."""
        return (
            self.fpga_reconfig_time
            + self.fpga_state_time
            + self.fpga_wait_time
            + self.fpga_io_time
        )


class Task:
    """One application task.

    Parameters
    ----------
    name:
        Human-readable identifier (unique names make traces readable).
    program:
        The step sequence.
    configs:
        Configuration names this task declares (defaults to those used by
        its FpgaOps).  Declaring extra configurations is legal; using an
        undeclared one is a kernel error — mirroring the paper's rule that
        configurations must be registered in the OS tables up front.
    priority:
        Lower = more important (only priority schedulers look at it —
        :class:`~repro.osim.scheduler.PriorityScheduler` and
        :class:`~repro.osim.scheduler.AgedPriority`, which decays it with
        waiting time).
    arrival:
        Simulation time at which the task enters the system.  Absolute
        (not relative to spawn); the kernel admits the task at exactly
        this instant and deadline slack is measured from it.
    deadline:
        Optional absolute completion deadline in simulation seconds.
        Purely advisory metadata: the kernel never aborts a late task.
        Deadline-aware engines read it — ``edf`` CPU scheduling orders
        the ready queue by it, the ``cost-aware`` fabric rule
        preempts under waiter deadline pressure — and the FPGA service
        publishes a ``DeadlineMiss`` event (counted in
        ``ServiceMetrics.n_deadline_misses``) when the task finishes
        past it.  ``None`` (the default) = no deadline.
    """

    def __init__(
        self,
        name: str,
        program: Sequence[Step],
        configs: Optional[Sequence[str]] = None,
        priority: int = 0,
        arrival: float = 0.0,
        deadline: Optional[float] = None,
    ) -> None:
        self.tid = next(_tid_counter)
        self.name = name
        self.program: List[Step] = list(program)
        used = [s.config for s in self.program if isinstance(s, FpgaOp)]
        self.configs: List[str] = list(
            dict.fromkeys(used if configs is None else list(configs))
        )
        missing = set(used) - set(self.configs)
        if missing:
            raise ValueError(
                f"task {name!r} uses undeclared configurations {sorted(missing)}"
            )
        self.priority = priority
        self.arrival = arrival
        if deadline is not None and deadline < arrival:
            raise ValueError(
                f"task {name!r} deadline {deadline} precedes its "
                f"arrival {arrival}"
            )
        self.deadline = deadline
        self.state = TaskState.NEW
        self.accounting = TaskAccounting(arrival=arrival)
        #: Set by the FPGA service: most recently used configuration.
        self.current_config: Optional[str] = None

    @property
    def total_cpu_demand(self) -> float:
        return sum(s.duration for s in self.program if isinstance(s, CpuBurst))

    @property
    def fpga_ops(self) -> List[FpgaOp]:
        return [s for s in self.program if isinstance(s, FpgaOp)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task {self.name!r} #{self.tid} {self.state.value}>"
