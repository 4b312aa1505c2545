"""Simulated multitasking operating system.

Tasks (CPU bursts ↔ FPGA operations), CPU schedulers, a policy-free kernel
and the :class:`FpgaService` boundary behind which :mod:`repro.core`
implements every VFPGA strategy of the paper.
"""

from .kernel import DeadlockError, Kernel
from .scheduler import (
    CPU_SCHEDULERS,
    AgedPriority,
    DeadlineEDF,
    Fifo,
    PriorityScheduler,
    RoundRobin,
    Scheduler,
    make_cpu_scheduler,
)
from .syscalls import FpgaService, NullFpgaService, SyscallError
from .task import CpuBurst, FpgaOp, Step, Task, TaskAccounting, TaskState
from .trace import RunStats, run_stats
from .workload import (
    alternating_task,
    bursty_arrivals,
    uniform_workload,
    zipf_index,
    zipf_workload,
)

__all__ = [
    "AgedPriority",
    "CPU_SCHEDULERS",
    "CpuBurst",
    "DeadlineEDF",
    "DeadlockError",
    "Fifo",
    "FpgaOp",
    "FpgaService",
    "Kernel",
    "NullFpgaService",
    "PriorityScheduler",
    "RoundRobin",
    "RunStats",
    "Scheduler",
    "Step",
    "SyscallError",
    "Task",
    "TaskAccounting",
    "TaskState",
    "alternating_task",
    "bursty_arrivals",
    "make_cpu_scheduler",
    "run_stats",
    "uniform_workload",
    "zipf_index",
    "zipf_workload",
]
