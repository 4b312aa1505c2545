"""Run-level statistics.

The experiment harness reduces finished runs to a :class:`RunStats` row,
the unit every benchmark table is built from.  A run's events are kept
by subscribing a :class:`~repro.telemetry.EventLog` to the kernel's bus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from .task import Task

__all__ = ["RunStats", "run_stats"]


@dataclass
class RunStats:
    """Aggregate statistics of one finished simulation run."""

    makespan: float
    n_tasks: int
    mean_turnaround: float
    max_turnaround: float
    total_cpu_time: float
    total_fpga_exec: float
    total_fpga_reconfig: float
    total_fpga_state: float
    total_fpga_wait: float
    total_fpga_io: float
    n_reconfigs: int
    n_preemptions: int
    n_rollbacks: int
    per_task: Dict[str, object] = field(default_factory=dict, repr=False)

    @property
    def fpga_overhead(self) -> float:
        return (
            self.total_fpga_reconfig
            + self.total_fpga_state
            + self.total_fpga_wait
            + self.total_fpga_io
        )

    @property
    def useful_fraction(self) -> float:
        """Useful FPGA compute over (useful + all FPGA overhead) — the
        experiments' primary efficiency metric."""
        denom = self.total_fpga_exec + self.fpga_overhead
        return 1.0 if denom == 0 else self.total_fpga_exec / denom

    @property
    def fpga_utilization(self) -> float:
        """Useful FPGA compute over the whole run."""
        return 0.0 if self.makespan == 0 else self.total_fpga_exec / self.makespan


def run_stats(tasks: Iterable[Task], makespan: Optional[float] = None) -> RunStats:
    """Reduce finished tasks to a :class:`RunStats` row."""
    tasks = list(tasks)
    if not tasks:
        # An empty run is a valid (degenerate) run: zero work, zero span.
        return RunStats(
            makespan=makespan if makespan is not None else 0.0,
            n_tasks=0,
            mean_turnaround=0.0,
            max_turnaround=0.0,
            total_cpu_time=0.0,
            total_fpga_exec=0.0,
            total_fpga_reconfig=0.0,
            total_fpga_state=0.0,
            total_fpga_wait=0.0,
            total_fpga_io=0.0,
            n_reconfigs=0,
            n_preemptions=0,
            n_rollbacks=0,
        )
    unfinished = [t.name for t in tasks if t.accounting.completion is None]
    if unfinished:
        raise ValueError(f"tasks not finished: {unfinished[:5]}")
    accs = [t.accounting for t in tasks]
    turnarounds = [a.turnaround for a in accs]
    span = makespan if makespan is not None else max(a.completion for a in accs)
    return RunStats(
        makespan=span,
        n_tasks=len(tasks),
        mean_turnaround=sum(turnarounds) / len(turnarounds),
        max_turnaround=max(turnarounds),
        total_cpu_time=sum(a.cpu_time for a in accs),
        total_fpga_exec=sum(a.fpga_exec_time for a in accs),
        total_fpga_reconfig=sum(a.fpga_reconfig_time for a in accs),
        total_fpga_state=sum(a.fpga_state_time for a in accs),
        total_fpga_wait=sum(a.fpga_wait_time for a in accs),
        total_fpga_io=sum(a.fpga_io_time for a in accs),
        n_reconfigs=sum(a.n_reconfigs for a in accs),
        n_preemptions=sum(a.n_preemptions for a in accs),
        n_rollbacks=sum(a.n_rollbacks for a in accs),
        per_task={t.name: t.accounting for t in tasks},
    )
