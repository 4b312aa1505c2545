"""E3 — the non-preemptable FPGA destroys task parallelism (paper §4).

Claim: "Parallelism of the execution of application tasks may be greatly
reduced, even implicitly forcing the scheduling to a strictly FIFO
policy."

Fixed workload of FPGA-heavy tasks under a round-robin CPU scheduler;
three managers.  Expected shape: under the non-preemptable manager the
FPGA completions come out in strict arrival order and the makespan
approaches the serial sum of service times; partitioning restores overlap.
"""

from _harness import emit, run_system

from repro.analysis import format_table
from repro.core import ConfigRegistry
from repro.device import get_family
from repro.osim import CpuBurst, FpgaOp, Task, make_cpu_scheduler

CP = 25e-9
CYCLES = 400_000
N_TASKS = 6


def make_registry():
    arch = get_family("VF12")
    reg = ConfigRegistry(arch)
    for i in range(3):
        reg.register_synthetic(f"f{i}", 4, arch.height, critical_path=CP)
    return reg


def make_tasks():
    return [
        Task(f"t{i}", [FpgaOp(f"f{i % 3}", CYCLES)], arrival=i * 1e-4)
        for i in range(N_TASKS)
    ]


def completion_order(tasks):
    return [
        name for _done, name in sorted(
            (t.accounting.completion, t.name) for t in tasks
        )
    ]


def test_e3_nonpreemptable(benchmark):
    def run_all():
        rows = []
        orders = {}
        for policy, kw in [
            ("nonpreemptable", {}),
            ("dynamic", {}),
            ("fixed", {"n_partitions": 3}),
        ]:
            reg = make_registry()
            tasks = make_tasks()
            stats, service = run_system(reg, tasks, policy, **kw)
            rows.append({
                "policy": policy,
                "makespan_ms": round(stats.makespan * 1e3, 2),
                "mean_turnaround_ms": round(stats.mean_turnaround * 1e3, 2),
                "loads": service.metrics.n_loads,
                "max_overlap": "yes" if policy == "fixed" else "no",
            })
            orders[policy] = completion_order(tasks)
        return rows, orders

    rows, orders = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit("e3_nonpreemptable", format_table(
        rows, title="E3: non-preemptable FPGA vs alternatives "
        f"({N_TASKS} tasks x {CYCLES * CP * 1e3:.0f} ms ops)",
    ))
    # Shape 1: non-preemptable completes in strict FIFO (arrival) order.
    assert orders["nonpreemptable"] == [f"t{i}" for i in range(N_TASKS)]
    # Shape 2: its makespan is at least the serial sum of the exec times.
    serial_exec = N_TASKS * CYCLES * CP
    by_policy = {r["policy"]: r for r in rows}
    assert by_policy["nonpreemptable"]["makespan_ms"] >= serial_exec * 1e3
    # Shape 3: partitioning overlaps executions and beats both.
    assert (by_policy["fixed"]["makespan_ms"]
            < by_policy["nonpreemptable"]["makespan_ms"])
    assert (by_policy["fixed"]["makespan_ms"]
            < by_policy["dynamic"]["makespan_ms"])


# -- E3b: the CPU scheduling engine against deadlines -----------------------

SERVICE_T = 14e-3  # ≈ one task's full service time on this system


def make_deadline_tasks():
    """Arrival order is the *reverse* of urgency: the later a task
    arrives, the tighter its deadline.  The set is feasible when served
    in deadline order (each deadline sits one service time past the
    task's slot in that order) but infeasible in arrival order."""
    tasks = []
    for i in range(N_TASKS):
        if i == 0:
            deadline = (N_TASKS + 1) * SERVICE_T
        else:
            deadline = (N_TASKS + 1 - i) * SERVICE_T + 4e-3
        tasks.append(Task(
            f"t{i}",
            [CpuBurst(8e-3), FpgaOp(f"f{i % 3}", 4_000)],
            arrival=i * 1e-4,
            priority=N_TASKS - 1 - i,  # urgency mirrors the deadline
            deadline=deadline,
        ))
    return tasks


def test_e3_cpu_schedulers(benchmark):
    """E3b: deadline- and starvation-aware CPU engines against the
    seed policies on a deadline-reversed workload."""
    names = ["fifo", "rr", "priority", "edf", "aged-priority"]

    def run_all():
        rows = []
        for name in names:
            reg = make_registry()
            tasks = make_deadline_tasks()
            stats, service = run_system(
                reg, tasks, "dynamic",
                scheduler=make_cpu_scheduler(name),
            )
            rows.append({
                "cpu_sched": name,
                "deadline_misses": service.metrics.n_deadline_misses,
                "makespan_ms": round(stats.makespan * 1e3, 2),
                "mean_turnaround_ms": round(stats.mean_turnaround * 1e3, 2),
            })
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit("e3_cpu_schedulers", format_table(
        rows, title="E3b: CPU scheduling engine vs deadline misses "
        f"({N_TASKS} tasks, urgency reversed from arrival order)",
    ))
    by = {r["cpu_sched"]: r for r in rows}
    # Deadline awareness pays: EDF serves the feasible set, FIFO's
    # arrival order cannot.
    assert by["edf"]["deadline_misses"] < by["fifo"]["deadline_misses"]
    # Aging keeps priority's wins without starving anyone.
    assert (by["aged-priority"]["deadline_misses"]
            < by["fifo"]["deadline_misses"])
    assert by["edf"]["deadline_misses"] == 0
    # Every engine drives the same total work to completion.
    makespans = {r["makespan_ms"] for r in rows}
    assert max(makespans) <= min(makespans) * 1.25
