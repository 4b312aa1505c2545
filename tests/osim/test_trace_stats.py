"""RunStats unit tests."""

import pytest

from repro.osim import CpuBurst, Task, run_stats


def finished_task(name, arrival, completion, **acc):
    t = Task(name, [CpuBurst(0.1)], arrival=arrival)
    t.accounting.arrival = arrival
    t.accounting.completion = completion
    for k, v in acc.items():
        setattr(t.accounting, k, v)
    return t


class TestRunStats:
    def test_aggregates(self):
        tasks = [
            finished_task("a", 0.0, 2.0, cpu_time=1.0, fpga_exec_time=0.5),
            finished_task("b", 1.0, 4.0, cpu_time=2.0, fpga_wait_time=0.25),
        ]
        stats = run_stats(tasks)
        assert stats.n_tasks == 2
        assert stats.makespan == 4.0
        assert stats.mean_turnaround == pytest.approx((2.0 + 3.0) / 2)
        assert stats.max_turnaround == 3.0
        assert stats.total_cpu_time == 3.0
        assert stats.total_fpga_exec == 0.5
        assert stats.total_fpga_wait == 0.25

    def test_useful_fraction(self):
        tasks = [finished_task("a", 0, 1, fpga_exec_time=3.0,
                               fpga_reconfig_time=1.0)]
        stats = run_stats(tasks)
        assert stats.useful_fraction == pytest.approx(0.75)

    def test_useful_fraction_no_fpga_work(self):
        stats = run_stats([finished_task("a", 0, 1, cpu_time=1.0)])
        assert stats.useful_fraction == 1.0

    def test_fpga_utilization(self):
        tasks = [finished_task("a", 0.0, 10.0, fpga_exec_time=2.5)]
        assert run_stats(tasks).fpga_utilization == pytest.approx(0.25)

    def test_unfinished_rejected(self):
        t = Task("x", [CpuBurst(1)])
        with pytest.raises(ValueError, match="not finished"):
            run_stats([t])

    def test_empty_run_is_zero(self):
        stats = run_stats([])
        assert stats.n_tasks == 0
        assert stats.makespan == 0.0
        assert stats.mean_turnaround == 0.0
        assert stats.useful_fraction == 1.0
        assert stats.fpga_utilization == 0.0
        assert run_stats([], makespan=3.0).makespan == 3.0

    def test_explicit_makespan_override(self):
        tasks = [finished_task("a", 0, 1)]
        assert run_stats(tasks, makespan=42.0).makespan == 42.0

    def test_per_task_table(self):
        tasks = [finished_task("a", 0, 1), finished_task("b", 0, 2)]
        stats = run_stats(tasks)
        assert set(stats.per_task) == {"a", "b"}

    def test_overhead_sums(self):
        t = finished_task(
            "a", 0, 1, fpga_reconfig_time=1.0, fpga_state_time=2.0,
            fpga_wait_time=3.0, fpga_io_time=4.0,
        )
        stats = run_stats([t])
        assert stats.fpga_overhead == pytest.approx(10.0)
        assert t.accounting.fpga_overhead_time == pytest.approx(10.0)
