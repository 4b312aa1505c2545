"""Kernel behaviour tests with the null FPGA service and a mock service."""

import pytest

from repro.osim import (
    CpuBurst,
    DeadlockError,
    Fifo,
    FpgaOp,
    FpgaService,
    Kernel,
    NullFpgaService,
    PriorityScheduler,
    RoundRobin,
    SyscallError,
    Task,
    TaskState,
)
from repro.sim import Simulator
from repro.telemetry import Admit, Dispatch, EventBus, EventLog, TaskDone


def make_kernel(scheduler=None, service=None, cs=0.0, bus=None):
    sim = Simulator()
    kernel = Kernel(
        sim,
        RoundRobin(time_slice=1.0) if scheduler is None else scheduler,
        NullFpgaService() if service is None else service,
        context_switch=cs,
        bus=bus,
    )
    return sim, kernel


class DelayService(FpgaService):
    """Executes every op in a fixed time; records the order."""

    def __init__(self, delay=5.0):
        self.delay = delay
        self.log = []

    def execute(self, task, op):
        self.log.append((self.kernel.sim.now, task.name, op.config))
        yield self.kernel.sim.timeout(self.delay)
        task.accounting.fpga_exec_time += self.delay


class TestCpuScheduling:
    def test_single_task_runs_to_completion(self):
        sim, kernel = make_kernel()
        t = kernel.spawn(Task("t", [CpuBurst(3.0)]))
        stats = kernel.run()
        assert t.state is TaskState.DONE
        assert stats.total_cpu_time == pytest.approx(3.0)
        assert stats.makespan == pytest.approx(3.0)

    def test_round_robin_interleaves(self):
        sim, kernel = make_kernel(RoundRobin(time_slice=1.0))
        a = kernel.spawn(Task("a", [CpuBurst(2.0)]))
        b = kernel.spawn(Task("b", [CpuBurst(2.0)]))
        kernel.run()
        # Time-shared: both finish near the end, a one slice before b.
        assert a.accounting.completion == pytest.approx(3.0)
        assert b.accounting.completion == pytest.approx(4.0)

    def test_fifo_runs_whole_bursts(self):
        sim, kernel = make_kernel(Fifo())
        a = kernel.spawn(Task("a", [CpuBurst(2.0)]))
        b = kernel.spawn(Task("b", [CpuBurst(2.0)]))
        kernel.run()
        assert a.accounting.completion == pytest.approx(2.0)
        assert b.accounting.completion == pytest.approx(4.0)

    def test_priority_scheduler_prefers_low_value(self):
        sim, kernel = make_kernel(PriorityScheduler(time_slice=10.0))
        low = Task("low", [CpuBurst(1.0)], priority=5, arrival=0.0)
        high = Task("high", [CpuBurst(1.0)], priority=0, arrival=0.0)
        kernel.spawn(low)
        kernel.spawn(high)
        kernel.run()
        assert high.accounting.completion < low.accounting.completion

    def test_context_switch_charged(self):
        sim, kernel = make_kernel(cs=0.5)
        kernel.spawn(Task("t", [CpuBurst(1.0)]))
        stats = kernel.run()
        assert stats.makespan == pytest.approx(1.5)
        assert kernel.total_context_switches == 1

    def test_arrival_times_respected(self):
        sim, kernel = make_kernel()
        t = kernel.spawn(Task("late", [CpuBurst(1.0)], arrival=10.0))
        kernel.run()
        assert t.accounting.first_dispatch == pytest.approx(10.0)

    def test_ready_wait_accounted(self):
        sim, kernel = make_kernel(Fifo())
        kernel.spawn(Task("a", [CpuBurst(4.0)]))
        b = kernel.spawn(Task("b", [CpuBurst(1.0)]))
        kernel.run()
        assert b.accounting.ready_wait_time == pytest.approx(4.0)


class TestFpgaInteraction:
    def test_cpu_free_during_fpga_op(self):
        svc = DelayService(delay=10.0)
        sim, kernel = make_kernel(service=svc)
        a = kernel.spawn(Task("a", [FpgaOp("c", 1), CpuBurst(1.0)]))
        b = kernel.spawn(Task("b", [CpuBurst(5.0)]))
        kernel.run()
        # b's CPU work overlaps a's FPGA op completely.
        assert b.accounting.completion == pytest.approx(5.0)
        assert a.accounting.completion == pytest.approx(11.0)

    def test_undeclared_config_raises(self):
        sim, kernel = make_kernel()
        t = Task("t", [FpgaOp("c", 1)])
        t.configs = []  # simulate a missing declaration
        kernel.spawn(t)
        with pytest.raises(SyscallError):
            kernel.run()

    def test_fpga_op_count(self):
        svc = DelayService(delay=1.0)
        sim, kernel = make_kernel(service=svc)
        t = kernel.spawn(Task("t", [FpgaOp("c", 1), FpgaOp("c", 1)]))
        stats = kernel.run()
        assert t.accounting.n_fpga_ops == 2
        assert stats.total_fpga_exec == pytest.approx(2.0)

    def test_service_sees_requests_in_order(self):
        svc = DelayService(delay=1.0)
        sim, kernel = make_kernel(service=svc)
        kernel.spawn(Task("a", [FpgaOp("x", 1)]))
        kernel.spawn(Task("b", [FpgaOp("y", 1)]))
        kernel.run()
        assert [(name, cfg) for _, name, cfg in svc.log] == [
            ("a", "x"), ("b", "y"),
        ]

    def test_task_ending_with_fpga_op(self):
        svc = DelayService(delay=2.0)
        sim, kernel = make_kernel(service=svc)
        t = kernel.spawn(Task("t", [FpgaOp("c", 1)]))
        kernel.run()
        assert t.state is TaskState.DONE
        assert t.accounting.completion == pytest.approx(2.0)


class TestLifecycle:
    def test_zero_tasks_run_cleanly(self):
        """Regression: an empty kernel must report a zero makespan, not
        crash on ``min()`` of no arrivals."""
        sim, kernel = make_kernel()
        stats = kernel.run()
        assert stats.makespan == 0.0
        assert stats.n_tasks == 0
        assert kernel.stats().makespan == 0.0

    def test_double_spawn_rejected(self):
        sim, kernel = make_kernel()
        t = Task("t", [CpuBurst(1.0)])
        kernel.spawn(t)
        with pytest.raises(ValueError):
            kernel.spawn(t)

    def test_refused_spawn_leaves_no_state(self):
        """An arrival in the past is refused before registration: the
        run neither deadlocks on the never-started task nor rejects the
        corrected respawn as "already spawned"."""
        sim, kernel = make_kernel()
        kernel.spawn(Task("early", [CpuBurst(2.0)]))
        sim.run(until=1.0)
        late = Task("late", [CpuBurst(1.0)], arrival=0.5)
        with pytest.raises(ValueError, match="past"):
            kernel.spawn(late)
        assert late not in kernel.tasks
        assert late.state is TaskState.NEW
        late.arrival = sim.now
        kernel.spawn(late)
        kernel.run()
        assert late.state is TaskState.DONE
        assert late.accounting.arrival == pytest.approx(1.0)

    def test_deadlock_detection(self):
        class StuckService(FpgaService):
            def execute(self, task, op):
                yield self.kernel.sim.event()  # never triggers

        sim, kernel = make_kernel(service=StuckService())
        kernel.spawn(Task("t", [FpgaOp("c", 1)]))
        with pytest.raises(DeadlockError):
            kernel.run()

    def test_trace_records_lifecycle(self):
        bus = EventBus()
        log = EventLog(bus)
        sim, kernel = make_kernel(bus=bus)
        kernel.spawn(Task("t", [CpuBurst(1.0)]))
        kernel.run()
        assert isinstance(log.events[0], Admit)
        assert log.count(Dispatch) >= 1
        assert isinstance(log.events[-1], TaskDone)

    def test_kernel_subscribes_nothing(self):
        """The kernel keeps no event log of its own: a run records only
        what its caller subscribes."""
        bus = EventBus()
        sim, kernel = make_kernel(bus=bus)
        kernel.spawn_all([Task("a", [CpuBurst(1.0)]),
                          Task("b", [CpuBurst(2.0)])])
        kernel.run()
        assert all(t.state is TaskState.DONE for t in kernel.tasks)
        assert bus.n_subscribers == 0

    def test_stats_require_completion(self):
        sim, kernel = make_kernel()
        kernel.spawn(Task("t", [CpuBurst(5.0)]))
        sim.run(until=1.0)
        with pytest.raises(ValueError):
            kernel.stats()


class TestWorkloads:
    def test_uniform_workload_shapes(self):
        from repro.osim import uniform_workload

        tasks = uniform_workload(["a", "b"], n_tasks=4, ops_per_task=3,
                                 cpu_burst=0.1, cycles=10, seed=1)
        assert len(tasks) == 4
        assert tasks[0].configs == ["a"]
        assert tasks[1].configs == ["b"]
        assert all(len(t.fpga_ops) == 3 for t in tasks)

    def test_zipf_workload_skewed(self):
        from collections import Counter

        from repro.osim import zipf_workload

        tasks = zipf_workload([f"c{i}" for i in range(8)], n_tasks=10,
                              ops_per_task=20, cpu_burst=0.1, cycles=10,
                              seed=3, s=1.5)
        counts = Counter(
            op.config for t in tasks for op in t.fpga_ops
        )
        assert counts["c0"] > counts.get("c7", 0) * 2

    def test_workloads_deterministic(self):
        from repro.osim import zipf_workload

        t1 = zipf_workload(["a", "b", "c"], 5, 10, 0.1, 10, seed=9)
        t2 = zipf_workload(["a", "b", "c"], 5, 10, 0.1, 10, seed=9)
        assert [
            [op.config for op in t.fpga_ops] for t in t1
        ] == [[op.config for op in t.fpga_ops] for t in t2]

    def test_bursty_arrivals(self):
        from repro.osim import bursty_arrivals, uniform_workload

        tasks = uniform_workload(["a"], 6, 1, 0.1, 10)
        tasks = bursty_arrivals(tasks, burst_gap=5.0, burst_size=2)
        assert [t.arrival for t in tasks] == [0, 0, 5, 5, 10, 10]
