"""Multi-board service tests (the paper's §2 virtual-computer vision)."""

import pytest

from repro.core import (
    MultiDeviceService,
    VariablePartitionService,
    make_service,
)
from repro.osim import FpgaOp, Task
from repro.telemetry import BoardDispatch

CP = 20e-9


class TestConstruction:
    def test_needs_a_device(self, registry):
        with pytest.raises(ValueError):
            MultiDeviceService(registry, 0)

    def test_boards_have_own_devices(self, registry):
        svc = MultiDeviceService(registry, 3)
        fpgas = {id(b.fpga) for b in svc.boards}
        assert len(fpgas) == 3

    def test_factory_name(self, registry):
        svc = make_service("multi", registry, n_devices=2)
        assert len(svc.boards) == 2

    def test_custom_board_factory(self, registry):
        svc = MultiDeviceService(
            registry, 2,
            board_factory=lambda reg: VariablePartitionService(reg, gc="merge"),
        )
        assert all(isinstance(b, VariablePartitionService) for b in svc.boards)


class TestPlacement:
    def test_two_boards_double_throughput(self, registry, harness):
        def makespan(n):
            svc = MultiDeviceService(registry, n)
            h = harness(svc)
            tasks = [Task(f"t{i}", [FpgaOp("a3" if i % 2 else "b3", 500_000)])
                     for i in range(4)]
            return h.run(tasks).makespan

        assert makespan(2) < makespan(1) * 0.7

    def test_affinity_prefers_resident_board(self, registry, harness):
        svc = MultiDeviceService(registry, 2)
        h = harness(svc)
        # a3 lands on board 0; the second a3 op must reuse it (1 load).
        t = Task("t", [FpgaOp("a3", 100), FpgaOp("a3", 100)])
        h.run([t])
        assert svc.metrics.n_loads == 1
        assert svc.metrics.n_hits == 1

    def test_different_configs_spread_across_boards(self, registry, harness):
        svc = MultiDeviceService(registry, 2)
        h = harness(svc)
        tasks = [Task("ta", [FpgaOp("a3", 500_000)]),
                 Task("tb", [FpgaOp("b3", 500_000)])]
        h.run(tasks)
        per_board = svc.per_board_exec
        assert all(x > 0 for x in per_board)  # both boards did work

    def test_aggregate_metrics_sum_boards(self, registry, harness):
        svc = MultiDeviceService(registry, 2)
        h = harness(svc)
        tasks = [Task(f"t{i}", [FpgaOp("a3", 1000)]) for i in range(3)]
        stats = h.run(tasks)
        assert svc.metrics.exec_time == pytest.approx(stats.total_fpga_exec)
        assert svc.metrics.n_ops == sum(b.metrics.n_ops for b in svc.boards)

    def test_board_choice_traced(self, registry, harness):
        svc = MultiDeviceService(registry, 2)
        h = harness(svc)
        h.run([Task("t", [FpgaOp("a3", 100)])])
        events = h.log.of_type(BoardDispatch)
        assert [(e.task, e.config) for e in events] == [("t", "a3")]
        assert events[0].board in range(len(svc.boards))
