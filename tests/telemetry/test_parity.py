"""Bus/metrics parity: every service's counters must be derivable from
its published event stream.

This is the refactor's safety net.  ``ServiceMetrics`` is now *derived*
state (a :class:`~repro.telemetry.MetricsRecorder` subscribed to the
kernel bus); these tests replay the independently recorded
:class:`~repro.telemetry.EventLog` through a fresh recorder and demand
exact equality with the live metrics, across every management policy the
benchmarks exercise (e1 dynamic loading, e4 partitioning, e8
pagination/segmentation, plus the baselines and multi-board systems).
Task accounting is still hand-filled at the charge sites, which gives a
second, bus-independent cross-check.
"""

import json

import pytest

from repro.core import (
    ConfigRegistry,
    DynamicLoadingService,
    FixedPartitionService,
    MergedResidentService,
    MultiDeviceService,
    OverlayService,
    PagedVfpgaService,
    SaveRestore,
    SegmentedVfpgaService,
    SoftwareOnlyService,
    VariablePartitionService,
    make_paged_circuit,
    make_segmented_circuit,
    make_service,
)
from repro.osim import FpgaOp, Task, uniform_workload
from repro.telemetry import (
    BoardDispatch,
    Load,
    PageFault,
    SegmentFault,
    SimStep,
    derive_metrics,
    to_chrome_trace,
)

CP = 20e-9  # critical path of every synthetic config in the registry


def op_time(cycles):
    return cycles * CP


def assert_parity(run):
    """Live metrics == metrics replayed from the recorded stream."""
    derived = derive_metrics(run.log.events, source=run.service.source)
    assert derived.as_dict() == run.service.metrics.as_dict()
    return derived


def mixed_tasks():
    return [
        Task("t0", [FpgaOp("a3", 5000), FpgaOp("b3", 5000)]),
        Task("t1", [FpgaOp("c4", 5000), FpgaOp("a3", 5000)]),
        Task("t2", [FpgaOp("b3", 5000, io_words=500)]),
    ]


class TestPolicyParity:
    def test_dynamic_loading(self, registry, logged):
        """e1-style workload: demand loading with evictions and I/O."""
        run = logged(DynamicLoadingService(registry))
        run.run(mixed_tasks())
        derived = assert_parity(run)
        assert derived.n_loads > 0 and derived.n_ops == 5

    def test_dynamic_loading_preemptive(self, registry, logged):
        """Time-sliced fabric with state save/restore on seq4."""
        svc = DynamicLoadingService(
            registry, preemption=SaveRestore(), fpga_time_slice=op_time(50000)
        )
        run = logged(svc)
        run.run([Task("ta", [FpgaOp("seq4", 200000)]),
                 Task("tb", [FpgaOp("seq4", 200000)])])
        derived = assert_parity(run)
        assert derived.n_preemptions > 0
        assert derived.n_state_saves > 0 and derived.n_state_restores > 0

    def test_fixed_partitioning(self, registry, logged):
        run = logged(FixedPartitionService(registry, [4, 4, 4]))
        run.run(mixed_tasks())
        assert_parity(run)

    def test_variable_partitioning(self, registry, logged):
        """e4-style: variable partitions with relocation/compaction."""
        run = logged(VariablePartitionService(registry))
        run.run(mixed_tasks() + [Task("t3", [FpgaOp("c4", 5000)])])
        derived = assert_parity(run)
        assert derived.n_ops == 6

    def test_pagination(self, arch, logged):
        """e8-style: demand paging; faults must round-trip the bus."""
        reg = ConfigRegistry(arch)
        circ = make_paged_circuit(reg, "virt", n_pages=6, page_width=3,
                                  pattern="sequential", seed=1)
        run = logged(PagedVfpgaService(reg, [circ], frame_width=3))
        run.run([Task("t", [FpgaOp("virt", 8)])])
        derived = assert_parity(run)
        assert derived.n_page_faults > 0
        assert run.log.count(PageFault) == derived.n_page_faults

    def test_segmentation(self, arch, logged):
        reg = ConfigRegistry(arch)
        circ = make_segmented_circuit(
            reg, "virt", widths=[3, 4, 2, 3, 4], pattern="sequential", seed=1
        )
        run = logged(SegmentedVfpgaService(reg, [circ], replacement="lru"))
        run.run([Task("t", [FpgaOp("virt", 10)])])
        derived = assert_parity(run)
        # SegmentFault subclasses PageFault; both views must agree.
        assert run.log.count(SegmentFault) == derived.n_page_faults > 0

    def test_merged_resident_boot_load(self, arch, logged):
        """Boot downloads happen during attach — the log must already be
        subscribed (regression guard for subscriber ordering)."""
        reg = ConfigRegistry(arch)
        reg.register_synthetic("a3", 3, arch.height, critical_path=CP)
        reg.register_synthetic("b3", 3, arch.height, critical_path=CP)
        run = logged(MergedResidentService(reg))
        run.run([Task("t", [FpgaOp("a3", 100), FpgaOp("b3", 100)])])
        derived = assert_parity(run)
        assert derived.n_loads > 0  # the boot configuration itself
        assert any(e.task == "" for e in run.log.of_type(Load))

    def test_overlay_boot_load(self, registry, logged):
        run = logged(OverlayService(registry, resident_names=["a3", "b3"]))
        run.run([Task("t", [FpgaOp("a3", 100), FpgaOp("c4", 100)])])
        assert_parity(run)

    def test_software_only(self, registry, logged):
        run = logged(SoftwareOnlyService(registry, slowdown=10.0))
        run.run([Task("t", [FpgaOp("a3", 1000)])])
        derived = assert_parity(run)
        assert derived.exec_time == pytest.approx(10.0 * op_time(1000))

    def test_non_preemptable(self, registry, logged):
        run = logged(make_service("nonpreemptable", registry))
        run.run([Task("ta", [FpgaOp("a3", 100000)]),
                 Task("tb", [FpgaOp("b3", 100000)])])
        assert_parity(run)

    def test_generated_workload(self, registry, logged):
        """A larger randomized workload, as the benchmarks produce."""
        tasks = uniform_workload(
            ["a3", "b3", "c4"], n_tasks=8, ops_per_task=3,
            cpu_burst=1e-4, cycles=5000, seed=3,
        )
        run = logged(DynamicLoadingService(registry))
        run.run(tasks)
        derived = assert_parity(run)
        assert derived.n_ops == 8 * 3


class TestAccountingCrossCheck:
    """Task accounting is charged by hand at the same sites that publish;
    summing it is a bus-independent check on the derived totals."""

    def test_exec_and_op_totals(self, registry, logged):
        tasks = mixed_tasks()
        run = logged(DynamicLoadingService(registry))
        run.run(tasks)
        derived = derive_metrics(run.log.events, source=run.service.source)
        assert sum(t.accounting.fpga_exec_time for t in tasks) == \
            pytest.approx(derived.exec_time)
        assert sum(t.accounting.n_fpga_ops for t in tasks) == derived.n_ops
        assert sum(t.accounting.fpga_io_time for t in tasks) == \
            pytest.approx(derived.io_time)


class TestMultiBoard:
    def test_per_source_parity(self, registry, logged):
        """One bus carries several boards' streams; the per-source filter
        must separate them exactly."""
        svc = MultiDeviceService(registry, 2)
        run = logged(svc)
        run.run([Task(f"t{i}", [FpgaOp("a3", 50000)]) for i in range(4)])
        for board in svc.boards:
            derived = derive_metrics(run.log.events, source=board.source)
            assert derived.as_dict() == board.metrics.as_dict()
        dispatches = run.log.of_type(BoardDispatch)
        assert len(dispatches) == 4
        assert {e.source for e in dispatches} == {svc.source}


class TestKernelTelemetryOptions:
    def test_sim_steps_opt_in(self, registry, logged):
        run = logged(DynamicLoadingService(registry), telemetry_steps=True)
        run.run([Task("t", [FpgaOp("a3", 100)])])
        steps = run.log.of_type(SimStep)
        assert steps
        assert all(isinstance(e.queue_depth, int) for e in steps)

    def test_sim_steps_off_by_default(self, registry, logged):
        run = logged(DynamicLoadingService(registry))
        run.run([Task("t", [FpgaOp("a3", 100)])])
        assert run.log.count(SimStep) == 0


class TestEndToEndExport:
    def test_chrome_trace_of_real_run(self, registry, logged, tmp_path):
        """The quickstart path: run, export, re-load as strict JSON."""
        run = logged(VariablePartitionService(registry))
        run.run(mixed_tasks())
        path = tmp_path / "trace.json"
        to_chrome_trace(run.log.events, str(path), run_name="parity")
        doc = json.loads(path.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "i", "M"} <= phases
        assert doc["otherData"]["run"] == "parity"
        # Durations are in microseconds and non-negative.
        assert all(e["dur"] >= 0 for e in doc["traceEvents"] if e["ph"] == "X")
