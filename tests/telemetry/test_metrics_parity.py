"""Aggregator/span parity: the metrics layer must be a pure fold.

The live :class:`~repro.telemetry.MetricsAggregator` and
:class:`~repro.telemetry.SpanBuilder` subscribe to the kernel bus; these
tests replay the independently recorded :class:`~repro.telemetry.EventLog`
through :func:`~repro.telemetry.aggregate_events` /
:func:`~repro.telemetry.build_spans` and demand *exact* equality with the
live state — histogram bucket counts, gauge integrals, span phase
durations — across every management policy (dynamic loading,
partitioning, overlay, segmentation, pagination, I/O multiplexing).  A
JSONL round trip must preserve the fold bit-for-bit too: that is what
makes ``repro report --input`` trustworthy.
"""

import io

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
    Evict,
    MetricsAggregator,
    SpanBuilder,
    aggregate_events,
    build_spans,
    read_jsonl,
    to_jsonl,
)

CP = 20e-9  # critical path of every synthetic config in the registry


def op_time(cycles):
    return cycles * CP


def live_run(logged, service, tasks, **kw):
    """Run with a live aggregator + span builder subscribed before the
    kernel exists (boot downloads publish during attach)."""
    state = {}

    def subscribe(bus):
        state["agg"] = MetricsAggregator(bus)
        state["spans"] = SpanBuilder(bus)

    run = logged(service, subscribe=subscribe, **kw)
    run.run(tasks)
    return run, state["agg"], state["spans"]


def assert_parity(run, agg, spans):
    """Live fold state == replay of the recorded stream, exactly."""
    replayed = aggregate_events(run.log.events)
    assert replayed.snapshot() == agg.snapshot()
    rebuilt = build_spans(run.log.events)
    assert rebuilt.spans == spans.spans
    assert rebuilt.open_spans == spans.open_spans
    assert rebuilt.n_orphans == spans.n_orphans
    return replayed, rebuilt


def assert_jsonl_parity(run, agg, spans):
    """The same equality must survive serialization to JSONL and back —
    the ``repro report --input`` path."""
    events = read_jsonl(io.StringIO(to_jsonl(run.log.events)))
    assert aggregate_events(events).snapshot() == agg.snapshot()
    assert build_spans(events).spans == spans.spans


def mixed_tasks():
    return [
        Task("t0", [FpgaOp("a3", 5000), FpgaOp("b3", 5000)]),
        Task("t1", [FpgaOp("c4", 5000), FpgaOp("a3", 5000)]),
        Task("t2", [FpgaOp("b3", 5000, io_words=500)]),
    ]


class TestPolicyParity:
    def test_dynamic_loading(self, registry, logged):
        run, agg, spans = live_run(
            logged, DynamicLoadingService(registry), mixed_tasks())
        assert_parity(run, agg, spans)
        assert_jsonl_parity(run, agg, spans)
        assert agg.reconfig_latency.count > 0
        assert agg.op_latency.count == 5
        assert len(spans.spans) == 5 and not spans.open_spans

    def test_dynamic_loading_preemptive(self, registry, logged):
        svc = DynamicLoadingService(
            registry, preemption=SaveRestore(), fpga_time_slice=op_time(50000)
        )
        run, agg, spans = live_run(
            logged, svc,
            [Task("ta", [FpgaOp("seq4", 200000)]),
             Task("tb", [FpgaOp("seq4", 200000)])])
        assert_parity(run, agg, spans)
        # Preemption cost lands in the right span phases.
        assert any(s.n_preemptions > 0 for s in spans.spans)
        assert any(s.state_seconds > 0 for s in spans.spans)

    def test_fixed_partitioning(self, registry, logged):
        run, agg, spans = live_run(
            logged, FixedPartitionService(registry, [4, 4, 4]), mixed_tasks())
        assert_parity(run, agg, spans)

    def test_variable_partitioning(self, registry, logged):
        run, agg, spans = live_run(
            logged, VariablePartitionService(registry),
            mixed_tasks() + [Task("t3", [FpgaOp("c4", 5000)])])
        assert_parity(run, agg, spans)
        assert_jsonl_parity(run, agg, spans)
        assert len(spans.spans) == 6

    def test_pagination(self, arch, logged):
        reg = ConfigRegistry(arch)
        circ = make_paged_circuit(reg, "virt", n_pages=6, page_width=3,
                                  pattern="sequential", seed=1)
        run, agg, spans = live_run(
            logged, PagedVfpgaService(reg, [circ], frame_width=3),
            [Task("t", [FpgaOp("virt", 8)])])
        assert_parity(run, agg, spans)
        assert sum(s.n_page_faults for s in spans.spans) > 0

    def test_segmentation(self, arch, logged):
        reg = ConfigRegistry(arch)
        circ = make_segmented_circuit(
            reg, "virt", widths=[3, 4, 2, 3, 4], pattern="sequential", seed=1
        )
        run, agg, spans = live_run(
            logged, SegmentedVfpgaService(reg, [circ], replacement="lru"),
            [Task("t", [FpgaOp("virt", 10)])])
        assert_parity(run, agg, spans)
        assert_jsonl_parity(run, agg, spans)
        # SegmentFault subclasses PageFault but spans dispatch on the
        # exact type: segment faults must not double-count as page faults.
        assert sum(s.n_segment_faults for s in spans.spans) > 0
        assert sum(s.n_page_faults for s in spans.spans) == 0

    def test_io_multiplexing(self, registry, logged):
        """Pin-multiplexed transfers (PortTransfer) charge io_seconds."""
        run, agg, spans = live_run(
            logged, DynamicLoadingService(registry),
            [Task("t", [FpgaOp("a3", 5000, io_words=2000)])])
        assert_parity(run, agg, spans)
        assert sum(s.io_seconds for s in spans.spans) > 0

    def test_merged_resident_boot_load(self, arch, logged):
        """Boot downloads publish during attach; the full-serial boot is
        ``exclusive`` and seeds the occupancy gauge."""
        reg = ConfigRegistry(arch)
        reg.register_synthetic("a3", 3, arch.height, critical_path=CP)
        reg.register_synthetic("b3", 3, arch.height, critical_path=CP)
        run, agg, spans = live_run(
            logged, MergedResidentService(reg),
            [Task("t", [FpgaOp("a3", 100), FpgaOp("b3", 100)])])
        assert_parity(run, agg, spans)
        assert agg.clb_occupancy.max_value == 2 * 3 * arch.height

    def test_overlay_boot_load(self, registry, logged):
        run, agg, spans = live_run(
            logged, OverlayService(registry, resident_names=["a3", "b3"]),
            [Task("t", [FpgaOp("a3", 100), FpgaOp("c4", 100)])])
        assert_parity(run, agg, spans)

    def test_software_only(self, registry, logged):
        run, agg, spans = live_run(
            logged, SoftwareOnlyService(registry, slowdown=10.0),
            [Task("t", [FpgaOp("a3", 1000)])])
        assert_parity(run, agg, spans)
        assert agg.exec_latency.total == pytest.approx(10.0 * op_time(1000))

    def test_non_preemptable(self, registry, logged):
        run, agg, spans = live_run(
            logged, make_service("nonpreemptable", registry),
            [Task("ta", [FpgaOp("a3", 100000)]),
             Task("tb", [FpgaOp("b3", 100000)])])
        assert_parity(run, agg, spans)

    def test_generated_workload(self, registry, logged):
        tasks = uniform_workload(
            ["a3", "b3", "c4"], n_tasks=8, ops_per_task=3,
            cpu_burst=1e-4, cycles=5000, seed=3,
        )
        run, agg, spans = live_run(
            logged, DynamicLoadingService(registry), tasks)
        assert_parity(run, agg, spans)
        assert_jsonl_parity(run, agg, spans)
        assert len(spans.spans) == 8 * 3

    def test_multi_board(self, registry, logged):
        run, agg, spans = live_run(
            logged, MultiDeviceService(registry, 2),
            [Task(f"t{i}", [FpgaOp("a3", 50000)]) for i in range(4)])
        assert_parity(run, agg, spans)
        assert len(spans.spans) == 4
        # Per-board aggregation: filter by each board's source.
        svc = run.service
        for board in svc.boards:
            per = aggregate_events(run.log.events, source=board.source)
            assert per.reconfig_latency.count == board.metrics.n_loads


class TestCrossChecks:
    """The fold must agree with other, independently derived views."""

    def test_span_phases_match_task_accounting(self, registry, logged):
        tasks = mixed_tasks()
        run, agg, spans = live_run(
            logged, DynamicLoadingService(registry), tasks)
        by_task = spans.by_task()
        for t in tasks:
            mine = by_task[t.name]
            assert sum(s.exec_seconds for s in mine) == \
                pytest.approx(t.accounting.fpga_exec_time)
            assert sum(s.io_seconds for s in mine) == \
                pytest.approx(t.accounting.fpga_io_time)
            assert len(mine) == t.accounting.n_fpga_ops

    def test_histogram_totals_match_service_metrics(self, registry, logged):
        run, agg, spans = live_run(
            logged, DynamicLoadingService(registry), mixed_tasks())
        m = run.service.metrics
        assert agg.reconfig_latency.count == m.n_loads
        # ServiceMetrics.load_time counts evictions as port time too.
        evict_seconds = sum(e.seconds for e in run.log.of_type(Evict))
        assert agg.reconfig_latency.total + evict_seconds == \
            pytest.approx(m.load_time)
        assert agg.exec_latency.total == pytest.approx(m.exec_time)
        assert agg.wait_latency.total == pytest.approx(m.wait_time)

    def test_op_ids_unique_and_match_requests(self, registry, logged):
        run, agg, spans = live_run(
            logged, DynamicLoadingService(registry), mixed_tasks())
        ids = [s.op_id for s in spans.spans]
        assert len(set(ids)) == len(ids)
        assert all(i > 0 for i in ids)
        assert sorted(ids) == list(range(1, len(ids) + 1))

    def test_occupancy_never_exceeds_device(self, registry, logged):
        run, agg, spans = live_run(
            logged, VariablePartitionService(registry),
            mixed_tasks() + [Task("t3", [FpgaOp("c4", 5000)])])
        assert 0 < agg.clb_occupancy.max_value <= registry.arch.n_clbs
        assert agg.clb_occupancy.integral_at(agg.last_time) > 0

    def test_port_busy_within_elapsed(self, registry, logged):
        run, agg, spans = live_run(
            logged, DynamicLoadingService(registry), mixed_tasks())
        assert 0 < agg.port_busy_seconds
        assert 0 < agg.port_busy_fraction <= 1.0
