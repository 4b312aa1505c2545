"""Baseline service tests: merged-resident, software-only, non-preemptable."""

import pytest

from repro.core import (
    CapacityError,
    ConfigRegistry,
    MergedResidentService,
    SoftwareOnlyService,
    make_service,
    shelf_pack,
)
from repro.device import get_family
from repro.osim import CpuBurst, FpgaOp, Task


class TestShelfPack:
    def test_disjoint_and_inside(self, arch):
        reg = ConfigRegistry(arch)
        for i, (w, h) in enumerate([(3, 4), (5, 2), (4, 4), (2, 6), (6, 3)]):
            reg.register_synthetic(f"e{i}", w, h)
        anchors = shelf_pack(reg.entries(), arch.width, arch.height)
        rects = [
            reg.get(n).bitstream.anchored_at(*a).region
            for n, a in anchors.items()
        ]
        for i, r1 in enumerate(rects):
            assert arch.full_rect.contains_rect(r1)
            for r2 in rects[i + 1:]:
                assert not r1.overlaps(r2)

    def test_overflow_raises(self, arch):
        reg = ConfigRegistry(arch)
        for i in range(5):
            reg.register_synthetic(f"wide{i}", 6, arch.height)
        with pytest.raises(CapacityError, match="do not fit"):
            shelf_pack(reg.entries(), arch.width, arch.height)

    def test_single_too_large(self, arch):
        reg = ConfigRegistry(arch)
        reg.register_synthetic("big", arch.width, arch.height)
        with pytest.raises(CapacityError):
            shelf_pack(reg.entries(), arch.width - 1, arch.height)


class TestMergedResident:
    def fits_registry(self, arch):
        reg = ConfigRegistry(arch)
        reg.register_synthetic("a", 4, 4, critical_path=20e-9)
        reg.register_synthetic("b", 4, 4, critical_path=20e-9)
        reg.register_synthetic("c", 4, 4, critical_path=20e-9)
        return reg

    def test_zero_steady_state_reconfig(self, arch, harness):
        reg = self.fits_registry(arch)
        svc = MergedResidentService(reg)
        h = harness(svc)
        tasks = [
            Task(f"t{i}", [FpgaOp(c, 1000), CpuBurst(1e-4), FpgaOp(c, 1000)])
            for i, c in enumerate(["a", "b", "c"])
        ]
        stats = h.run(tasks)
        assert svc.boot_load_time > 0
        assert stats.total_fpga_reconfig == 0  # nothing charged to tasks
        assert svc.metrics.n_hits == 6
        assert stats.useful_fraction == pytest.approx(1.0)

    def test_different_circuits_overlap_in_time(self, arch, harness):
        reg = self.fits_registry(arch)
        svc = MergedResidentService(reg)
        h = harness(svc)
        # 1000 cycles * 20ns = 20us each; if they overlap, makespan << 3x.
        tasks = [Task(f"t{i}", [FpgaOp(c, 50000)]) for i, c in
                 enumerate(["a", "b", "c"])]
        stats = h.run(tasks)
        assert stats.makespan < 2 * 50000 * 20e-9

    def test_same_circuit_serializes(self, arch, harness):
        reg = self.fits_registry(arch)
        svc = MergedResidentService(reg)
        h = harness(svc)
        tasks = [Task(f"t{i}", [FpgaOp("a", 50000)]) for i in range(3)]
        stats = h.run(tasks)
        assert stats.makespan >= 3 * 50000 * 20e-9

    def test_capacity_error_when_not_fitting(self, registry, harness):
        # The shared fixture's total width (3+3+4+6+4+4) exceeds VF12.
        svc = MergedResidentService(registry)
        with pytest.raises(CapacityError):
            harness(svc)  # boot-time packing happens at attach


class TestSoftwareOnly:
    def test_slowdown_applied(self, registry, harness):
        svc = SoftwareOnlyService(registry, slowdown=10.0)
        h = harness(svc)
        t = Task("t", [FpgaOp("a3", 100000)])
        stats = h.run([t])
        hw_time = 100000 * 20e-9
        assert t.accounting.cpu_time == pytest.approx(10.0 * hw_time)
        assert stats.total_fpga_exec == 0  # nothing ran on the fabric

    def test_ops_serialize_on_cpu(self, registry, harness):
        svc = SoftwareOnlyService(registry, slowdown=10.0)
        h = harness(svc)
        tasks = [Task(f"t{i}", [FpgaOp("a3", 100000)]) for i in range(2)]
        stats = h.run(tasks)
        assert stats.makespan >= 2 * 10.0 * 100000 * 20e-9

    def test_validation(self, registry):
        with pytest.raises(ValueError):
            SoftwareOnlyService(registry, slowdown=0)


class TestNonPreemptable:
    def test_fifo_serialization(self, registry, harness):
        """Paper §4: the non-preemptable FPGA forces FIFO-like service."""
        svc = make_service("nonpreemptable", registry)
        h = harness(svc)
        tasks = [Task(f"t{i}", [FpgaOp("a3", 100000)]) for i in range(3)]
        h.run(tasks)
        done = sorted(
            (t.accounting.completion, t.name) for t in tasks
        )
        assert [name for _t, name in done] == ["t0", "t1", "t2"]

    def test_affinity_skips_reload(self, registry, harness):
        svc = make_service("nonpreemptable", registry)
        h = harness(svc)
        t = Task("t", [FpgaOp("a3", 100), FpgaOp("a3", 100), FpgaOp("b3", 100)])
        h.run([t])
        assert svc.metrics.n_loads == 2   # a3 once, b3 once
        assert svc.metrics.n_hits == 1    # the repeated a3

    def test_exact_fit_device_accepted(self, harness):
        small = ConfigRegistry(get_family("VF4"))
        small.register_synthetic("w4", 4, 4)
        svc = make_service("nonpreemptable", small)
        h = harness(svc)
        stats = h.run([Task("t", [FpgaOp("w4", 10)])])
        assert stats.n_tasks == 1
        assert svc.metrics.n_loads == 1

    def test_reconfig_charged_to_requesting_task(self, registry, harness):
        svc = make_service("nonpreemptable", registry)
        h = harness(svc)
        t = Task("t", [FpgaOp("d6", 10)])
        h.run([t])
        assert t.accounting.fpga_reconfig_time > 0
        assert t.accounting.n_reconfigs == 1

    def test_load_time_scales_with_region_width(self, registry, harness):
        svc = make_service("nonpreemptable", registry)
        h = harness(svc)
        t3 = Task("t3", [FpgaOp("a3", 10)])
        t6 = Task("t6", [FpgaOp("d6", 10)])
        h.run([t3, t6])
        assert (
            t6.accounting.fpga_reconfig_time
            > t3.accounting.fpga_reconfig_time
        )
