"""VfpgaServiceBase primitives: port serialization, full-serial wipe,
fabric-idle waits, and charge accounting."""

import pytest

from repro.core import ConfigRegistry, VfpgaError
from repro.core.base import VfpgaServiceBase
from repro.device import Fpga, get_family
from repro.osim import FpgaOp, Task
from repro.telemetry import FpgaComplete, Load


class ProbeService(VfpgaServiceBase):
    """Minimal concrete service: load-if-needed (side by side), execute."""

    ANCHORS = {"a": (0, 0), "b": (2, 0)}

    def execute(self, task, op):
        entry = self.registry.get(op.config)
        if not self.is_resident(op.config):
            yield from self._charge_load(task, entry, self.ANCHORS[op.config])
        yield from self._charge_io(task, entry, op)
        yield from self._charge_exec(task, entry, self.op_seconds(entry, op))


@pytest.fixture
def partial_registry():
    arch = get_family("VF8")
    reg = ConfigRegistry(arch)
    reg.register_synthetic("a", 2, arch.height, critical_path=20e-9)
    reg.register_synthetic("b", 2, arch.height, critical_path=20e-9)
    return reg


@pytest.fixture
def serial_registry():
    arch = get_family("VF8").scaled(supports_partial=False)
    reg = ConfigRegistry(arch)
    reg.register_synthetic("a", 2, arch.height, critical_path=20e-9)
    reg.register_synthetic("b", 2, arch.height, critical_path=20e-9)
    return reg


class TestPortSerialization:
    def test_concurrent_loads_serialize(self, partial_registry, harness):
        svc = ProbeService(partial_registry)
        h = harness(svc)
        # Two tasks load different configs at t=0; the port is serial so
        # the second load starts only after the first finishes.
        t1 = Task("t1", [FpgaOp("a", 1)])
        t2 = Task("t2", [FpgaOp("b", 1)])
        h.run([t1, t2])
        loads = h.log.of_type(Load)
        assert len(loads) == 2
        assert loads[1].time >= loads[0].time + svc.fpga.port.load_time(
            partial_registry.get("a").bitstream
        ).seconds * 0.99


class TestFullSerialSemantics:
    def test_any_load_evicts_everything(self, serial_registry, harness):
        svc = ProbeService(serial_registry)
        h = harness(svc)
        t = Task("t", [FpgaOp("a", 1), FpgaOp("b", 1)])
        h.run([t])
        # After loading b on a full-serial device, a is gone.
        assert svc.resident_handles() == {"b"}

    def test_load_waits_for_fabric_idle(self, serial_registry, harness):
        svc = ProbeService(serial_registry)
        h = harness(svc)
        # Long op on "a"; "b" requested while it runs: on a full-serial
        # device the b download must wait for a's completion.
        ta = Task("ta", [FpgaOp("a", 2_000_000)])  # 40 ms
        tb = Task("tb", [FpgaOp("b", 1)], arrival=1e-3)
        h.run([ta, tb])
        a_done = next(e for e in h.log.of_type(FpgaComplete) if e.task == "ta")
        b_load = next(e for e in h.log.of_type(Load) if e.task == "tb")
        assert b_load.time >= a_done.time - 1e-12

    def test_partial_device_does_not_wait(self, partial_registry, harness):
        svc = ProbeService(partial_registry)
        h = harness(svc)
        ta = Task("ta", [FpgaOp("a", 2_000_000)])
        tb = Task("tb", [FpgaOp("b", 1)], arrival=1e-3)
        h.run([ta, tb])
        a_done = next(e for e in h.log.of_type(FpgaComplete) if e.task == "ta")
        b_load = next(e for e in h.log.of_type(Load) if e.task == "tb")
        assert b_load.time < a_done.time  # overlapped


class TestChargeAccounting:
    def test_unload_of_absent_handle_is_noop(self, partial_registry, harness):
        svc = ProbeService(partial_registry)
        h = harness(svc)

        def body():
            yield from svc._charge_unload(None, "ghost")

        h.sim.process(body())
        h.sim.run()
        assert svc.metrics.n_unloads == 0

    def test_arch_mismatch_rejected(self, partial_registry):
        other = Fpga(get_family("VF12"))
        with pytest.raises(VfpgaError, match="architectures differ"):
            ProbeService(partial_registry, fpga=other)

    def test_exec_accounts_to_both_sides(self, partial_registry, harness):
        svc = ProbeService(partial_registry)
        h = harness(svc)
        t = Task("t", [FpgaOp("a", 1000, io_words=100)])
        h.run([t])
        assert t.accounting.fpga_exec_time == pytest.approx(
            svc.metrics.exec_time
        )
        assert t.accounting.fpga_io_time == pytest.approx(svc.metrics.io_time)
        assert t.accounting.fpga_io_time > 0
