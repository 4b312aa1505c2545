"""VirtualFpga facade tests: interactive use + managed simulation."""

import pytest

from repro.core import VirtualFpga, make_preemption_policy, make_service
from repro.core.preemption import SaveRestore
from repro.netlist import LogicSimulator, counter, parity_tree, ripple_adder
from repro.osim import FpgaOp, Task, uniform_workload
from repro.telemetry import EventBus, EventLog, TaskDone


@pytest.fixture(scope="module")
def vf():
    v = VirtualFpga("VF10")
    v.add_circuit(ripple_adder(3), effort="greedy", seed=1)
    v.add_circuit(counter(3), effort="greedy", seed=1)
    v.add_circuit(parity_tree(4), effort="greedy", seed=1)
    return v


class TestInteractive:
    def test_adder_computes(self, vf):
        out = vf.evaluate("adder3", {
            **LogicSimulator.pack_bus("a", 5, 3),
            **LogicSimulator.pack_bus("b", 2, 3),
            "cin": 0,
        })
        value = LogicSimulator.unpack_bus(out, "s") | (out["cout"] << 3)
        assert value == 7

    def test_counter_steps_and_state(self, vf):
        vf.write_state("counter3", {f"q{i}_ff": 0 for i in range(3)})
        vf.step("counter3", {"en": 1})
        out = vf.step("counter3", {"en": 1})
        assert LogicSimulator.unpack_bus(out, "q") == 1
        snap = vf.read_state("counter3")
        assert set(snap) == {f"q{i}_ff" for i in range(3)}

    def test_switching_circuits_counts_loads(self, vf):
        before = vf.interactive_loads
        vf.evaluate("parity4", LogicSimulator.pack_bus("d", 0b1011, 4))
        vf.evaluate("adder3", {
            **LogicSimulator.pack_bus("a", 1, 3),
            **LogicSimulator.pack_bus("b", 1, 3),
            "cin": 0,
        })
        assert vf.interactive_loads >= before + 2
        assert vf.interactive_load_time > 0

    def test_repeat_use_no_reload(self, vf):
        vf.evaluate("parity4", LogicSimulator.pack_bus("d", 1, 4))
        before = vf.interactive_loads
        vf.evaluate("parity4", LogicSimulator.pack_bus("d", 2, 4))
        assert vf.interactive_loads == before

    def test_parity_correct(self, vf):
        for v in (0b0000, 0b1000, 0b1110, 0b1111):
            out = vf.evaluate("parity4", LogicSimulator.pack_bus("d", v, 4))
            assert out["p"] == bin(v).count("1") % 2


class TestSimulate:
    def test_runs_and_returns_stats(self, vf):
        tasks = uniform_workload(vf.circuits, 3, 2, 1e-3, 1000, seed=1)
        bus = EventBus()
        log = EventLog(bus)
        stats = vf.simulate(tasks, policy="dynamic", bus=bus)
        assert stats.n_tasks == 3
        assert vf.last_service.metrics.n_ops == 6
        assert log.count(TaskDone) == 3

    def test_policies_by_name(self, vf):
        for policy, kw in [
            ("nonpreemptable", {}),
            ("dynamic", {"preemption": "save-restore", "fpga_time_slice": 1e-3}),
            ("variable", {"gc": "merge"}),
        ]:
            tasks = [Task("t", [FpgaOp("adder3", 100)])]
            stats = vf.simulate(tasks, policy=policy, **kw)
            assert stats.n_tasks == 1

    def test_unknown_policy(self, vf):
        with pytest.raises(ValueError, match="unknown policy"):
            vf.simulate([Task("t", [])], policy="hyperdrive")


class TestFactories:
    def test_make_preemption_policy_names(self):
        assert make_preemption_policy("rollback").name == "rollback"
        sr = SaveRestore()
        assert make_preemption_policy(sr) is sr
        with pytest.raises(ValueError):
            make_preemption_policy("telepathy")

    def test_make_service_rejects_unknown(self, vf):
        with pytest.raises(ValueError):
            make_service("quantum", vf.registry)
