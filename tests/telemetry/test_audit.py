"""Online invariant monitors (:mod:`repro.telemetry.audit`).

Two families of tests:

* **clean streams** — every management policy must audit clean, and a
  replay of its recorded stream (including a JSONL round-trip) must
  reach *exactly* the live verdicts (violation parity, the same
  guarantee ``tests/telemetry/test_parity.py`` gives the metrics);
* **corrupted streams** — each invariant must fire on a stream that is
  deliberately broken in the way it guards against (double allocation,
  reordered evictions, unmatched restores, overlapping port transfers,
  operations that never complete).
"""

import io

import pytest

from repro.core import (
    DynamicLoadingService,
    FixedPartitionService,
    MergedResidentService,
    SaveRestore,
    VariablePartitionService,
)
from repro.osim import DeadlockError, FpgaOp, Kernel, RoundRobin, Task
from repro.sim import Simulator
from repro.telemetry import (
    AuditError,
    Auditor,
    AuditViolation,
    EventBus,
    Evict,
    FpgaRequest,
    Load,
    StateRestore,
    StateSave,
    audit_events,
    read_jsonl,
    to_jsonl,
)

CP = 20e-9  # critical path of every synthetic config in the registry

CLB_CAPACITY = 120  # VF12: 12 x 10


def mixed_tasks():
    return [
        Task("t0", [FpgaOp("a3", 5000), FpgaOp("b3", 5000)]),
        Task("t1", [FpgaOp("c4", 5000), FpgaOp("a3", 5000)]),
        Task("t2", [FpgaOp("b3", 5000)]),
    ]


def audited_run(logged, service, tasks, **kw):
    """Run ``tasks`` with a live lenient auditor on the kernel bus."""
    auditors = []
    run = logged(
        service,
        subscribe=lambda bus: auditors.append(
            Auditor(bus, clb_capacity=CLB_CAPACITY)
        ),
        **kw,
    )
    run.run(tasks)
    return run, auditors[0].finish()


def assert_replay_parity(run, live):
    """Replaying the recorded stream reaches the live verdicts, and so
    does a JSONL round-trip of it."""
    replayed = audit_events(run.log.events, clb_capacity=CLB_CAPACITY)
    assert replayed.summary() == live.summary()
    buf = io.StringIO()
    to_jsonl(run.log.events, buf)
    buf.seek(0)
    decoded = audit_events(read_jsonl(buf), clb_capacity=CLB_CAPACITY)
    assert decoded.summary() == live.summary()
    return replayed


class TestCleanPolicies:
    """Every policy's real stream audits clean, live and replayed."""

    def test_dynamic_loading(self, registry, logged):
        run, live = audited_run(logged, DynamicLoadingService(registry),
                                mixed_tasks())
        assert live.ok and live.n_events > 0
        assert_replay_parity(run, live)

    def test_dynamic_preemptive_state_pairing(self, registry, logged):
        """Save/restore preemption mints state versions that pair up."""
        svc = DynamicLoadingService(
            registry, preemption=SaveRestore(),
            fpga_time_slice=50000 * CP,
        )
        tasks = [
            Task("t0", [FpgaOp("seq4", 200000)]),
            Task("t1", [FpgaOp("seq4", 200000)]),
        ]
        run, live = audited_run(logged, svc, tasks)
        assert live.ok
        saves = [e for e in run.log.events if type(e) is StateSave]
        restores = [e for e in run.log.events if type(e) is StateRestore]
        assert saves and restores, "workload must actually preempt"
        assert all(e.version > 0 for e in saves + restores)
        assert_replay_parity(run, live)

    def test_fixed_partitions(self, registry, logged):
        run, live = audited_run(
            logged, FixedPartitionService.equal(registry, 2), mixed_tasks()
        )
        assert live.ok
        assert_replay_parity(run, live)

    def test_variable_partitions_with_gc(self, registry, logged):
        svc = VariablePartitionService(registry, gc="compact")
        run, live = audited_run(logged, svc, mixed_tasks())
        assert live.ok
        assert_replay_parity(run, live)

    def test_merged_exclusive_boot(self, arch, logged):
        """The full-serial boot download is exclusive and untasked: it
        must not trip the port or double-allocation monitors."""
        from repro.core import ConfigRegistry

        # A registry the merged baseline can pack (3+3+4 of 12 columns;
        # the shared fixture's 4 full-height circuits don't all fit).
        reg = ConfigRegistry(arch)
        for name, w in [("a3", 3), ("b3", 3), ("c4", 4)]:
            reg.register_synthetic(name, w, arch.height, critical_path=CP)
        run, live = audited_run(logged, MergedResidentService(reg),
                                mixed_tasks())
        assert live.ok
        assert_replay_parity(run, live)


class TestCorruptedStreams:
    """Each invariant fires on the stream corruption it guards against."""

    def recorded(self, registry, logged):
        run, live = audited_run(logged, DynamicLoadingService(registry),
                                mixed_tasks())
        assert live.ok
        return [e for e in run.log.events if not isinstance(e, AuditViolation)]

    def test_dropped_evict_fires_double_allocation(self, registry, logged):
        """Losing an Evict makes the next Load of that area an overlap."""
        events = self.recorded(registry, logged)
        evicts = [e for e in events if type(e) is Evict]
        assert evicts, "corruption needs a real eviction to drop"
        events.remove(evicts[0])
        auditor = audit_events(events, clb_capacity=CLB_CAPACITY)
        assert auditor.counts.get("double-allocation", 0) >= 1

    def test_reordered_evict_fires_evict_without_load(self, registry, logged):
        """Moving an Evict ahead of every Load breaks causal ordering."""
        events = self.recorded(registry, logged)
        evicts = [e for e in events if type(e) is Evict]
        events.remove(evicts[0])
        corrupted = [evicts[0]] + events
        auditor = audit_events(corrupted, clb_capacity=CLB_CAPACITY)
        assert auditor.counts.get("evict-without-load", 0) >= 1

    def test_corruption_verdicts_survive_jsonl(self, registry, logged):
        """Replay parity holds for dirty streams too, not just clean ones."""
        events = self.recorded(registry, logged)
        events.remove([e for e in events if type(e) is Evict][0])
        direct = audit_events(events, clb_capacity=CLB_CAPACITY)
        buf = io.StringIO()
        to_jsonl(events, buf)
        buf.seek(0)
        decoded = audit_events(read_jsonl(buf), clb_capacity=CLB_CAPACITY)
        assert not direct.ok
        assert decoded.summary() == direct.summary()


class TestInvariantUnits:
    """Hand-built streams force each monitor directly."""

    def test_overlapping_load_fires(self):
        """The acceptance case: two loads claiming intersecting
        rectangles is a double allocation."""
        auditor = Auditor()
        auditor(Load(1.0, "t0", source="svc", handle="a", clbs=30,
                     anchor=(0, 0), shape=(3, 10)))
        auditor(Load(2.0, "t1", source="svc", handle="b", clbs=30,
                     anchor=(2, 0), shape=(3, 10)))
        assert auditor.counts.get("double-allocation") == 1
        assert "overlaps" in auditor.violations[0].message

    def test_disjoint_loads_are_clean(self):
        auditor = Auditor()
        auditor(Load(1.0, "t0", source="svc", handle="a", clbs=30,
                     anchor=(0, 0), shape=(3, 10)))
        auditor(Load(2.0, "t1", source="svc", handle="b", clbs=30,
                     anchor=(3, 0), shape=(3, 10)))
        assert auditor.ok

    def test_reload_of_resident_handle_fires(self):
        auditor = Auditor()
        auditor(Load(1.0, "t0", source="svc", handle="a", clbs=30))
        auditor(Load(2.0, "t1", source="svc", handle="a", clbs=30))
        assert auditor.counts.get("double-allocation") == 1

    def test_exclusive_load_clears_the_ledger(self):
        auditor = Auditor()
        auditor(Load(1.0, "t0", source="svc", handle="a", clbs=30,
                     anchor=(0, 0), shape=(3, 10)))
        auditor(Load(2.0, "t1", source="svc", handle="b", clbs=30,
                     anchor=(0, 0), shape=(3, 10), exclusive=True))
        assert auditor.ok

    def test_capacity_excess_fires(self):
        auditor = Auditor(clb_capacity=50)
        auditor(Load(1.0, "t0", source="svc", handle="a", clbs=30,
                     anchor=(0, 0), shape=(3, 10)))
        auditor(Load(2.0, "t1", source="svc", handle="b", clbs=30,
                     anchor=(5, 0), shape=(3, 10)))
        assert auditor.counts.get("double-allocation") == 1

    def test_restore_without_save_fires(self):
        auditor = Auditor()
        auditor(StateRestore(1.0, "t0", source="svc", handle="a", version=1))
        assert auditor.counts.get("state-pairing") == 1

    def test_restore_with_wrong_version_fires(self):
        auditor = Auditor()
        auditor(StateSave(1.0, "t0", source="svc", handle="a", version=7))
        auditor(StateRestore(2.0, "t0", source="svc", handle="a", version=3))
        assert auditor.counts.get("state-pairing") == 1

    def test_matched_save_restore_is_clean(self):
        auditor = Auditor()
        auditor(StateSave(1.0, "t0", source="svc", handle="a", version=7))
        auditor(StateRestore(2.0, "t0", source="svc", handle="a", version=7))
        assert auditor.ok

    def test_port_overlap_fires(self):
        auditor = Auditor()
        auditor(Load(1.0, "t0", source="svc", handle="a", clbs=30,
                     anchor=(0, 0), shape=(3, 10), seconds=0.5))
        auditor(Load(1.2, "t1", source="svc", handle="b", clbs=30,
                     anchor=(5, 0), shape=(3, 10), seconds=0.5))
        assert auditor.counts.get("port-overlap") == 1

    def test_port_overlap_is_per_source(self):
        """Two boards transfer concurrently without conflict."""
        auditor = Auditor()
        auditor(Load(1.0, "t0", source="board0", handle="a", clbs=30,
                     seconds=0.5))
        auditor(Load(1.2, "t1", source="board1", handle="b", clbs=30,
                     seconds=0.5))
        assert auditor.ok

    def test_untasked_boot_loads_exempt_from_port_overlap(self):
        auditor = Auditor()
        auditor(Load(0.0, source="svc", handle="a", clbs=30,
                     anchor=(0, 0), shape=(3, 10), seconds=0.5))
        auditor(Load(0.0, source="svc", handle="b", clbs=30,
                     anchor=(3, 0), shape=(3, 10), seconds=0.5))
        assert auditor.ok

    def test_stream_deadline_fires(self):
        auditor = Auditor(deadline=1.0)
        auditor(FpgaRequest(0.0, "t0", config="a", op_id=1))
        auditor(Load(5.0, "t1", source="svc", handle="b", clbs=1))
        assert auditor.counts.get("op-deadline") == 1
        # Flagged once, not on every later event.
        auditor(Load(9.0, "t1", source="svc", handle="c", clbs=1))
        assert auditor.counts.get("op-deadline") == 1

    def test_finish_flags_open_ops_as_warnings(self):
        auditor = Auditor()
        auditor(FpgaRequest(0.0, "t0", config="a", op_id=1))
        auditor.finish()
        assert auditor.counts.get("op-never-completed") == 1
        assert auditor.n_errors == 0 and auditor.n_warnings == 1

    def test_strict_mode_publishes_then_raises(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, AuditViolation)
        auditor = Auditor(bus, mode="strict")
        with pytest.raises(AuditError) as exc:
            bus.publish(Load(1.0, "t0", source="svc", handle="a", clbs=1))
            bus.publish(Load(2.0, "t1", source="svc", handle="a", clbs=1))
        assert exc.value.violation.invariant == "double-allocation"
        assert seen and seen[0] is exc.value.violation

    def test_lenient_mode_counts(self):
        bus = EventBus()
        auditor = Auditor(bus, mode="lenient")
        bus.publish(Load(1.0, "t0", source="svc", handle="a", clbs=1))
        bus.publish(Load(2.0, "t1", source="svc", handle="a", clbs=1))
        assert auditor.counts["double-allocation"] == 1
        # The reload also desynchronizes the occupancy cross-check — the
        # two monitors corroborate each other on a dirty stream.
        assert auditor.n_errors >= 1

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            Auditor(mode="pedantic")


class TestSimulateIntegration:
    """The facade-level wiring: an auditor on the run's ``bus``."""

    def make_vf(self):
        from repro.core import VirtualFpga
        from repro.netlist import CIRCUIT_GENERATORS

        vf = VirtualFpga("VF10")
        vf.add_circuit(CIRCUIT_GENERATORS["parity_tree"](4), effort="greedy")
        vf.add_circuit(CIRCUIT_GENERATORS["counter"](3), effort="greedy")
        return vf

    def tasks(self, vf):
        from repro.osim import uniform_workload

        return uniform_workload(vf.circuits, n_tasks=3, ops_per_task=2,
                                cpu_burst=1e-3, cycles=20000, seed=1)

    def test_simulate_audit_clean(self):
        vf = self.make_vf()
        bus = EventBus()
        auditor = Auditor(bus, mode="strict", clb_capacity=vf.arch.n_clbs)
        vf.simulate(self.tasks(vf), policy="dynamic", bus=bus)
        assert auditor.finish().ok
        assert auditor.n_events > 0

    def test_kernel_op_deadline_watchdog(self):
        """A stuck service trips the kernel's fail-fast deadline instead
        of simulating the starving system to the bitter end."""
        from repro.osim import FpgaService

        class StuckService(FpgaService):
            def execute(self, task, op):
                yield self.kernel.sim.event()  # never triggers

        sim = Simulator()
        kernel = Kernel(sim, RoundRobin(), StuckService(),
                        context_switch=0.0, op_deadline=0.5)
        kernel.spawn(Task("t", [FpgaOp("c", 1)], configs=["c"]))
        with pytest.raises(DeadlockError, match="liveness watchdog"):
            kernel.run()
        assert sim.now == pytest.approx(0.5)

    def test_kernel_op_deadline_validation(self):
        sim = Simulator()
        from repro.osim import NullFpgaService

        with pytest.raises(ValueError):
            Kernel(sim, RoundRobin(), NullFpgaService(), op_deadline=0.0)
