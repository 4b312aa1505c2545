"""Segmentation tests: netlist cutting and the demand-loading service."""

import pytest

from repro.core import (
    ConfigRegistry,
    SegmentedVfpgaService,
    UnknownConfigError,
    make_segmented_circuit,
    segment_netlist,
)
from repro.netlist import LogicSimulator, ripple_adder
from repro.osim import FpgaOp, Task
from repro.telemetry import Load
from tests.core.test_pagination import AnchorRecordingLru


class TestSegmentNetlist:
    def test_segments_cover_all_cells(self):
        nl = ripple_adder(4)
        segments = segment_netlist(nl, 3)
        assert len(segments) == 3
        body = {
            c.name for c in nl.cells.values()
            if c.kind.value not in ("input", "output")
        }
        seg_cells = set()
        for seg in segments:
            seg_cells |= {
                c.name for c in seg.cells.values()
                if c.kind.value not in ("input", "output")
            }
        assert body <= seg_cells

    def test_segments_are_valid_netlists(self):
        for seg in segment_netlist(ripple_adder(4), 4):
            seg.validate()

    def test_segments_compose_functionally(self):
        """Evaluating the segments in order, feeding cut nets forward,
        reproduces the original circuit — self-contained sub-functions."""
        nl = ripple_adder(3)
        segments = segment_netlist(nl, 2)
        golden = LogicSimulator(nl)
        import random

        rng = random.Random(5)
        for _ in range(20):
            stim = {c.name: rng.randint(0, 1) for c in nl.primary_inputs}
            want = golden.evaluate(stim)
            values = dict(stim)
            got = {}
            for seg in segments:
                seg_sim = LogicSimulator(seg)
                seg_in = {
                    c.name: values[c.name] for c in seg.primary_inputs
                }
                out = seg_sim.evaluate(seg_in)
                for name, v in out.items():
                    if name.endswith("__cut_out"):
                        values[name[: -len("__cut_out")]] = v
                    else:
                        got[name] = v
                # Internal nets of the segment feed later segments too.
                for cell in seg.cells.values():
                    if cell.kind.value not in ("input", "output"):
                        seg_vals = seg_sim._settle(seg_in)
                        values[cell.name] = seg_vals[cell.name]
            assert {k: got[k] for k in want} == want

    def test_too_many_segments_rejected(self):
        with pytest.raises(ValueError):
            segment_netlist(ripple_adder(2), 99)

    def test_bad_count(self):
        with pytest.raises(ValueError):
            segment_netlist(ripple_adder(2), 0)


@pytest.fixture
def seg_setup(arch):
    reg = ConfigRegistry(arch)
    circ = make_segmented_circuit(
        reg, "virt", widths=[3, 4, 2, 3, 4], pattern="sequential", seed=1
    )
    return reg, circ


class TestSegmentedService:
    def test_variable_sizes_loaded_on_demand(self, seg_setup, harness):
        reg, circ = seg_setup
        svc = SegmentedVfpgaService(reg, [circ], replacement="lru")
        h = harness(svc)
        h.run([Task("t", [FpgaOp("virt", 5)])])
        assert svc.metrics.n_page_faults == 5  # all cold
        # Total virtual width 16 > physical 12: demand loading worked.
        assert sum(w for w in [3, 4, 2, 3, 4]) > 12

    def test_eviction_on_overflow(self, seg_setup, harness):
        reg, circ = seg_setup
        svc = SegmentedVfpgaService(reg, [circ], replacement="lru")
        h = harness(svc)
        h.run([Task("t", [FpgaOp("virt", 10)])])
        assert svc.metrics.n_evictions >= 1

    def test_working_set_stays_resident(self, arch, harness):
        reg = ConfigRegistry(arch)
        circ = make_segmented_circuit(
            reg, "virt", widths=[3, 3, 3], pattern="looping",
            working_set=3, seed=2,
        )
        svc = SegmentedVfpgaService(reg, [circ], replacement="lru")
        h = harness(svc)
        h.run([Task("t", [FpgaOp("virt", 30)])])
        assert svc.metrics.n_page_faults == 3  # cold only

    def test_segment_table_consistent(self, seg_setup, harness):
        reg, circ = seg_setup
        svc = SegmentedVfpgaService(reg, [circ])
        h = harness(svc)
        h.run([Task("t", [FpgaOp("virt", 7)])])
        assert svc.unit_table
        for seg, x in svc.unit_table.items():
            assert seg in svc.fpga.resident
            assert svc.fpga.resident[seg].region.x == x

    def test_unknown_circuit(self, seg_setup, harness):
        reg, circ = seg_setup
        svc = SegmentedVfpgaService(reg, [circ])
        h = harness(svc)
        with pytest.raises(UnknownConfigError):
            h.run([Task("t", [FpgaOp("ghost", 1)], configs=["ghost"])])

    def test_segment_name_rejected_at_admission(self, seg_setup, harness):
        """A task names segmented circuits; a segment is a registry entry
        that ``execute`` cannot run, so the task is refused before any
        load."""
        reg, circ = seg_setup
        svc = SegmentedVfpgaService(reg, [circ])
        h = harness(svc)
        with pytest.raises(UnknownConfigError, match="virt.s0"):
            h.run([Task("t", [FpgaOp("virt", 4), FpgaOp("virt.s0", 4)])])
        assert h.sim.now == 0.0
        assert h.log.count(Load) == 0

    def test_victims_offered_in_anchor_order(self, arch, harness):
        """E8b's input (widths 5,3,6,4,2,4, Zipf, seed 21, LRU): the
        policy sees the unpinned segments sorted by anchor, not in the
        order they were loaded."""
        reg = ConfigRegistry(arch)
        circ = make_segmented_circuit(reg, "virt", widths=[5, 3, 6, 4, 2, 4],
                                      critical_path=25e-9, pattern="zipf",
                                      seed=21)
        policy = AnchorRecordingLru()
        svc = SegmentedVfpgaService(reg, [circ], replacement=policy,
                                    cycles_per_access=40_000)
        policy.service = svc
        harness(svc).run([Task("t", [FpgaOp("virt", 60)])])
        assert len(policy.offers) == 28
        assert all(offer == sorted(offer) for offer in policy.offers)

    def test_real_compiled_segments(self, arch, harness):
        """End-to-end: cut a real netlist, compile every segment, and run
        the segmented circuit on the service."""
        from repro.core import SegmentedCircuit

        reg = ConfigRegistry(arch)
        names = []
        for seg in segment_netlist(ripple_adder(4), 3):
            entry = reg.compile_and_register(seg, seed=1, effort="greedy")
            names.append(entry.name)
        circ = SegmentedCircuit(
            name="adder_seg", segment_names=tuple(names),
            pattern="sequential", seed=1,
        )
        svc = SegmentedVfpgaService(reg, [circ], cycles_per_access=100)
        h = harness(svc)
        stats = h.run([Task("t", [FpgaOp("adder_seg", 6)])])
        assert stats.n_tasks == 1
        assert svc.metrics.n_page_faults >= 3
