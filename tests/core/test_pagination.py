"""Pagination service tests (paper §2 fixed-size demand loading)."""

import pytest

from repro.core import (
    CapacityError,
    ConfigRegistry,
    LruReplacement,
    PagedVfpgaService,
    UnknownConfigError,
    make_paged_circuit,
    make_service,
)
from repro.osim import FpgaOp, Task
from repro.telemetry import Evict, Load, Placement


class AnchorRecordingLru(LruReplacement):
    """LRU that records the anchor x of every candidate it is offered."""

    def __init__(self) -> None:
        super().__init__()
        self.service = None
        self.offers = []

    def victim(self, candidates):
        resident = self.service.fpga.resident
        self.offers.append([resident[c].region.x for c in candidates])
        return super().victim(candidates)


@pytest.fixture
def paged_setup(arch):
    reg = ConfigRegistry(arch)
    circ = make_paged_circuit(
        reg, "virt", n_pages=6, page_width=3, pattern="sequential", seed=1
    )
    return reg, circ


class TestConstruction:
    def test_frame_count(self, paged_setup, harness):
        reg, circ = paged_setup
        svc = PagedVfpgaService(reg, [circ], frame_width=3)
        harness(svc)
        assert svc.n_frames == 4

    def test_page_wider_than_frame_rejected(self, paged_setup):
        reg, circ = paged_setup
        with pytest.raises(CapacityError, match="exceeds the frame"):
            PagedVfpgaService(reg, [circ], frame_width=2)

    def test_bad_frame_width(self, paged_setup):
        reg, circ = paged_setup
        with pytest.raises(ValueError):
            PagedVfpgaService(reg, [circ], frame_width=0)

    def test_unknown_circuit_rejected_at_exec(self, paged_setup, harness):
        reg, circ = paged_setup
        svc = PagedVfpgaService(reg, [circ], frame_width=3)
        h = harness(svc)
        with pytest.raises(UnknownConfigError):
            h.run([Task("t", [FpgaOp("ghost", 5)], configs=["ghost"])])

    def test_page_name_rejected_at_admission(self, paged_setup, harness):
        """A task names paged circuits; a page is a registry entry that
        ``execute`` cannot run, so the task is refused before any load."""
        reg, circ = paged_setup
        svc = PagedVfpgaService(reg, [circ], frame_width=3)
        h = harness(svc)
        with pytest.raises(UnknownConfigError, match="virt.p0"):
            h.run([Task("t", [FpgaOp("virt", 4), FpgaOp("virt.p0", 4)])])
        assert h.sim.now == 0.0
        assert h.log.count(Load) == 0

    def test_make_service_refuses_placement(self, paged_setup):
        reg, circ = paged_setup
        with pytest.raises(TypeError):
            make_service("paged", reg, circuits=[circ], frame_width=3,
                         placement="column-best-fit")


class TestDemandPaging:
    def test_cold_faults_then_hits(self, paged_setup, harness):
        reg, circ = paged_setup
        svc = PagedVfpgaService(reg, [circ], frame_width=3, replacement="lru")
        h = harness(svc)
        # Sequential over 6 pages with 4 frames: first pass 6 faults, and
        # a cyclic sweep keeps faulting under LRU (Belady's anomaly zone).
        h.run([Task("t", [FpgaOp("virt", 6)])])
        assert svc.metrics.n_page_faults == 6
        assert svc.metrics.n_page_accesses == 6

    def test_working_set_fits_no_steady_faults(self, arch, harness):
        reg = ConfigRegistry(arch)
        circ = make_paged_circuit(
            reg, "virt", n_pages=8, page_width=3,
            pattern="looping", working_set=3, seed=1,
        )
        svc = PagedVfpgaService(reg, [circ], frame_width=3, replacement="lru")
        h = harness(svc)
        h.run([Task("t", [FpgaOp("virt", 30)])])
        assert svc.metrics.n_page_faults == 3  # only the cold misses
        assert svc.metrics.fault_rate == pytest.approx(0.1)

    def test_lru_thrashes_on_large_loop_mru_does_not(self, arch, harness):
        """The classic cyclic-sweep result: loop of 5 pages over 4 frames
        makes LRU fault every access while MRU converges."""
        def run(replacement):
            reg = ConfigRegistry(arch)
            circ = make_paged_circuit(
                reg, "virt", n_pages=5, page_width=3,
                pattern="looping", working_set=5, seed=1,
            )
            svc = PagedVfpgaService(
                reg, [circ], frame_width=3, replacement=replacement
            )
            h = harness(svc)
            h.run([Task("t", [FpgaOp("virt", 40)])])
            return svc.metrics.n_page_faults

        assert run("lru") > 2 * run("mru")

    def test_page_table_consistent_after_run(self, paged_setup, harness):
        reg, circ = paged_setup
        svc = PagedVfpgaService(reg, [circ], frame_width=3)
        h = harness(svc)
        h.run([Task("t", [FpgaOp("virt", 13)])])
        for page, x in svc.unit_table.items():
            assert svc.fpga.resident[page].region.x == x
        anchors = list(svc.unit_table.values())
        assert len(set(anchors)) == len(anchors)
        assert all(x % svc.frame_width == 0 for x in anchors)
        assert 0 < len(anchors) <= svc.n_frames

    def test_placement_events_name_fixed_frames(self, paged_setup, harness):
        """Cold frames are claimed with 4, 3, 2, 1 empty; after that
        every load follows one eviction and sees one empty frame."""
        reg, circ = paged_setup
        svc = PagedVfpgaService(reg, [circ], frame_width=3)
        h = harness(svc)
        h.run([Task("t", [FpgaOp("virt", 13)])])
        placements = [e for e in h.log.events if isinstance(e, Placement)]
        assert len(placements) == 13
        assert all(e.strategy == "fixed-frame" for e in placements)
        assert all(e.fragmentation == 0.0 for e in placements)
        assert [e.candidates for e in placements] == [4, 3, 2, 1] + [1] * 9
        assert h.log.count(Evict) == 9

    def test_victims_offered_in_anchor_order(self, arch, harness):
        """E8b-shaped input (24 virtual columns, Zipf, LRU): the policy
        sees the unpinned pages sorted by frame."""
        reg = ConfigRegistry(arch)
        circ = make_paged_circuit(reg, "virt", n_pages=8, page_width=3,
                                  critical_path=25e-9, pattern="zipf",
                                  seed=21)
        policy = AnchorRecordingLru()
        svc = PagedVfpgaService(reg, [circ], frame_width=3,
                                replacement=policy, cycles_per_access=40_000)
        policy.service = svc
        harness(svc).run([Task("t", [FpgaOp("virt", 60)])])
        assert policy.offers
        assert all(offer == sorted(offer) for offer in policy.offers)

    def test_fault_time_charged_as_reconfig(self, paged_setup, harness):
        reg, circ = paged_setup
        svc = PagedVfpgaService(reg, [circ], frame_width=3)
        h = harness(svc)
        t = Task("t", [FpgaOp("virt", 6)])
        h.run([t])
        assert t.accounting.fpga_reconfig_time > 0
        assert t.accounting.n_reconfigs == 6

    def test_virtual_larger_than_physical(self, arch, harness):
        """The headline: a 24-column virtual circuit runs on a 12-column
        device."""
        reg = ConfigRegistry(arch)
        circ = make_paged_circuit(
            reg, "huge", n_pages=8, page_width=3, pattern="sequential", seed=2
        )
        virtual_columns = 8 * 3
        assert virtual_columns > arch.width
        svc = PagedVfpgaService(reg, [circ], frame_width=3)
        h = harness(svc)
        stats = h.run([Task("t", [FpgaOp("huge", 16)])])
        assert stats.n_tasks == 1
        assert svc.metrics.exec_time > 0

    def test_two_circuits_share_frames(self, arch, harness):
        reg = ConfigRegistry(arch)
        c1 = make_paged_circuit(reg, "v1", 4, 3, pattern="sequential", seed=1)
        c2 = make_paged_circuit(reg, "v2", 4, 3, pattern="sequential", seed=2)
        svc = PagedVfpgaService(reg, [c1, c2], frame_width=3)
        h = harness(svc)
        stats = h.run([
            Task("t1", [FpgaOp("v1", 8)]),
            Task("t2", [FpgaOp("v2", 8)]),
        ])
        assert stats.n_tasks == 2
        # Frames were contended: total faults exceed one circuit's pages.
        assert svc.metrics.n_page_faults > 4
