"""2-D rectangular allocation and the rect-layout variable partitions."""

import pytest

from repro.core import VariablePartitionService, VfpgaError
from repro.core.rect_alloc import RectAllocator
from repro.osim import CpuBurst, FpgaOp, Task


class TestRectAllocator:
    def test_bottom_left_order(self):
        a = RectAllocator(8, 8)
        assert a.allocate(3, 3) == (0, 0)
        assert a.allocate(3, 3) == (3, 0)
        assert a.allocate(3, 3) == (0, 3)  # wraps up once the row is full

    def test_no_overlap_ever(self):
        import random

        rng = random.Random(3)
        a = RectAllocator(16, 16)
        placed = []
        for _ in range(200):
            if placed and rng.random() < 0.4:
                anchor, w, h = placed.pop(rng.randrange(len(placed)))
                a.release(anchor, w, h)
            else:
                w, h = rng.randint(1, 5), rng.randint(1, 5)
                anchor = a.allocate(w, h)
                if anchor is not None:
                    placed.append((anchor, w, h))
            rects = list(a.resident)
            for i, r1 in enumerate(rects):
                for r2 in rects[i + 1:]:
                    assert not r1.overlaps(r2)
            assert a.total_free == 256 - sum(r.area for r in rects)

    def test_largest_free_rect(self):
        a = RectAllocator(8, 8)
        assert a.largest_free_rect() == (8, 8)
        a.reserve(0, 0, 8, 4)
        assert a.largest_free_rect() == (8, 4)
        a.reserve(0, 4, 4, 4)
        assert a.largest_free_rect() == (4, 4)

    def test_fragmentation_gauge(self):
        a = RectAllocator(8, 8)
        assert a.fragmentation == 0.0
        # Checkerboard the middle to shatter free space.
        a.reserve(2, 2, 2, 2)
        a.reserve(5, 5, 2, 2)
        assert 0.0 < a.fragmentation < 1.0

    def test_release_validation(self):
        a = RectAllocator(4, 4)
        with pytest.raises(VfpgaError):
            a.release((0, 0), 2, 2)

    def test_reserve_conflict(self):
        a = RectAllocator(4, 4)
        a.reserve(0, 0, 3, 3)
        with pytest.raises(VfpgaError):
            a.reserve(1, 1, 2, 2)

    def test_has_room_counts_shattered_clbs(self):
        a = RectAllocator(6, 6)
        a.reserve(2, 0, 2, 6)      # a wall splits two 2x6 halves
        assert a.has_room(4, 6)    # 24 free CLBs in total ...
        assert a.allocate(4, 6) is None  # ... but no 4x6 hole
        assert not a.has_room(5, 5)

    def test_can_fit_somewhere(self):
        a = RectAllocator(6, 6)
        a.reserve(0, 0, 6, 3)
        assert a.can_fit_somewhere(6, 3)
        assert not a.can_fit_somewhere(4, 4)


@pytest.fixture
def rect_registry(arch):
    """Square circuits that pack 2-D but waste full-height columns."""
    from repro.core import ConfigRegistry

    reg = ConfigRegistry(arch)  # VF12
    for i in range(6):
        reg.register_synthetic(f"sq{i}", 4, 4, critical_path=20e-9)
    return reg


class TestRectLayoutService:
    def test_layout_validation(self, rect_registry):
        with pytest.raises(ValueError):
            VariablePartitionService(rect_registry, layout="diagonal")

    def test_more_square_circuits_resident_than_columns(
        self, rect_registry, harness
    ):
        """Six 4x4 circuits on a 12x12 device: 2-D holds all nine slots
        worth, 1-D columns only three (each 4x4 claims 4 full columns)."""
        def run(layout):
            svc = VariablePartitionService(rect_registry, layout=layout,
                                           hold_mode="op")
            h = harness(svc)
            tasks = [Task(f"t{i}", [FpgaOp(f"sq{i}", 200_000)])
                     for i in range(6)]
            h.run(tasks)
            return svc

        rect_svc = run("rect")
        col_svc = run("columns")
        assert len(rect_svc.residents) == 6       # all cached side by side
        assert len(col_svc.residents) <= 3        # columns: only 3 fit
        assert rect_svc.metrics.n_evictions == 0
        assert col_svc.metrics.n_evictions >= 3

    def test_rect_compaction_relocates(self, rect_registry, harness):
        from repro.core import ConfigRegistry

        reg = rect_registry
        reg.register_synthetic("wide", 12, 8, critical_path=20e-9)
        svc = VariablePartitionService(reg, layout="rect", gc="compact")
        h = harness(svc)
        # Fill the bottom rows with squares; one stays held through a CPU
        # section; then the 12x8 request needs a compacted layout.
        holders = [Task(f"t{i}", [FpgaOp(f"sq{i}", 10)]) for i in range(3)]
        mid = Task("mid", [FpgaOp("sq3", 10), CpuBurst(0.1), FpgaOp("sq3", 10)],
                   arrival=1e-3)
        wide = Task("wide", [FpgaOp("wide", 10)], arrival=2e-2)
        stats = h.run(holders + [mid, wide])
        assert stats.n_tasks == 5

    @pytest.mark.parametrize("placement,moves", [
        ("bottom-left", [("b", (4, 0))]),
        ("skyline", [("a", (4, 0)), ("b", (0, 0))]),
    ])
    def test_compaction_replaces_with_configured_strategy(
        self, arch, harness, placement, moves
    ):
        """2-D compaction re-places each idle circuit with the configured
        strategy: bottom-left slides ``b`` down beside ``a``, skyline
        drops ``a`` onto the empty floor first (a full-column rule would
        move ``a`` too)."""
        from repro.core import ConfigRegistry
        from repro.telemetry import Placement, Relocate

        reg = ConfigRegistry(arch)
        for name, w, h in [("a", 4, 4), ("b", 4, 4), ("c", 8, 4),
                           ("wide", 12, 8)]:
            reg.register_synthetic(name, w, h, critical_path=20e-9)
        svc = VariablePartitionService(reg, layout="rect", gc="compact",
                                       placement=placement)
        run = harness(svc)

        def held(name, arrival):
            return Task(f"t_{name}", [FpgaOp(name, 10), CpuBurst(0.1),
                                      FpgaOp(name, 10)], arrival=arrival)

        # a at (0,0), c at (4,0), b on top of a at (0,4); once the cached
        # c is evicted, 112 CLBs are free but no 12x8 hole.
        run.run([held("a", 0.0), Task("t_c", [FpgaOp("c", 10)],
                                      arrival=1e-3),
                 held("b", 2e-3), Task("t_wide", [FpgaOp("wide", 10)],
                                       arrival=2e-2)])
        assert [(e.handle, e.anchor) for e in run.log.events
                if isinstance(e, Relocate)] == moves
        assert [e.anchor for e in run.log.events if isinstance(e, Placement)
                and e.handle == "wide"] == [(0, 4)]

    def test_device_residency_matches_anchor_table(self, rect_registry, harness):
        svc = VariablePartitionService(rect_registry, layout="rect")
        h = harness(svc)
        tasks = [Task(f"t{i}", [FpgaOp(f"sq{i}", 1000)]) for i in range(4)]
        h.run(tasks)
        for name, res in svc.residents.items():
            bs = svc.fpga.resident[name]
            assert (bs.region.x, bs.region.y) == res.anchor
