"""ColumnAllocator tests: fits, splits, merges, fragmentation."""

import pytest

from repro.core import (
    ColumnAllocator,
    ColumnFirstFit,
    VfpgaError,
    make_placement,
)


class TestAllocate:
    def test_first_fit_takes_leftmost(self):
        a = ColumnAllocator(12)
        assert a.allocate(4, 1) == (0, 0)
        assert a.allocate(4, 1) == (4, 0)
        assert a.total_free == 4

    def test_best_fit_minimizes_leftover(self):
        a = ColumnAllocator(12, coalesce=False, placement="column-best-fit")
        a.reserve(0, 3)          # free: (3,9)
        a.release((0, 0), 3, 1)  # free spans: (0,3) and (3,9) — unmerged
        assert a.allocate(3, 1) == (0, 0)  # exact fit preferred

    def test_worst_fit_takes_largest(self):
        a = ColumnAllocator(12, coalesce=False, placement="column-worst-fit")
        a.reserve(0, 3)
        a.release((0, 0), 3, 1)
        assert a.allocate(2, 1) == (3, 0)

    def test_height_is_ignored(self):
        """Spans are full height: any requested height places alike."""
        a = ColumnAllocator(12)
        assert a.allocate(4, 99) == (0, 0)
        a.release((0, 0), 4, 7)
        assert a.free_spans == [(0, 12)]

    def test_no_fit_returns_none(self):
        a = ColumnAllocator(4)
        assert a.allocate(5, 1) is None

    def test_bad_fit_name(self):
        """An unknown split rule is rejected when the allocator is built."""
        with pytest.raises(ValueError, match="unknown placement"):
            ColumnAllocator(4, placement="psychic")

    def test_exhaustion(self):
        a = ColumnAllocator(6)
        a.allocate(6, 1)
        assert a.allocate(1, 1) is None
        assert a.total_free == 0

    def test_strategy_asked_only_when_a_span_is_wide_enough(self):
        """A request wider than every free span fails without building
        a request for the strategy, which could only refuse it."""
        asked = []

        class Counting(ColumnFirstFit):
            def propose(self, req):
                asked.append(req.w)
                return super().propose(req)

        a = ColumnAllocator(12, coalesce=False, placement=Counting())
        a.reserve(4, 2)          # free spans: (0,4) and (6,6)
        assert a.allocate(7, 1) is None
        assert a.last_proposal is None
        assert asked == []
        assert a.allocate(6, 1) == (6, 0)
        assert asked == [6]
        assert a.allocate(5, 1) is None
        assert asked == [6]

    def test_has_room_counts_split_columns(self):
        a = ColumnAllocator(10, coalesce=False)
        a.reserve(4, 2)          # free spans: (0,4) and (6,4)
        assert a.has_room(8, 1)  # 8 free columns in total ...
        assert a.allocate(8, 1) is None  # ... but no single span of 8
        assert not a.has_room(9, 1)


class TestReleaseAndMerge:
    def test_coalescing_release(self):
        a = ColumnAllocator(10)  # coalesce=True
        a1, a2 = a.allocate(5, 1), a.allocate(5, 1)
        a.release(a1, 5, 1)
        a.release(a2, 5, 1)
        assert a.free_spans == [(0, 10)]

    def test_non_coalescing_keeps_boundaries(self):
        a = ColumnAllocator(10, coalesce=False)
        a1, a2 = a.allocate(5, 1), a.allocate(5, 1)
        a.release(a1, 5, 1)
        a.release(a2, 5, 1)
        assert a.free_spans == [(0, 5), (5, 5)]
        assert a.largest_free == 5
        # The paper's hazard: 10 columns free, an 8-wide request starves.
        assert a.allocate(8, 1) is None

    def test_merge_free_fuses(self):
        a = ColumnAllocator(10, coalesce=False)
        a1, a2 = a.allocate(5, 1), a.allocate(5, 1)
        a.release(a1, 5, 1)
        a.release(a2, 5, 1)
        assert a.merge_free() == 1
        assert a.allocate(8, 1) == (0, 0)

    def test_double_free_rejected(self):
        a = ColumnAllocator(10)
        anchor = a.allocate(4, 1)
        a.release(anchor, 4, 1)
        with pytest.raises(VfpgaError, match="double free"):
            a.release(anchor, 4, 1)

    def test_overlapping_free_rejected(self):
        a = ColumnAllocator(10)
        a.allocate(4, 1)
        with pytest.raises(VfpgaError):
            a.release((2, 0), 4, 1)  # overlaps the free tail


class TestReserve:
    def test_reserve_specific_span(self):
        a = ColumnAllocator(10)
        a.reserve(3, 4)
        assert sorted(a.free_spans) == [(0, 3), (7, 3)]

    def test_reserve_unfree_rejected(self):
        a = ColumnAllocator(10)
        a.reserve(3, 4)
        with pytest.raises(VfpgaError):
            a.reserve(4, 2)


class TestFragmentationGauge:
    def test_zero_when_single_hole(self):
        assert ColumnAllocator(10).fragmentation == 0.0

    def test_grows_when_shattered(self):
        a = ColumnAllocator(12, coalesce=False)
        anchors = [a.allocate(2, 1) for _ in range(6)]
        for anchor in anchors[::2]:
            a.release(anchor, 2, 1)
        assert a.total_free == 6
        assert a.largest_free == 2
        assert a.fragmentation == pytest.approx(1 - 2 / 6)

    def test_full_device_zero(self):
        a = ColumnAllocator(4)
        a.allocate(4, 1)
        assert a.fragmentation == 0.0


class TestInvariants:
    def test_conservation_over_random_ops(self):
        import random

        rng = random.Random(42)
        rules = [make_placement(f"column-{fit}-fit")
                 for fit in ("first", "best", "worst")]
        a = ColumnAllocator(32, coalesce=False)
        held = []
        for _ in range(500):
            if held and rng.random() < 0.5:
                x, w = held.pop(rng.randrange(len(held)))
                a.release((x, 0), w, 1)
            else:
                w = rng.randint(1, 6)
                anchor = a.allocate(w, 1, placement=rng.choice(rules))
                if anchor is not None:
                    held.append((anchor[0], w))
            if rng.random() < 0.1:
                a.merge_free()
            # Invariants: no overlap, conservation of columns.
            total = a.total_free + sum(w for _x, w in held)
            assert total == 32
            covered = sorted(a.free_spans + held)
            for (x1, w1), (x2, _w2) in zip(covered, covered[1:]):
                assert x1 + w1 <= x2, "overlap detected"
