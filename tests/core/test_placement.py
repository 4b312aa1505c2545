"""Placement-engine tests: exact seed parity plus property invariants.

Every :class:`~repro.core.placement.PlacementStrategy` must obey the
engine contract — proposals in bounds, never overlapping a resident,
pure (deterministic on equal requests) — and the bottom-left strategy
must reproduce the seed ``RectAllocator`` heuristic anchor-for-anchor.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PLACEMENT_STRATEGIES,
    BestFitPlacement,
    BottomLeftPlacement,
    ColumnBestFit,
    ColumnFirstFit,
    ColumnWorstFit,
    PlacementRequest,
    PlacementStrategy,
    RectAllocator,
    SkylinePlacement,
    make_placement,
)
from repro.core.errors import VfpgaError
from repro.device import Rect
from tests.core.reference import rebuild_occupancy

BOUNDS_W, BOUNDS_H = 16, 12


def _resident_set(ops):
    """Build a valid (pairwise-disjoint, in-bounds) resident tuple by
    replaying alloc requests through a scratch allocator."""
    alloc = RectAllocator(BOUNDS_W, BOUNDS_H)
    for w, h in ops:
        alloc.allocate(w, h)
    return tuple(alloc.resident)


resident_sets = st.lists(
    st.tuples(st.integers(1, 7), st.integers(1, 6)), max_size=12,
).map(_resident_set)

requests = st.builds(
    PlacementRequest,
    w=st.integers(1, 8),
    h=st.integers(1, 8),
    bounds_w=st.just(BOUNDS_W),
    bounds_h=st.just(BOUNDS_H),
    resident=resident_sets,
)

ALL_STRATEGIES = sorted(PLACEMENT_STRATEGIES)


class TestFactory:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_known_names(self, name):
        strategy = make_placement(name)
        assert isinstance(strategy, PlacementStrategy)
        assert strategy.name == name

    def test_instance_passthrough(self):
        strategy = SkylinePlacement()
        assert make_placement(strategy) is strategy

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown placement"):
            make_placement("psychic")


class TestStrategyContract:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    @given(req=requests)
    @settings(max_examples=60, deadline=None)
    def test_proposals_fit_and_are_deterministic(self, name, req):
        strategy = make_placement(name)
        proposal = strategy.propose(req)
        if proposal is not None:
            x, y = proposal.anchor
            rect = Rect(x, y, req.w, req.h)
            # In bounds ...
            assert 0 <= x and 0 <= y
            assert rect.x2 <= req.bounds_w and rect.y2 <= req.bounds_h
            # ... never overlapping a resident ...
            assert all(not rect.overlaps(r) for r in req.resident)
            assert proposal.candidates >= 1
        # ... and pure: the same request yields the same answer.
        assert strategy.propose(req) == proposal

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    @given(req=requests)
    @settings(max_examples=40, deadline=None)
    def test_never_misses_when_bottom_left_fits(self, name, req):
        """Completeness floor: column strategies may be pickier than the
        geometric ones, but every strategy must succeed on an *empty*
        region whenever the request fits the bounds at all."""
        if req.resident:
            return
        proposal = make_placement(name).propose(req)
        assert (proposal is not None) == (
            req.w <= req.bounds_w and req.h <= req.bounds_h
        )

    def test_oversized_rejected(self):
        req = PlacementRequest(w=BOUNDS_W + 1, h=1,
                               bounds_w=BOUNDS_W, bounds_h=BOUNDS_H)
        for name in ALL_STRATEGIES:
            assert make_placement(name).propose(req) is None

    def test_degenerate_request_rejected(self):
        with pytest.raises(ValueError):
            PlacementRequest(w=0, h=1, bounds_w=4, bounds_h=4)


class TestSpanMode:
    """With explicit free_spans, strategies degenerate to span selection
    by the classic first/best/worst-fit rules."""

    SPANS = ((0, 2), (4, 5), (10, 3))

    def _req(self, w):
        return PlacementRequest(w=w, h=1, bounds_w=16, bounds_h=1,
                                free_spans=self.SPANS)

    def test_first_fit_takes_leftmost(self):
        assert ColumnFirstFit().propose(self._req(2)).anchor == (0, 0)
        assert ColumnFirstFit().propose(self._req(3)).anchor == (4, 0)

    def test_best_fit_takes_tightest(self):
        assert ColumnBestFit().propose(self._req(2)).anchor == (0, 0)
        assert ColumnBestFit().propose(self._req(3)).anchor == (10, 0)

    def test_worst_fit_takes_largest(self):
        assert ColumnWorstFit().propose(self._req(2)).anchor == (4, 0)

    def test_no_span_fits(self):
        assert ColumnFirstFit().propose(self._req(6)) is None

    def test_candidates_counts_fitting_spans(self):
        assert ColumnFirstFit().propose(self._req(2)).candidates == 3
        assert ColumnFirstFit().propose(self._req(3)).candidates == 2

    def test_geometric_strategies_honor_spans(self):
        """Persistent split boundaries bind every strategy: a geometric
        heuristic must not invent a position outside the spans."""
        for name in ALL_STRATEGIES:
            proposal = make_placement(name).propose(self._req(3))
            assert proposal.anchor[0] in (4, 10)


class TestBottomLeft:
    def test_packs_origin_first(self):
        req = PlacementRequest(w=4, h=4, bounds_w=BOUNDS_W,
                               bounds_h=BOUNDS_H)
        assert BottomLeftPlacement().propose(req).anchor == (0, 0)

    def test_prefers_lowest_then_leftmost(self):
        resident = (Rect(0, 0, 4, 4),)
        req = PlacementRequest(w=4, h=4, bounds_w=BOUNDS_W,
                               bounds_h=BOUNDS_H, resident=resident)
        # Both (4, 0) and (0, 4) fit; lowest-then-leftmost wins.
        assert BottomLeftPlacement().propose(req).anchor == (4, 0)


class TestBestFit:
    def test_fills_tight_notch(self):
        # A 4-wide notch at the origin between a resident and the wall:
        # contact scoring must prefer it to open space further right.
        resident = (Rect(4, 0, 4, 12),)
        req = PlacementRequest(w=4, h=4, bounds_w=BOUNDS_W,
                               bounds_h=BOUNDS_H, resident=resident)
        assert BestFitPlacement().propose(req).anchor == (0, 0)


class TestSkyline:
    def test_levels_the_skyline(self):
        # Two towers of height 4 and 8: the 4-high window is lower.
        resident = (Rect(0, 0, 8, 4), Rect(8, 0, 8, 8))
        req = PlacementRequest(w=8, h=4, bounds_w=BOUNDS_W,
                               bounds_h=BOUNDS_H, resident=resident)
        assert SkylinePlacement().propose(req).anchor == (0, 4)


class TestRectAllocatorEngine:
    def test_default_reproduces_bottom_left(self):
        """The wrapper with its default strategy packs exactly like the
        seed heuristic: origin, then lowest-leftmost corners."""
        alloc = RectAllocator(12, 12)
        assert alloc.allocate(4, 4) == (0, 0)
        assert alloc.allocate(4, 4) == (4, 0)
        assert alloc.allocate(4, 4) == (8, 0)
        assert alloc.allocate(4, 4) == (0, 4)

    def test_per_call_override(self):
        alloc = RectAllocator(12, 12)
        alloc.allocate(4, 4)
        anchor = alloc.allocate(4, 4, placement=SkylinePlacement())
        assert anchor == (4, 0)
        assert alloc.last_proposal.anchor == anchor

    def test_bad_proposal_rejected(self):
        class Liar(PlacementStrategy):
            name = "liar"

            def _choose_anchor(self, req):
                from repro.core.placement import Proposal
                return Proposal(anchor=(0, 0))

        alloc = RectAllocator(8, 8, placement=Liar())
        alloc.allocate(4, 4)
        with pytest.raises(VfpgaError, match="liar"):
            alloc.allocate(4, 4)  # (0, 0) is occupied now

    @given(
        ops=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                     max_size=20),
        name=st.sampled_from(ALL_STRATEGIES),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_strategy_keeps_ledger_consistent(self, ops, name):
        """Whatever the strategy proposes, committed rectangles stay
        disjoint and the incremental grid matches the rebuild."""
        import numpy as np

        alloc = RectAllocator(BOUNDS_W, BOUNDS_H, placement=name)
        for w, h in ops:
            alloc.allocate(w, h)
        for i, a in enumerate(alloc.resident):
            for b in alloc.resident[i + 1:]:
                assert not a.overlaps(b)
        assert np.array_equal(alloc._grid, rebuild_occupancy(alloc))
