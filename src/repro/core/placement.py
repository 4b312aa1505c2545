"""Pluggable placement engine — where does a W×H region go?

The paper's §4 treats partitioning, overlaying, pagination and
segmentation as one family of *mapping* mechanisms; what varies between
them is bookkeeping, not the placement question itself.  This module
factors that question out: a :class:`PlacementStrategy` proposes an
anchor for a ``w``×``h`` request given a geometric snapshot of the
device (:class:`PlacementRequest`).  The stateful allocators
(:class:`~repro.core.partitioning.ColumnAllocator`,
:class:`~repro.core.rect_alloc.RectAllocator`) are each built with one
strategy, commit whatever it proposes and keep the ledger.

Strategies never mutate anything: ``propose`` is a pure function of the
request, which makes them trivially testable (property tests sweep
random resident sets) and swappable mid-experiment.  Two families:

* **2-D geometric** — :class:`BottomLeftPlacement` (the classic
  heuristic the seed ``RectAllocator`` used), :class:`BestFitPlacement`
  (min-waste by contact scoring), :class:`SkylinePlacement` (the
  strip-packing skyline of Angermeier et al., "Maintaining Virtual
  Areas on FPGAs using Strip Packing with Delays");
* **column spans** — :class:`ColumnFirstFit`, :class:`ColumnBestFit`,
  :class:`ColumnWorstFit`: the classic first/best/worst-fit split rules,
  which on a 2-D fabric place on runs of entirely free columns (1-D
  columns emulated on 2-D, for like-for-like sweeps).

When a request carries explicit ``free_spans`` (column layouts with
persistent split boundaries, paper §4), every strategy restricts itself
to those spans and degenerates to a span-selection rule — the split
boundaries are OS state a pure geometric heuristic must not invent
around.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from ..device import Rect

__all__ = [
    "Anchor",
    "PlacementRequest",
    "Proposal",
    "PlacementStrategy",
    "BottomLeftPlacement",
    "BestFitPlacement",
    "SkylinePlacement",
    "ColumnFirstFit",
    "ColumnBestFit",
    "ColumnWorstFit",
    "make_placement",
    "PLACEMENT_STRATEGIES",
]

Anchor = Tuple[int, int]
Span = Tuple[int, int]  # (x, width) over the column axis


@dataclass(frozen=True)
class PlacementRequest:
    """A geometric snapshot plus one ``w``×``h`` placement question.

    ``resident`` are the rectangles currently occupying the region;
    ``free_spans`` (when not ``None``) are the *only* column intervals a
    proposal may use — the persistent partition boundaries of the
    paper's variable partitioning, which survive release and therefore
    cannot be derived from ``resident`` alone.
    """

    w: int
    h: int
    bounds_w: int
    bounds_h: int
    resident: Tuple[Rect, ...] = ()
    free_spans: Optional[Tuple[Span, ...]] = None

    def __post_init__(self) -> None:
        if self.w < 1 or self.h < 1:
            raise ValueError(f"degenerate request {self.w}x{self.h}")
        if self.bounds_w < 1 or self.bounds_h < 1:
            raise ValueError("degenerate placement bounds")


@dataclass(frozen=True)
class Proposal:
    """One placement decision: the chosen anchor plus how many candidate
    positions the strategy weighed (telemetry: the ``Placement`` event)."""

    anchor: Anchor
    candidates: int = 1


class PlacementStrategy(ABC):
    """Propose an anchor for a W×H region given resident rectangles."""

    name: str = "abstract"

    def propose(self, req: PlacementRequest) -> Optional[Proposal]:
        """The placement decision; ``None`` when nothing fits."""
        if req.w > req.bounds_w or req.h > req.bounds_h:
            return None
        if req.free_spans is not None:
            spans = [(x, fw) for (x, fw) in req.free_spans if fw >= req.w]
            if not spans:
                return None
            return Proposal(anchor=(self._choose_span(spans), 0),
                            candidates=len(spans))
        return self._choose_anchor(req)

    def _choose_span(self, spans: Sequence[Span]) -> int:
        """Pick among fitting free spans (column layouts); the default is
        first-fit — leftmost span — which is also what the geometric
        heuristics degenerate to at full height."""
        return spans[0][0]

    @abstractmethod
    def _choose_anchor(self, req: PlacementRequest) -> Optional[Proposal]:
        """Free geometric placement (no persistent span boundaries)."""


def _fits(req: PlacementRequest, x: int, y: int) -> bool:
    if x < 0 or y < 0 or x + req.w > req.bounds_w or y + req.h > req.bounds_h:
        return False
    rect = Rect(x, y, req.w, req.h)
    return all(not rect.overlaps(r) for r in req.resident)


def corner_candidates(req: PlacementRequest) -> List[Anchor]:
    """The classic bottom-left candidate set: the origin plus the
    top-left/bottom-right corners of resident rectangles (and their
    projections to the axes), sorted lowest-then-leftmost."""
    anchors = {(0, 0)}
    for r in req.resident:
        anchors.add((r.x2, r.y))
        anchors.add((r.x, r.y2))
        anchors.add((r.x2, 0))
        anchors.add((0, r.y2))
    return sorted(anchors, key=lambda a: (a[1], a[0]))


def free_column_spans(req: PlacementRequest) -> List[Span]:
    """Maximal intervals of columns no resident rectangle touches."""
    blocked = [False] * req.bounds_w
    for r in req.resident:
        for x in range(max(0, r.x), min(req.bounds_w, r.x2)):
            blocked[x] = True
    spans: List[Span] = []
    x = 0
    while x < req.bounds_w:
        if blocked[x]:
            x += 1
            continue
        start = x
        while x < req.bounds_w and not blocked[x]:
            x += 1
        spans.append((start, x - start))
    return spans


def skyline_heights(req: PlacementRequest) -> List[int]:
    """Per-column top of the packed region (0 = empty column)."""
    heights = [0] * req.bounds_w
    for r in req.resident:
        for x in range(max(0, r.x), min(req.bounds_w, r.x2)):
            heights[x] = max(heights[x], r.y2)
    return heights


class BottomLeftPlacement(PlacementStrategy):
    """Lowest-then-leftmost corner candidate — the seed
    :class:`~repro.core.rect_alloc.RectAllocator` heuristic, preserved
    position-for-position."""

    name = "bottom-left"

    def _choose_anchor(self, req: PlacementRequest) -> Optional[Proposal]:
        candidates = corner_candidates(req)
        for (x, y) in candidates:
            if _fits(req, x, y):
                return Proposal(anchor=(x, y), candidates=len(candidates))
        return None


class BestFitPlacement(PlacementStrategy):
    """Min-waste placement: among fitting corner candidates, maximize the
    perimeter in contact with residents or the region boundary (the
    classic best-fit-by-contact rule of rectangle packing); on column
    spans, the tightest span wins, as with :class:`ColumnBestFit`."""

    name = "best-fit"

    def _choose_span(self, spans: Sequence[Span]) -> int:
        x, _fw = min(spans, key=lambda s: (s[1], s[0]))
        return x

    def _contact(self, req: PlacementRequest, x: int, y: int) -> int:
        rect = Rect(x, y, req.w, req.h)
        score = 0
        if x == 0:
            score += req.h
        if rect.x2 == req.bounds_w:
            score += req.h
        if y == 0:
            score += req.w
        if rect.y2 == req.bounds_h:
            score += req.w
        for r in req.resident:
            # Shared vertical edges ...
            if r.x2 == x or rect.x2 == r.x:
                score += max(0, min(rect.y2, r.y2) - max(y, r.y))
            # ... and shared horizontal edges.
            if r.y2 == y or rect.y2 == r.y:
                score += max(0, min(rect.x2, r.x2) - max(x, r.x))
        return score

    def _choose_anchor(self, req: PlacementRequest) -> Optional[Proposal]:
        candidates = corner_candidates(req)
        fitting = [(x, y) for (x, y) in candidates if _fits(req, x, y)]
        if not fitting:
            return None
        best = max(fitting,
                   key=lambda a: (self._contact(req, *a), -a[1], -a[0]))
        return Proposal(anchor=best, candidates=len(candidates))


class SkylinePlacement(PlacementStrategy):
    """Strip-packing skyline (Angermeier et al.): place on top of the
    lowest w-wide window of the skyline, minimizing first the resulting
    top edge, then the area wasted under the region, then x."""

    name = "skyline"

    def _choose_anchor(self, req: PlacementRequest) -> Optional[Proposal]:
        heights = skyline_heights(req)
        best: Optional[Tuple[int, int, int, Anchor]] = None
        candidates = 0
        for x in range(req.bounds_w - req.w + 1):
            window = heights[x:x + req.w]
            y = max(window)
            if y + req.h > req.bounds_h:
                continue
            candidates += 1
            waste = sum(y - h for h in window)
            key = (y + req.h, waste, x)
            if best is None or key < best[:3]:
                best = (*key, (x, y))
        if best is None:
            return None
        return Proposal(anchor=best[3], candidates=candidates)


class ColumnFirstFit(PlacementStrategy):
    """Leftmost fitting run of entirely free columns, anchored at the
    bottom — the discipline the paper's frame-per-column hardware
    forced.  Subclasses change only which fitting span wins."""

    name = "column-first-fit"

    def _choose_anchor(self, req: PlacementRequest) -> Optional[Proposal]:
        spans = [(x, fw) for (x, fw) in free_column_spans(req)
                 if fw >= req.w]
        if not spans:
            return None
        return Proposal(anchor=(self._choose_span(spans), 0),
                        candidates=len(spans))


class ColumnBestFit(ColumnFirstFit):
    """Tightest fitting free span."""

    name = "column-best-fit"

    def _choose_span(self, spans: Sequence[Span]) -> int:
        x, _fw = min(spans, key=lambda s: (s[1], s[0]))
        return x


class ColumnWorstFit(ColumnFirstFit):
    """Largest free span — the control arm that shatters big holes
    (experiment E16)."""

    name = "column-worst-fit"

    def _choose_span(self, spans: Sequence[Span]) -> int:
        x, _fw = max(spans, key=lambda s: (s[1], -s[0]))
        return x


#: Registry of instantiable strategies (CLI/benchmark sweep space).
PLACEMENT_STRATEGIES: Dict[str, Type[PlacementStrategy]] = {
    cls.name: cls
    for cls in (
        BottomLeftPlacement,
        BestFitPlacement,
        SkylinePlacement,
        ColumnFirstFit,
        ColumnBestFit,
        ColumnWorstFit,
    )
}


def make_placement(
    name: Union[str, PlacementStrategy],
) -> PlacementStrategy:
    """Instantiate a placement strategy by name (instances pass through)."""
    if isinstance(name, PlacementStrategy):
        return name
    try:
        return PLACEMENT_STRATEGIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown placement strategy {name!r}; "
            f"have {sorted(PLACEMENT_STRATEGIES)}"
        ) from None
