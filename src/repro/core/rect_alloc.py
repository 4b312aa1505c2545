"""Two-dimensional rectangular allocation for variable partitions.

The paper's variable partitioning is one-dimensional (column spans —
matching the frame-per-column configuration hardware of its era).  Modern
FPGA virtualization allocates rectangular 2-D zones instead; this module
provides that alternative so experiment E18 can quantify what the second
dimension buys.

:class:`RectAllocator` is built with a strategy from the pluggable
:mod:`placement engine <repro.core.placement>`: the strategy proposes an
anchor (bottom-left by default — the classic heuristic this allocator
originally hard-coded), the allocator commits it and keeps the resident
ledger plus an **incrementally maintained** occupancy grid, behind the
same protocol as :class:`~repro.core.partitioning.ColumnAllocator`.
The fragmentation gauge finds the largest empty rectangle by dynamic
programming over that grid; because the grid is updated in place on
allocate/release instead of rebuilt from the resident list on every
query, repeated fragmentation probes on large fabrics are cheap
(``benchmarks/test_occupancy_microbench.py`` quantifies the win).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from ..device import Rect
from .errors import VfpgaError
from .placement import (
    Anchor,
    PlacementRequest,
    PlacementStrategy,
    Proposal,
    make_placement,
)

__all__ = ["RectAllocator"]


class RectAllocator:
    """Strategy-driven rectangular placement over ``width`` × ``height``.

    ``placement`` names any 2-D strategy from
    :data:`repro.core.placement.PLACEMENT_STRATEGIES` (or is an instance);
    the default reproduces the seed bottom-left behavior anchor-for-anchor.
    """

    def __init__(
        self,
        width: int,
        height: int,
        placement: Union[str, PlacementStrategy] = "bottom-left",
    ) -> None:
        if width < 1 or height < 1:
            raise ValueError("degenerate allocator bounds")
        self.width = width
        self.height = height
        self.placement = make_placement(placement)
        self.resident: List[Rect] = []
        self._grid = np.zeros((width, height), dtype=bool)
        #: The most recent successful placement decision (telemetry).
        self.last_proposal: Optional[Proposal] = None

    # -- queries ------------------------------------------------------------
    @property
    def total_free(self) -> int:
        """Free CLB count."""
        return self.width * self.height - sum(r.area for r in self.resident)

    def largest_free_rect(self) -> Tuple[int, int]:
        """(w, h) of the largest empty rectangle (0, 0) if full."""
        grid = self._grid
        best = 0
        best_wh = (0, 0)
        # Row sweep with histogram-of-heights (largest rectangle in a
        # binary matrix): O(height * width) with a monotone stack.
        heights = np.zeros(self.width, dtype=int)
        for y in range(self.height):
            heights = np.where(grid[:, y], 0, heights + 1)
            stack: List[Tuple[int, int]] = []  # (start index, height)
            for x, h in enumerate(list(heights) + [0]):
                start = x
                while stack and stack[-1][1] >= h:
                    idx, hh = stack.pop()
                    area = hh * (x - idx)
                    if area > best:
                        best = area
                        best_wh = (x - idx, hh)
                    start = idx
                stack.append((start, int(h)))
        return best_wh

    @property
    def fragmentation(self) -> float:
        """1 − largest-empty-rect area / total free area."""
        free = self.total_free
        if free == 0:
            return 0.0
        w, h = self.largest_free_rect()
        return 1.0 - (w * h) / free

    def has_room(self, w: int, h: int) -> bool:
        """Whether the free CLBs add up to ``w`` × ``h``, shattered or not."""
        return self.total_free >= w * h

    def can_fit_somewhere(self, w: int, h: int) -> bool:
        lw, lh = self.largest_free_rect()
        return lw >= w and lh >= h

    # -- allocation ------------------------------------------------------------
    def _fits(self, rect: Rect) -> bool:
        if rect.x2 > self.width or rect.y2 > self.height:
            return False
        return all(not rect.overlaps(r) for r in self.resident)

    def _commit(self, rect: Rect) -> None:
        self.resident.append(rect)
        self._grid[rect.x:rect.x2, rect.y:rect.y2] = True

    def allocate(
        self,
        w: int,
        h: int,
        placement: Optional[PlacementStrategy] = None,
    ) -> Optional[Anchor]:
        """Reserve a ``w`` × ``h`` rectangle; returns its anchor or None.

        ``placement`` overrides the configured strategy for this call.
        """
        if w < 1 or h < 1:
            raise ValueError("degenerate request")
        strategy = placement if placement is not None else self.placement
        proposal = strategy.propose(
            PlacementRequest(
                w=w, h=h,
                bounds_w=self.width, bounds_h=self.height,
                resident=tuple(self.resident),
            )
        )
        if proposal is None:
            return None
        x, y = proposal.anchor
        rect = Rect(x, y, w, h)
        if not self._fits(rect):
            raise VfpgaError(
                f"placement strategy {strategy.name!r} proposed "
                f"occupied/out-of-bounds rect {rect}"
            )
        self._commit(rect)
        self.last_proposal = proposal
        return (x, y)

    def reserve(self, x: int, y: int, w: int, h: int) -> None:
        rect = Rect(x, y, w, h)
        if not self._fits(rect):
            raise VfpgaError(f"rect {rect} is not free")
        self._commit(rect)

    def release(self, anchor: Anchor, w: int, h: int) -> None:
        rect = Rect(anchor[0], anchor[1], w, h)
        try:
            self.resident.remove(rect)
        except ValueError:
            raise VfpgaError(f"release of unallocated rect {rect}") from None
        self._grid[rect.x:rect.x2, rect.y:rect.y2] = False

    def merge_free(self) -> int:
        """2-D free space needs no span merging; present for protocol
        parity with :class:`~repro.core.partitioning.ColumnAllocator`."""
        return 0
