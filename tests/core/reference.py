"""Reference allocator paths: the oracles :class:`repro.core.RectAllocator`
and :class:`repro.core.ColumnAllocator` are pinned to.

The production rectangle allocator keeps its boolean occupancy grid
(``_grid``) up to date in place on every commit and release, and the
production column allocator fails a request that no free span is wide
enough for, and a merge when nothing was released since the last one,
without searching.  The original paths live here, unchanged, so the
tests can check that production always reaches the same state:

* :func:`rebuild_occupancy` — a fresh ``width`` × ``height`` grid with
  every resident rectangle painted in;
* :class:`ReferenceColumnAllocator` — builds a
  :class:`~repro.core.PlacementRequest` and asks the strategy on every
  ``allocate``, and sorts and sweeps the free spans on every
  ``merge_free``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core import (
    ColumnAllocator,
    PlacementRequest,
    PlacementStrategy,
    RectAllocator,
)
from repro.core.placement import Anchor


def rebuild_occupancy(alloc: RectAllocator) -> np.ndarray:
    """The occupancy grid from scratch off ``alloc.resident``."""
    grid = np.zeros((alloc.width, alloc.height), dtype=bool)
    for r in alloc.resident:
        grid[r.x:r.x2, r.y:r.y2] = True
    return grid


class ReferenceColumnAllocator(ColumnAllocator):
    """:class:`ColumnAllocator` with the original search on every call."""

    def allocate(
        self,
        w: int,
        h: int,
        placement: Optional[PlacementStrategy] = None,
    ) -> Optional[Anchor]:
        if w < 1:
            raise ValueError("width must be >= 1")
        strategy = self.placement if placement is None else placement
        proposal = strategy.propose(
            PlacementRequest(
                w=w, h=1, bounds_w=self.width, bounds_h=1,
                free_spans=tuple(self.free_spans),
            )
        )
        if proposal is None:
            self.last_proposal = None
            return None
        x = proposal.anchor[0]
        fw = next(fw for fx, fw in self.free_spans if fx == x)
        self.free_spans.remove((x, fw))
        if fw > w:
            self.free_spans.append((x + w, fw - w))
            self.free_spans.sort()
        self.last_proposal = proposal
        return (x, 0)

    def merge_free(self) -> int:
        merged: List[Tuple[int, int]] = []
        n = 0
        for span in sorted(self.free_spans):
            if merged and merged[-1][0] + merged[-1][1] == span[0]:
                merged[-1] = (merged[-1][0], merged[-1][1] + span[1])
                n += 1
            else:
                merged.append(span)
        self.free_spans = merged
        return n
