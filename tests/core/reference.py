"""Reference occupancy grid: the oracle :class:`repro.core.RectAllocator`
is pinned to.

The production allocator keeps its boolean occupancy grid (``_grid``)
up to date in place on every commit and release.  The original rebuild
lives here, unchanged, so the placement tests and the occupancy
microbenchmark can check that the incremental grid always equals one
built from scratch off the resident list:

* :func:`rebuild_occupancy` — a fresh ``width`` × ``height`` grid with
  every resident rectangle painted in.
"""

from __future__ import annotations

import numpy as np

from repro.core import RectAllocator


def rebuild_occupancy(alloc: RectAllocator) -> np.ndarray:
    """The occupancy grid from scratch off ``alloc.resident``."""
    grid = np.zeros((alloc.width, alloc.height), dtype=bool)
    for r in alloc.resident:
        grid[r.x:r.x2, r.y:r.y2] = True
    return grid
