"""Occupancy-grid microbenchmark: incremental vs rebuild-from-scratch.

:class:`~repro.core.rect_alloc.RectAllocator` keeps its boolean occupancy
grid up to date inside ``allocate``/``release`` instead of rebuilding it
from the resident list on every fragmentation probe (the seed behavior,
kept as the ``rebuild_occupancy`` oracle in ``tests/core/reference.py``;
run from the repo root with ``python -m pytest`` so ``tests`` imports).  On large fabrics with
many residents the rebuild is O(residents × area) per probe while the
incremental grid is O(1); this microbenchmark checks the two never
disagree during heavy churn and quantifies the probe-side win.
"""

import time

import numpy as np
from _harness import emit

from repro.analysis import format_table
from repro.core import RectAllocator
from tests.core.reference import rebuild_occupancy

FABRIC = (128, 128)
N_OPS = 300
SIZES = [(6, 4), (3, 8), (5, 5), (2, 9), (7, 3), (4, 6)]


def churn(alloc: RectAllocator, probe) -> int:
    """Deterministic allocate/release churn; ``probe`` runs per step and
    must return the occupancy grid it would answer queries from."""
    live = []
    checks = 0
    for i in range(N_OPS):
        w, h = SIZES[i % len(SIZES)]
        anchor = alloc.allocate(w, h)
        if anchor is not None:
            live.append((anchor, w, h))
        # Interleave releases (every third op) so the resident list churns
        # instead of only growing.
        if i % 3 == 2 and live:
            anchor, rw, rh = live.pop(len(live) // 2)
            alloc.release(anchor, rw, rh)
        grid = probe(alloc)
        assert np.array_equal(grid, rebuild_occupancy(alloc))
        checks += 1
    return checks


def test_occupancy_incremental_matches_rebuild():
    """The incremental grid equals the reference rebuild at every step."""
    alloc = RectAllocator(*FABRIC)
    checks = churn(alloc, lambda a: a._grid)
    assert checks == N_OPS
    assert alloc.resident  # the churn actually exercised the ledger


def test_occupancy_microbench(benchmark):
    def timed(probe):
        """Probe-only seconds over the churn (allocation time excluded:
        both arms pay it identically and it would drown the probe)."""
        alloc = RectAllocator(*FABRIC)
        live = []
        probe_s = 0.0
        for i in range(N_OPS):
            w, h = SIZES[i % len(SIZES)]
            anchor = alloc.allocate(w, h)
            if anchor is not None:
                live.append((anchor, w, h))
            if i % 3 == 2 and live:
                anchor, rw, rh = live.pop(len(live) // 2)
                alloc.release(anchor, rw, rh)
            t0 = time.perf_counter()
            probe(alloc)
            probe_s += time.perf_counter() - t0
        return probe_s, len(alloc.resident)

    def run():
        inc_s, n_resident = timed(lambda a: a._grid)
        reb_s, _ = timed(rebuild_occupancy)
        return inc_s, reb_s, n_resident

    inc_s, reb_s, n_resident = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    emit("occupancy_microbench", format_table(
        [{
            "fabric": f"{FABRIC[0]}x{FABRIC[1]}",
            "ops": N_OPS,
            "final residents": n_resident,
            "incremental_ms": round(inc_s * 1e3, 2),
            "rebuild_ms": round(reb_s * 1e3, 2),
            "speedup": round(reb_s / max(inc_s, 1e-9), 1),
        }],
        title="occupancy grid: incremental bookkeeping vs per-probe "
              "rebuild (probe time only, one probe per allocate/release)",
    ))
    # The incremental grid must win: the rebuild is O(residents x area)
    # per probe, the incremental probe O(1).  The margin is ~100x; assert
    # a conservative bound so machine noise can never flake the gate.
    assert inc_s < reb_s
