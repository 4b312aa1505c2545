"""E18 — 1-D column partitions vs 2-D rectangular zones (extension).

The paper's variable partitioning is one-dimensional, matching the
frame-per-column configuration hardware of its day; later systems
(including today's research OSes for FPGAs) allocate 2-D rectangles.
This ablation quantifies what the second dimension buys on the same
device and workload.

Square circuits on a square device: a w×h circuit in a column layout
claims w *full-height* columns (internal fragmentation = w×(H−h)); the
2-D layout packs rows.  Expected shape: the rect layout keeps more
circuits resident simultaneously, so it evicts less, downloads less and
finishes sooner — and the gap grows as circuits get shorter relative to
the device.
"""

import pytest
from _harness import emit, run_system

from repro.analysis import format_table, sweep
from repro.core import ConfigRegistry
from repro.device import get_family
from repro.osim import uniform_workload

CP = 25e-9
N_CONFIGS = 8


def run_rect_workload(circuit_height: int, layout: str, **extra_kw):
    arch = get_family("VF12")
    reg = ConfigRegistry(arch)
    names = []
    for i in range(N_CONFIGS):
        reg.register_synthetic(
            f"c{i}", 4, circuit_height, critical_path=CP
        )
        names.append(f"c{i}")
    tasks = uniform_workload(
        names, n_tasks=8, ops_per_task=4, cpu_burst=0.5e-3,
        cycles=120_000, seed=29,
    )
    return run_system(
        reg, tasks, "variable", layout=layout, gc="compact",
        hold_mode="op", **extra_kw,
    )


def run_point(circuit_height: int):
    row = {}
    for layout in ("columns", "rect"):
        stats, service = run_rect_workload(circuit_height, layout)
        row[f"{layout}_ms"] = round(stats.makespan * 1e3, 2)
        row[f"{layout}_loads"] = service.metrics.n_loads
        row[f"{layout}_resident"] = len(service.residents)
    row["speedup"] = round(row["columns_ms"] / row["rect_ms"], 2)
    return row


def test_e18_2d_partitioning(benchmark):
    heights = [12, 8, 6, 4]
    result = benchmark.pedantic(
        lambda: sweep("circuit_height", heights, run_point),
        rounds=1, iterations=1,
    )
    emit("e18_2d_partitioning", format_table(
        result.rows,
        title="E18: column vs rectangular variable partitions "
              f"({N_CONFIGS} circuits of 4xH on a 12x12 device)",
    ))
    by_h = {r["circuit_height"]: r for r in result.rows}
    # Shape 1: full-height circuits tie (the layouts coincide).
    assert by_h[12]["speedup"] == pytest.approx(1.0, abs=0.05)
    # Shape 2: short circuits strongly favour 2-D.
    assert by_h[4]["speedup"] > 1.5
    assert by_h[4]["rect_loads"] < by_h[4]["columns_loads"]
    # Shape 3: the 2-D layout keeps more circuits resident.
    assert by_h[4]["rect_resident"] > by_h[4]["columns_resident"]


def test_e18_placement_strategies(benchmark):
    """2-D placement-engine cross-product on the short-circuit point
    (height 4 of 12), where packing decisions matter most."""
    strategies = ["bottom-left", "best-fit", "skyline"]

    def run_one(placement: str):
        stats, service = run_rect_workload(4, "rect",
                                           placement=placement)
        return {
            "makespan_ms": round(stats.makespan * 1e3, 2),
            "loads": service.metrics.n_loads,
            "resident": len(service.residents),
            "fragmentation": round(service.allocator.fragmentation, 3),
        }

    result = benchmark.pedantic(
        lambda: sweep("placement", strategies, run_one),
        rounds=1, iterations=1,
    )
    base_stats, base_service = run_rect_workload(4, "rect")
    emit("e18_placement", format_table(
        result.rows,
        title="E18b: 2-D placement strategies, variable partitions "
              f"({N_CONFIGS} circuits of 4x4 on a 12x12 device)",
    ))
    by = {r["placement"]: r for r in result.rows}
    # The engine default (bottom-left) reproduces the unparameterized run.
    assert by["bottom-left"]["loads"] == base_service.metrics.n_loads
    assert by["bottom-left"]["makespan_ms"] == pytest.approx(
        round(base_stats.makespan * 1e3, 2)
    )
    # Every strategy completes the workload with multiple residents.
    for row in result.rows:
        assert row["loads"] >= N_CONFIGS
        assert row["resident"] > 1

