"""E9 — I/O pin multiplexing (paper §2).

Claim: "input and output multiplexing is used … to increase the number of
inputs and outputs when there are not enough physically available."

Two views:

* **static model** — sweep the virtual:physical pin ratio; effective
  per-pin bandwidth must scale like physical/virtual beyond 1, latency
  like the oversubscription factor;
* **system view** — tasks with I/O-heavy operations run concurrently;
  as their summed virtual pins exceed the device's pads, measured
  transfer time dilates by the same factor.
"""

from _harness import emit, monotone_nondecreasing, record_run, run_system

from repro.analysis import format_series, format_table, sweep
from repro.core import ConfigRegistry, PinMultiplexer
from repro.device import get_family
from repro.osim import FpgaOp, Task

CP = 25e-9
WORDS = 5_000


def run_static(ratio: float):
    mux = PinMultiplexer(n_physical_pins=100, word_rate=2e6)
    virtual = int(100 * ratio)
    t = mux.transfer_time(WORDS, virtual_pins=virtual)
    return {
        "virtual_pins": virtual,
        "factor": round(t.factor, 3),
        "transfer_ms": round(t.seconds * 1e3, 3),
        "per_pin_bw": round(1.0 / t.factor, 3),
    }


def run_system_point(n_tasks: int):
    arch = get_family("VF12")  # 96 pins
    reg = ConfigRegistry(arch)
    names = []
    for i in range(n_tasks):
        reg.register_synthetic(f"f{i}", 2, arch.height, critical_path=CP,
                               io_pins=40)
        names.append(f"f{i}")
    # All tasks transfer simultaneously (long overlapping ops).
    # Long transfers (20 ms) so the configuration-port stagger between
    # task start-ups is small relative to the overlapping I/O window.
    tasks = [
        Task(f"t{i}", [FpgaOp(names[i], 200_000, io_words=8 * WORDS)])
        for i in range(n_tasks)
    ]
    stats, service = run_system(reg, tasks, "variable", gc="merge")
    demand = 40 * n_tasks
    return {
        "virtual_pins": demand,
        "oversub": round(max(1.0, demand / arch.n_pins), 2),
        "io_ms_per_task": round(stats.total_fpga_io / n_tasks * 1e3, 3),
        "makespan_ms": round(stats.makespan * 1e3, 2),
    }


def test_e9_io_mux(benchmark):
    ratios = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    static = benchmark.pedantic(
        lambda: sweep("ratio", ratios, run_static), rounds=1, iterations=1
    )
    dynamic = sweep("tasks", [1, 2, 3, 4], run_system_point)
    # One static-model row per pin ratio (no wall clock), after the four
    # system runs, so ``repro bench-diff`` gates the model too.
    for row in static.rows:
        record_run({
            "policy": "mux",
            "policy_kw": {"ratio": row["ratio"]},
            "mux": {k: row[k] for k in ("factor", "transfer_ms", "per_pin_bw")},
        })
    text = format_table(
        static.rows,
        title="E9a: static pin-multiplexing model (100 physical pins, "
              f"{WORDS} words)",
    )
    text += "\n\n" + format_series(
        static.column("ratio"), static.column("per_pin_bw"),
        x_label="virt/phys", y_label="per-pin bandwidth",
        title="E9a: effective per-virtual-pin bandwidth",
    )
    text += "\n\n" + format_table(
        dynamic.rows,
        title="E9b: concurrent I/O-heavy tasks on a 96-pin device "
              "(40 virtual pins each)",
    )
    emit("e9_io_mux", text)
    # Shape: below the physical limit nothing dilates …
    assert all(r["factor"] == 1.0 for r in static.rows if r["ratio"] <= 1.0)
    # … beyond it, transfer time dilates linearly with the ratio.
    over = [r for r in static.rows if r["ratio"] > 1.0]
    for r in over:
        assert r["factor"] == r["ratio"]
    # System view: the mux factor shows up in measured per-task I/O time.
    io = dynamic.column("io_ms_per_task")
    assert monotone_nondecreasing(io, slack=0.01)
    assert io[-1] > io[0] * 1.2  # 4 tasks: 160/96 oversubscription visible
