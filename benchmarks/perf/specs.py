"""The benchmark's workloads and metrics, as plain data.

Kept free of any ``repro`` import so ``run.py`` can start its set-up clock
before the package under test is imported, and so tests can shrink a
workload with :func:`dataclasses.replace`.  ``BENCHMARK.json`` at the
repository root declares the same metric names with their directions and
bounds; ``test_perf_bench.py`` keeps the two in step.

Host side: a closed loop, the next repetition starts only after the
previous one has finished.  Simulated side: an open loop, tasks arrive on
a seeded schedule in simulated time (``uniform_workload(..., seed=N)``)
whatever the service does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

#: One circuit: a ``repro.netlist.CIRCUIT_GENERATORS`` name and its args.
Circuit = Tuple[str, Tuple[int, ...]]

#: Device families of the simulator and compile workloads.
SIM_FAMILY = "VF12"
CAD_FAMILY = "VF16"
#: Fabric cycles per FPGA operation.
CYCLES = 4000


@dataclass(frozen=True)
class SimSpec:
    """A simulator run: configurations registered once in set-up, then per
    repetition a fresh kernel (``RoundRobin(time_slice=1e-3)``,
    ``context_switch=20e-6``, the legacy ``Trace`` on) runs ``tasks``
    seeded alternating tasks of ``ops`` FPGA operations each."""

    policy: str
    policy_kw: Dict[str, object]
    tasks: int
    ops: int
    burst_s: float
    spread_s: float
    #: Synthetic full-height configurations, one per column width.
    widths: Tuple[int, ...] = ()
    #: Compiled configurations (``compile_and_register`` with seed N).
    circuits: Tuple[Circuit, ...] = ()
    #: Attach the full observer stack (nine bus subscribers, not two).
    observed: bool = False


@dataclass(frozen=True)
class CadSpec:
    """A compile run: every circuit through ``compile_netlist(effort="sa",
    seed=N)``.  Cold: each repetition compiles into a fresh
    ``CompileCache``.  Warm: set-up fills one cache and each repetition is
    a round of compiles of freshly generated, identical netlists."""

    circuits: Tuple[Circuit, ...]
    warm: bool


_KERNEL = SimSpec(
    policy="variable", policy_kw={"gc": "merge"},
    widths=(2,) * 6, tasks=240, ops=40, burst_s=0.5e-3, spread_s=2.0,
)

_CAD_CIRCUITS: Tuple[Circuit, ...] = (
    ("moving_sum_fir", (8, 4)),
    ("array_multiplier", (4,)),
    ("kogge_stone_adder", (8,)),
    ("barrel_shifter", (8,)),
    ("alu", (4,)),
)

WORKLOADS: Dict[str, object] = {
    # Six width-2 configs all fit on the 12 columns at once: after six
    # loads every request hits, so the calendar, kernel, bus and Trace do
    # the work and the device layer almost none.
    "sim-kernel": _KERNEL,
    # The same inputs with nine bus subscribers instead of two: subscriber
    # cost shows here and not on sim-kernel.
    "sim-observed": replace(_KERNEL, observed=True),
    # 24 columns of demand on 12: requests wait for space, and every
    # departure wakes every waiter, so Suspend events dominate.  Partitions
    # are held per operation, which keeps the event count within 1% across
    # seeds (task-lifetime holding makes it bimodal, 20% apart).
    "sim-contended": SimSpec(
        policy="variable", policy_kw={"gc": "merge", "hold_mode": "op"},
        widths=(3, 4, 5, 3, 4, 5), tasks=60, ops=20, burst_s=0.2e-3,
        spread_s=0.015,
    ),
    # Whole-device dynamic loading of six compiled circuits: nearly every
    # request misses and reloads, so the device, config RAM and bitstream
    # cache do the work, and set-up includes real compiles.
    "sim-reconfig": SimSpec(
        policy="dynamic", policy_kw={"load_mode": "delta"},
        circuits=(
            ("parity_tree", (8,)), ("counter", (4,)), ("ripple_adder", (4,)),
            ("comparator", (4,)), ("lfsr", (8,)), ("accumulator", (4,)),
        ),
        tasks=100, ops=25, burst_s=0.2e-3, spread_s=0.0125,
    ),
    # Place and route from scratch: the compile cache is bypassed.
    # moving_sum_fir:8,4 (169 BLEs) makes placement the largest phase.
    "cad-cold": CadSpec(circuits=_CAD_CIRCUITS, warm=False),
    # The same circuits served from a filled cache: content digest and
    # lookup are all the work.
    "cad-warm": CadSpec(circuits=_CAD_CIRCUITS, warm=True),
}

#: Metrics of a plain run, name -> unit.  Timed ones are medians over the
#: timed repetitions; ``setup_s`` is the import of ``repro`` plus the
#: median of three workload set-ups.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Simulator layers, named after the modules that own the timed calls.
SIM_LAYERS = (
    "sim.step", "osim.process", "osim.sched", "core.service",
    "core.bitcache", "device.fpga", "telemetry.bus",
)

#: Every bus subscriber class a workload attaches.
SUBSCRIBERS = (
    "Trace", "MetricsRecorder", "Profiler", "MetricsAggregator",
    "SpanBuilder", "Auditor", "SloEngine", "QueueingDecomposition",
    "AnomalyDetector",
)

#: ``repro.cad.PHASES``, the compile flow's phases in order.
CAD_PHASES = ("techmap", "pack", "place", "rrg", "route", "timing", "bitgen")


def _per_layer() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for layer in SIM_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for sub in SUBSCRIBERS:
        units[f"telemetry.sub.{sub}.self_s"] = "s"
    units.update({
        "core.service.hit_ratio": "ratio",
        "core.service.place_ratio": "ratio",
        "core.bitcache.hit_ratio": "ratio",
        "osim.makespan_s": "sim_s",
        "core.service.load_time_s": "sim_s",
        "device.fpga.frames_written": "count",
    })
    for phase in CAD_PHASES:
        units[f"cad.{phase}.self_s"] = "s"
    units.update({
        "cad.flow.calls": "count",
        "cad.flow.self_s": "s",
        "cad.place.sa_steps": "count",
        "cad.place.acceptance": "ratio",
        "cad.route.iterations": "count",
        "cad.cache.hit_ratio": "ratio",
        "cad.phase_coverage": "ratio",
        "cad.route.wirelength": "count",
        "cad.timing.critical_path_ns": "ns",
        "trace.overhead_ratio": "ratio",
        "trace.unattributed_s": "s",
        "trace.coverage": "ratio",
    })
    return units


#: Metrics of a traced run, name -> unit.  Every workload reports all of
#: them; a layer the workload never enters reads 0.
PER_LAYER: Dict[str, str] = _per_layer()
