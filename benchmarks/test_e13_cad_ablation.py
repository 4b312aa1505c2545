"""E13 — CAD-flow quality ablation (design-choice ablation from DESIGN.md).

Not a claim of the paper, but a design decision of this reproduction that
the VFPGA numbers depend on: how good must placement/routing be?  We
compile a suite of real circuits under (a) greedy vs simulated-annealing
placement and (b) a router iteration cap sweep, and report wirelength,
critical path and routability.

Expected shapes: SA placement never lengthens wires on average and
usually shortens the critical path; starving the router of iterations
turns dense circuits unroutable while generous caps change nothing.
"""

import time

from _harness import emit, record_compile, record_run

from repro.analysis import format_table, geometric_mean
from repro.cad import (
    CadInstrumentation,
    CompileCache,
    RoutingError,
    compile_netlist,
    place,
)
from repro.device import get_family
from repro.netlist import alu, comparator, moving_sum_fir, ripple_adder, \
    serial_crc
from tests.cad.reference import reference_place

ARCH = get_family("VF10")
SUITE = [
    ("adder4", lambda: ripple_adder(4)),
    ("cmp4", lambda: comparator(4)),
    ("alu3", lambda: alu(3)),
    ("crc8", lambda: serial_crc(8, 0x07)),
]

#: E13d target: a placement-bound design (169 BLEs, a 49-terminal net)
#: on the family large enough to hold it — where the numpy SA kernel
#: and the compile cache have something to win.
E13D_ARCH_NAME = "VF16"
E13D_CIRCUIT = "fir8x4"


def e13d_rows():
    """Numpy SA kernel and compile-cache wins (ROADMAP item 3).

    Three arms: (a) one instrumented production compile, recorded for
    the phase gates; (b) the reference annealer
    (``tests.cad.reference``) vs production ``place`` on that compile's
    own packed design and region — identical coords asserted first, so
    the only delta is wall clock; (c) cold vs warm compile through a
    :class:`CompileCache` — the warm run is a flow hit.  Best-of-3
    everywhere: the flow is deterministic, only timing jitters.
    """
    arch = get_family(E13D_ARCH_NAME)
    rows = []
    best = None
    for _ in range(3):
        instr = CadInstrumentation()
        res = compile_netlist(moving_sum_fir(8, 4), arch, seed=3,
                              effort="sa", instrument=instr)
        if best is None or res.profile.total_seconds < best.total_seconds:
            best = res.profile
    record_compile(E13D_CIRCUIT, best, effort="sa", seed=3,
                   family=arch.name)
    phase = best.phase_seconds
    rows.append({
        "arm": "compile",
        "place_ms": round(phase.get("place", 0.0) * 1e3, 2),
        "route_ms": round(phase.get("route", 0.0) * 1e3, 2),
        "total_ms": round(best.total_seconds * 1e3, 2),
    })

    place_seconds = {}
    for arm, run in (("reference", reference_place), ("production", place)):
        fastest = None
        for _ in range(3):
            t0 = time.perf_counter()
            placement = run(res.design, res.bitstream.region, seed=3)
            dt = time.perf_counter() - t0
            fastest = dt if fastest is None else min(fastest, dt)
        # The kernels must be interchangeable before their timings are.
        assert placement.coords == res.placement.coords
        place_seconds[arm] = fastest
        rows.append({"arm": f"place={arm}",
                     "place_ms": round(fastest * 1e3, 2),
                     "route_ms": "-", "total_ms": "-"})
    sa_speedup = place_seconds["reference"] / place_seconds["production"]

    cold = warm = None
    for _ in range(3):
        cache = CompileCache()
        t0 = time.perf_counter()
        cold_res = compile_netlist(moving_sum_fir(8, 4), arch, seed=3,
                                   effort="sa", cache=cache)
        t1 = time.perf_counter()
        warm_res = compile_netlist(moving_sum_fir(8, 4), arch, seed=3,
                                   effort="sa", cache=cache)
        t2 = time.perf_counter()
        assert warm_res.bitstream == cold_res.bitstream
        assert cache.hits == 1
        cold = t1 - t0 if cold is None else min(cold, t1 - t0)
        warm = t2 - t1 if warm is None else min(warm, t2 - t1)
    warm_reduction = 1.0 - warm / cold
    rows.append({"arm": "cache=cold",
                 "place_ms": "-", "route_ms": "-",
                 "total_ms": round(cold * 1e3, 2)})
    rows.append({"arm": "cache=warm",
                 "place_ms": "-", "route_ms": "-",
                 "total_ms": round(warm * 1e3, 2)})
    record_run({
        "policy": f"e13d:{E13D_CIRCUIT}",
        "policy_kw": {"family": arch.name, "seed": 3, "effort": "sa"},
        "e13d": {
            "cold_seconds": cold,
            "warm_seconds": warm,
            "warm_reduction": round(warm_reduction, 4),
            "sa_speedup": round(sa_speedup, 3),
        },
    })
    return rows, sa_speedup, warm_reduction


def placement_rows():
    """Greedy vs SA quality table; every compile runs instrumented, so
    the artifact carries one compile-phase block per (circuit, effort)
    — the per-phase wall-clock baselines the CAD vectorization work
    (ROADMAP item 3) must beat, gated by ``repro bench-diff``."""
    rows = []
    profile_rows = []
    for name, factory in SUITE:
        row = {"circuit": name}
        for effort in ("greedy", "sa"):
            # Best-of-3 wall clocks: the flow is deterministic (identical
            # events/curves every repeat), only the timing jitters, and
            # the min is the stable statistic bench-diff should gate.
            best = None
            for _ in range(3):
                instr = CadInstrumentation()
                res = compile_netlist(factory(), ARCH, seed=3,
                                      effort=effort, instrument=instr)
                if best is None or \
                        res.profile.total_seconds < best.total_seconds:
                    best = res.profile
            record_compile(name, best, effort=effort, seed=3,
                           family=ARCH.name)
            row[f"{effort}_wl"] = res.wirelength
            row[f"{effort}_cp_ns"] = round(res.critical_path * 1e9, 2)
            prof = best
            phase = prof.phase_seconds
            profile_rows.append({
                "circuit": name,
                "effort": effort,
                "place_ms": round(phase.get("place", 0.0) * 1e3, 2),
                "route_ms": round(phase.get("route", 0.0) * 1e3, 2),
                "total_ms": round(prof.total_seconds * 1e3, 2),
                "sa_steps": prof.sa_steps,
                "route_iters": prof.route_iterations,
                "peak_rrg": prof.peak_rrg_nodes,
            })
        row["wl_gain"] = round(row["greedy_wl"] / row["sa_wl"], 3)
        rows.append(row)
    return rows, profile_rows


def router_rows():
    rows = []
    for cap in (2, 4, 8, 24):
        ok = 0
        wl = []
        for name, factory in SUITE:
            try:
                res = compile_netlist(
                    factory(), ARCH, seed=3, effort="greedy",
                    max_route_iterations=cap,
                )
                ok += 1
                wl.append(res.wirelength)
            except RoutingError:
                pass
        rows.append({
            "router_iter_cap": cap,
            "routed": f"{ok}/{len(SUITE)}",
            "geo_wirelength": round(geometric_mean(wl), 1) if wl else "-",
        })
    return rows


def test_e13_cad_ablation(benchmark):
    def run_all():
        return placement_rows(), router_rows(), e13d_rows()

    (place_rows, profile_rows), route_rows, \
        (kernel_rows, sa_speedup, warm_reduction) = benchmark.pedantic(
            run_all, rounds=1, iterations=1)
    text = format_table(
        place_rows, title="E13a: greedy vs simulated-annealing placement"
    ) + "\n\n" + format_table(
        route_rows, title="E13b: router iteration cap vs routability"
    ) + "\n\n" + format_table(
        profile_rows, title="E13c: compile-phase profile (instrumented)"
    ) + "\n\n" + format_table(
        kernel_rows,
        title=f"E13d: SA kernel vs reference and compile cache "
              f"({E13D_CIRCUIT}@{E13D_ARCH_NAME}, SA speedup "
              f"{sa_speedup:.2f}x, warm saves {warm_reduction:.1%})",
    )
    emit("e13_cad_ablation", text)
    # Shape: SA placement reduces wirelength on the suite (geomean > 1).
    gains = [r["wl_gain"] for r in place_rows]
    assert geometric_mean(gains) > 1.0
    # Every circuit routes with the default cap.
    assert route_rows[-1]["routed"] == f"{len(SUITE)}/{len(SUITE)}"
    # Routability is monotone in the iteration cap.
    counts = [int(r["routed"].split("/")[0]) for r in route_rows]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    # The numpy SA kernel beats the reference on the placement-bound
    # design outright (measured ~2x; 1.5 leaves CI-runner headroom), and
    # a warm compile is a metadata hit, not a flow walk.
    assert sa_speedup > 1.5
    assert warm_reduction > 0.9


def test_e13_compile_throughput(benchmark):
    """Micro-benchmark: full-flow compile time for a mid-size circuit
    (the quantity that bounds registry construction in every experiment)."""
    nl = ripple_adder(4)

    def compile_once():
        return compile_netlist(nl, ARCH, seed=1, effort="greedy")

    result = benchmark(compile_once)
    assert result.bitstream.used_clbs > 0
