"""CAD-kernel microbenchmarks: the numpy place/route kernels vs the
reference implementations in ``tests.cad.reference``.

The production kernels replace the per-terminal python loops in the SA
placer's move evaluation and the router's per-node cost function with
array kernels — same RNG stream, same accepted moves, same routed
trees, bit-identical results.  These microbenchmarks isolate each
kernel (the full-flow wins are E13d's job) and pin the contract the
speedup rides on: *identical output first, faster second*.

Mirrors ``test_delta_microbench.py``: simulated-result equality asserted
exactly, wall-clock compared with generous CI margins, one table per
quantity emitted into the artifact stream.  Run from the repository
root (``python -m pytest benchmarks/...``) so ``tests`` is importable.
"""

import time

from _harness import emit

from repro.analysis import format_table
from repro.cad import Router, compile_netlist, pack, place, technology_map
from repro.cad.flow import minimal_region
from repro.device import get_family
from repro.netlist import (
    accumulator,
    comparator,
    counter,
    lfsr,
    moving_sum_fir,
    parity_tree,
    ripple_adder,
)
from tests.cad.reference import ReferenceRouter, flow_route_inputs, reference_place

ARCH = get_family("VF16")
N_ROUNDS = 3  # best-of-N: results are deterministic, only timing jitters

#: The six circuits the ``sim-reconfig`` workload of benchmarks/perf
#: compiles in set-up (3–12 BLEs), smallest first.
SMALL_DESIGNS = [
    ("parity_tree:8", lambda: parity_tree(8)),
    ("counter:4", lambda: counter(4)),
    ("lfsr:8", lambda: lfsr(8)),
    ("comparator:4", lambda: comparator(4)),
    ("ripple_adder:4", lambda: ripple_adder(4)),
    ("accumulator:4", lambda: accumulator(4)),
]
#: Small designs place in milliseconds, so they take more rounds.
N_SMALL_ROUNDS = 7


def packed(netlist):
    return pack(technology_map(netlist, ARCH.k), ARCH.k)


def packed_fir():
    """The E13d target design: placement-bound (169 BLEs, a 49-terminal
    net) — large enough that kernel time dominates setup."""
    return packed(moving_sum_fir(8, 4))


def auto_region(design):
    io_count = len(design.inputs) + len(design.outputs)
    return minimal_region(design.n_clbs, io_count, ARCH)


def best_place(run, design, region, rounds):
    """(best wall seconds, coords) of ``rounds`` placements at seed 3."""
    best, coords = None, None
    for _ in range(rounds):
        t0 = time.perf_counter()
        p = run(design, region, seed=3)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
        coords = p.coords
    return best, coords


def test_sa_kernel_vs_reference(benchmark):
    design = packed_fir()
    region = auto_region(design)

    def run_kernels():
        return {name: best_place(run, design, region, N_ROUNDS)
                for name, run in (("reference", reference_place),
                                  ("production", place))}

    out = benchmark.pedantic(run_kernels, rounds=1, iterations=1)
    (r, r_coords), (p, p_coords) = out["reference"], out["production"]
    # Bit-exact: the kernel may only change how fast moves are scored,
    # never which moves are accepted or where BLEs land.
    assert p_coords == r_coords
    # The numpy kernel must win outright on a placement-bound design
    # (measured ~2x; strict inequality leaves CI headroom).
    assert p < r, f"SA kernel slower than the reference: " \
                  f"{p * 1e3:.1f}ms vs {r * 1e3:.1f}ms"

    emit("cad_microbench_sa", format_table(
        [{"kernel": k, "place_ms": round(t * 1e3, 2),
          "vs_reference": f"{t / r:.2f}x"}
         for k, (t, _) in out.items()],
        title=f"SA placement kernel: {design.n_clbs} BLEs on "
              f"{ARCH.name} {region.w}x{region.h} (identical coords)",
    ))


def test_sa_kernel_small_designs(benchmark):
    """Below the size where numpy obviously pays: the ``sim-reconfig``
    circuits, each in its auto-sized region.  The kernel may lose a
    fraction of a millisecond on the tiniest design, but the summed
    placement time must be lower than the reference's."""

    def run_kernels():
        rows = []
        for spec, factory in SMALL_DESIGNS:
            design = packed(factory())
            region = auto_region(design)
            r, r_coords = best_place(reference_place, design, region,
                                     N_SMALL_ROUNDS)
            p, p_coords = best_place(place, design, region, N_SMALL_ROUNDS)
            assert p_coords == r_coords, spec
            rows.append({"design": spec, "bles": len(design.bles),
                         "reference_ms": r * 1e3, "production_ms": p * 1e3})
        return rows

    rows = benchmark.pedantic(run_kernels, rounds=1, iterations=1)
    ref_total = sum(row["reference_ms"] for row in rows)
    prod_total = sum(row["production_ms"] for row in rows)
    assert prod_total < ref_total, \
        f"SA kernel slower than the reference on the small designs: " \
        f"{prod_total:.1f}ms vs {ref_total:.1f}ms"

    table = [{"design": row["design"], "bles": row["bles"],
              "reference_ms": round(row["reference_ms"], 2),
              "production_ms": round(row["production_ms"], 2),
              "vs_reference": f"{row['production_ms'] / row['reference_ms']:.2f}x"}
             for row in rows]
    table.append({"design": "total", "bles": sum(r["bles"] for r in rows),
                  "reference_ms": round(ref_total, 2),
                  "production_ms": round(prod_total, 2),
                  "vs_reference": f"{prod_total / ref_total:.2f}x"})
    emit("cad_microbench_sa_small", format_table(
        table,
        title=f"SA placement kernel on small designs: {ARCH.name}, "
              f"auto-sized regions, best of {N_SMALL_ROUNDS} "
              f"(identical coords)",
    ))


def test_route_kernel_vs_reference(benchmark):
    design = packed_fir()
    inputs = flow_route_inputs(
        place(design, auto_region(design), seed=3, effort="sa"), ARCH
    )

    def run_kernels():
        out = {}
        for name, cls in (("reference", ReferenceRouter),
                          ("production", Router)):
            best, routed = None, None
            for _ in range(N_ROUNDS):
                router = cls(inputs.graph, reserved=dict(inputs.reserved))
                t0 = time.perf_counter()
                routed = router.route(inputs.nets)
                dt = time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
            out[name] = (best, routed)
        return out

    out = benchmark.pedantic(run_kernels, rounds=1, iterations=1)
    (r, r_routed), (p, p_routed) = out["reference"], out["production"]
    # Node-for-node identical trees: the cost vector is exact, not an
    # approximation of the per-visit cost function.
    assert set(r_routed) == set(p_routed)
    for name in r_routed:
        assert p_routed[name].nodes == r_routed[name].nodes, name
        assert p_routed[name].switches == r_routed[name].switches, name
        assert p_routed[name].sink_taps == r_routed[name].sink_taps, name
    # Generous bound — the cost vector wins, but by less than the SA
    # kernel (Dijkstra itself is untouched), so gate only disasters.
    assert p < r * 1.5, f"route kernel slower than the reference: " \
                        f"{p * 1e3:.1f}ms vs {r * 1e3:.1f}ms"

    emit("cad_microbench_route", format_table(
        [{"kernel": k, "route_ms": round(t * 1e3, 2),
          "vs_reference": f"{t / r:.2f}x"}
         for k, (t, _) in out.items()],
        title=f"PathFinder cost kernel: {len(inputs.nets)} nets, "
              f"{len(inputs.graph)} RRG nodes on {ARCH.name} "
              f"(identical trees)",
    ))


def test_warm_compile_is_a_metadata_hit():
    """Host-side: the compile cache turns a repeat compile into a
    dictionary lookup (the compile-path analogue of
    ``test_bitcache_removes_reencoding``)."""
    from repro.cad import CompileCache

    cache = CompileCache()
    t0 = time.perf_counter()
    cold = compile_netlist(moving_sum_fir(8, 4), ARCH, seed=3,
                           effort="sa", cache=cache)
    cold_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(N_ROUNDS):
        warm = compile_netlist(moving_sum_fir(8, 4), ARCH, seed=3,
                               effort="sa", cache=cache)
        assert warm.bitstream == cold.bitstream
    warm_s = (time.perf_counter() - t0) / N_ROUNDS

    stats = cache.stats()
    assert stats["hits"] == N_ROUNDS
    assert stats["entries"] >= 1
    # Generous bound — the real margin is ~99%, but CI machines vary.
    assert warm_s < cold_s / 2
