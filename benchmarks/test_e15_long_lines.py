"""E15 — long-distance interconnection busses (paper §2).

Claim: "long-distance interconnection busses are available to reduce the
propagation time in large devices by limiting the number of switches
traversed by a signal."

Corner-to-corner nets on devices of growing size, routed with and without
long lines.  Expected shape: without long lines the cross-chip net delay
grows linearly with the device side (every tile adds a segment and a
switch); with long lines it flattens to a near-constant (one long hop plus
local distribution), and the advantage widens with device size — exactly
the paper's rationale.
"""

from _harness import emit, monotone_nondecreasing, record_run

from repro.analysis import format_table, sweep
from repro.cad import NetSpec, Router, RoutingGraph
from repro.device import Architecture, Coord


def cross_chip_delay(side: int, long_per_channel: int) -> float:
    arch = Architecture(
        f"s{side}l{long_per_channel}", side, side,
        channel_width=4, long_per_channel=long_per_channel,
    )
    g = RoutingGraph(arch)
    r = Router(g)
    mid = side // 2
    net = NetSpec(
        "n", ("clb", Coord(0, mid)), [("clbpin", Coord(side - 1, mid), 0)]
    )
    routed = r.route([net])["n"]
    w, s, lw = routed.sink_path_stats[("clbpin", Coord(side - 1, mid), 0)]
    return (
        w * arch.wire_delay + s * arch.switch_delay
        + lw * arch.long_wire_delay
    )


def run_point(side: int):
    without = cross_chip_delay(side, 0)
    with_long = cross_chip_delay(side, 2)
    return {
        "no_long_ns": round(without * 1e9, 2),
        "with_long_ns": round(with_long * 1e9, 2),
        "speedup": round(without / with_long, 2),
    }


def test_e15_long_lines(benchmark):
    sides = [6, 10, 16, 24, 32]
    result = benchmark.pedantic(
        lambda: sweep("side", sides, run_point), rounds=1, iterations=1
    )
    # One static-model row per device side (no wall clock), so ``repro
    # bench-diff`` gates every delay against the baseline.
    for row in result.rows:
        record_run({
            "policy": "long_lines",
            "policy_kw": {"side": row["side"]},
            "long_lines": {k: row[k] for k in
                           ("no_long_ns", "with_long_ns", "speedup")},
        })
    emit("e15_long_lines", format_table(
        result.rows,
        title="E15: cross-chip net delay, segmented-only vs long lines",
    ))
    no_long = result.column("no_long_ns")
    with_long = result.column("with_long_ns")
    speedup = result.column("speedup")
    # Shape 1: segment-only delay grows with device size.
    assert monotone_nondecreasing(no_long)
    assert no_long[-1] > 3 * no_long[0]
    # Shape 2: long-line delay stays nearly flat.
    assert with_long[-1] < with_long[0] * 2
    # Shape 3: the advantage widens with size (the paper's "large devices").
    assert monotone_nondecreasing(speedup, slack=0.05)
    assert speedup[-1] > 2.0
