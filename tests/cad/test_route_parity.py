"""Production PathFinder vs the per-visit reference router.

The production router precomputes one cost vector
(``base * (1 + history) * (1 + pressure * over)``) per net instead of
calling ``_node_cost`` per visited node inside Dijkstra, as
``tests.cad.reference.ReferenceRouter`` does.  Within one
``_route_net`` call only the net's own commits change occupancy, and
membership subtraction cancels them — so the vector is *exact*, not an
approximation, and both routers must produce node-for-node identical
trees, the same overuse trajectory and the same final occupancy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cad import (
    CadInstrumentation,
    CadRouteIteration,
    RoutingError,
    Router,
    analyze_timing,
    compile_netlist,
    pack,
    place,
    technology_map,
)
from repro.cad.flow import _generate_bitstream, minimal_region
from repro.device import get_family
from repro.netlist import alu, comparator, ripple_adder, serial_crc
from tests.cad.reference import (
    ReferenceRouter,
    flow_route_inputs,
    reference_place,
)
from tests.cad.test_place_parity import random_netlists

ARCH = get_family("VF10")

CIRCUITS = [
    pytest.param(lambda: ripple_adder(4), id="adder4"),
    pytest.param(lambda: comparator(4), id="cmp4"),
    pytest.param(lambda: alu(3), id="alu3"),
    pytest.param(lambda: serial_crc(8, 0x07), id="crc8"),
]


def placed(netlist, seed=3):
    """Pack and place ``netlist`` in its auto-sized region, as the flow
    does."""
    design = pack(technology_map(netlist, ARCH.k), ARCH.k)
    io_count = len(design.inputs) + len(design.outputs)
    region = minimal_region(design.n_clbs, io_count, ARCH)
    return place(design, region, seed=seed, effort="sa")


def route_both(inputs):
    """Route ``inputs`` with the production and the reference router;
    each side is ``(router, routed nets or the RoutingError raised)``."""
    out = []
    for cls in (Router, ReferenceRouter):
        router = cls(inputs.graph, reserved=dict(inputs.reserved))
        try:
            out.append((router, router.route(inputs.nets)))
        except RoutingError as exc:
            out.append((router, exc))
    return out


def assert_same_routing(prod, ref):
    (p_router, p), (r_router, r) = prod, ref
    if isinstance(r, RoutingError):
        assert isinstance(p, RoutingError) and str(p) == str(r)
    else:
        assert set(p) == set(r)
        for name in r:
            assert p[name].nodes == r[name].nodes, name
            assert p[name].source_taps == r[name].source_taps, name
            assert p[name].sink_taps == r[name].sink_taps, name
            assert p[name].switches == r[name].switches, name
            assert p[name].pad_taps == r[name].pad_taps, name
            assert p[name].sink_path_stats == r[name].sink_path_stats, name
    # Same negotiation trajectory, not just the same endpoint.
    assert p_router.overuse_history == r_router.overuse_history
    assert np.array_equal(p_router.occupancy, r_router.occupancy)
    assert np.array_equal(p_router.history, r_router.history)


@pytest.mark.parametrize("factory", CIRCUITS)
@pytest.mark.parametrize("seed", [0, 3])
def test_engines_route_identically(factory, seed):
    prod, ref = route_both(flow_route_inputs(placed(factory(), seed), ARCH))
    assert not isinstance(prod[1], RoutingError)
    assert_same_routing(prod, ref)


@pytest.mark.parametrize("factory", CIRCUITS[2:])
def test_engines_emit_identical_route_iterations(factory):
    """The same negotiation under instrumentation: every PathFinder
    round's overuse count, rip-ups and pressure match (wall time
    aside)."""
    inputs = flow_route_inputs(placed(factory()), ARCH)
    streams = []
    for cls in (Router, ReferenceRouter):
        instr = CadInstrumentation()
        cls(inputs.graph, reserved=dict(inputs.reserved)).route(
            inputs.nets, instrument=instr)
        streams.append([
            (e.iteration, e.overused, e.ripped_up, e.pressure)
            for e in instr.events if isinstance(e, CadRouteIteration)
        ])
    assert streams[0]  # the router actually ran instrumented
    assert streams[0] == streams[1]


@settings(max_examples=8, deadline=None)
@given(nl=random_netlists(), seed=st.integers(min_value=0, max_value=2**16))
def test_engines_route_identically_on_random_designs(nl, seed):
    prod, ref = route_both(flow_route_inputs(placed(nl, seed), ARCH))
    assert_same_routing(prod, ref)


def test_cost_vector_matches_node_cost_everywhere():
    """The per-net cost vector must equal the reference ``_node_cost``
    at every node — including infinity on nodes reserved for other nets
    — in a state with real occupancy, history and pressure."""
    inputs = flow_route_inputs(placed(alu(3)), ARCH)
    router = ReferenceRouter(inputs.graph, reserved=inputs.reserved)
    router.route(inputs.nets)  # leaves occupancy/history populated
    router._pressure = 0.9
    some_net = inputs.nets[0].name
    vec = router._net_cost_vector(some_net)
    assert any(owner != some_net for owner in inputs.reserved.values())
    for nid in range(len(inputs.graph)):
        assert vec[nid] == router._node_cost(nid, set(), some_net), nid


def test_full_flow_bitstreams_engine_independent():
    """End to end: the flow's placement is the reference annealer's on
    the flow's own packed design and region, and the bitstream built
    from the reference router's trees is the flow's, byte for byte —
    so the production kernels change nothing observable about a
    compile."""
    nl = serial_crc(8, 0x07)
    res = compile_netlist(nl, ARCH, seed=3, effort="sa")
    region = res.bitstream.region
    ref_placement = reference_place(res.design, region, seed=3)
    assert res.placement.coords == ref_placement.coords

    inputs = flow_route_inputs(ref_placement, ARCH)
    routed = ReferenceRouter(inputs.graph,
                             reserved=inputs.reserved).route(inputs.nets)
    timing = analyze_timing(ARCH, ref_placement, routed)
    bitstream = _generate_bitstream(
        nl, ARCH, region, "relocatable", res.design, ref_placement, routed,
        inputs.graph, timing, inputs.virtual_inputs, inputs.virtual_outputs,
        {}, {},
    )
    assert bitstream == res.bitstream
    assert res.critical_path == timing.critical_path
    assert res.wirelength == sum(
        sum(1 for nid in rn.nodes if inputs.graph.is_wire(nid))
        for rn in routed.values()
    )
