"""Production SA placer vs the reference annealer.

The production annealer keeps array state — per-move HPWL deltas come
from one fancy index plus two ``reduceat`` calls instead of
per-terminal python sums — but it consumes the *same RNG stream* and
computes the *same integer deltas* as the reference
(``tests.cad.reference._anneal_scalar``), so it must accept the same
moves and land every BLE on the same site.  These tests pin that
contract: same seed → identical coords, identical instrument event
streams (temperatures, costs, acceptance counts), on generated designs
too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cad import (
    CadAnnealStep,
    CadInstrumentation,
    pack,
    place,
    technology_map,
)
from repro.device import get_family
from repro.netlist import (
    NetlistBuilder,
    alu,
    comparator,
    counter,
    moving_sum_fir,
    ripple_adder,
    serial_crc,
)
from tests.cad.reference import reference_place

ARCH = get_family("VF16")

CIRCUITS = [
    pytest.param(lambda: ripple_adder(4), id="adder4"),
    pytest.param(lambda: ripple_adder(8), id="adder8"),
    pytest.param(lambda: comparator(4), id="cmp4"),
    pytest.param(lambda: counter(6), id="counter6"),
    pytest.param(lambda: alu(3), id="alu3"),
    pytest.param(lambda: serial_crc(8, 0x07), id="crc8"),
    pytest.param(lambda: moving_sum_fir(8, 4), id="fir8x4"),
]


def packed(factory):
    mapped = technology_map(factory(), ARCH.k)
    return pack(mapped, ARCH.k)


def region_for(design):
    from repro.cad import minimal_region

    io = len(design.inputs) + len(design.outputs)
    return minimal_region(design.n_clbs, io, ARCH)


@pytest.mark.parametrize("factory", CIRCUITS)
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_engines_place_identically(factory, seed):
    design = packed(factory)
    region = region_for(design)
    ref = reference_place(design, region, seed=seed)
    prod = place(design, region, seed=seed, effort="sa")
    assert prod.coords == ref.coords


@pytest.mark.parametrize("factory", CIRCUITS[:3])
def test_engines_emit_identical_event_streams(factory):
    """Not just the same answer — the same anneal: every step's
    temperature, running cost and acceptance counts match, so the
    production annealer is observationally indistinguishable from the
    reference under instrumentation (wall time aside)."""
    design = packed(factory)
    region = region_for(design)
    streams = {}
    for name, run in (("reference", reference_place), ("production", place)):
        instr = CadInstrumentation()
        run(design, region, seed=3, instrument=instr)
        streams[name] = [
            (e.step, e.temperature, e.moves, e.accepted, e.cost)
            for e in instr.events if isinstance(e, CadAnnealStep)
        ]
    assert streams["reference"]  # the anneal actually ran instrumented
    assert streams["reference"] == streams["production"]


@st.composite
def random_netlists(draw):
    """Small random combinational netlists: a layer of inputs feeding a
    random DAG of 2-input gates, a few outputs."""
    n_in = draw(st.integers(min_value=2, max_value=5))
    n_gates = draw(st.integers(min_value=3, max_value=30))
    b = NetlistBuilder(f"rand{n_in}x{n_gates}")
    sigs = [b.input(f"i{i}") for i in range(n_in)]
    for g in range(n_gates):
        a = sigs[draw(st.integers(min_value=0, max_value=len(sigs) - 1))]
        c = sigs[draw(st.integers(min_value=0, max_value=len(sigs) - 1))]
        op = draw(st.sampled_from(["and_", "or_", "xor"]))
        sigs.append(getattr(b, op)(a, c, name=f"g{g}"))
    n_out = draw(st.integers(min_value=1, max_value=3))
    for o in range(n_out):
        b.output(f"o{o}", sigs[len(sigs) - 1 - o])
    return b.build()


@settings(max_examples=25, deadline=None)
@given(nl=random_netlists(), seed=st.integers(min_value=0, max_value=2**16))
def test_engines_agree_on_random_designs(nl, seed):
    design = pack(technology_map(nl, ARCH.k), ARCH.k)
    region = region_for(design)
    ref = reference_place(design, region, seed=seed)
    prod = place(design, region, seed=seed, effort="sa")
    assert prod.coords == ref.coords


def test_connectivity_order_matches_list_reference():
    """The deque-based BFS must visit BLEs in exactly the order the old
    ``list.pop(0)`` implementation did — placement determinism hangs on
    this ordering."""
    from repro.cad.place import _connectivity_order, _net_terminals

    design = packed(lambda: serial_crc(8, 0x07))

    # Inline reference: the original formulation, byte for byte, except
    # the queue is a plain list popped from the front.
    adj = {b.name: [] for b in design.bles}
    for terms in _net_terminals(design):
        for a in terms:
            for b in terms:
                if a != b:
                    adj[a].append(b)
    order = []
    visited = set()
    remaining = sorted(adj, key=lambda n: -len(adj[n]))
    for seed_name in remaining:
        if seed_name in visited:
            continue
        queue = [seed_name]
        visited.add(seed_name)
        while queue:
            cur = queue.pop(0)
            order.append(cur)
            for nxt in adj[cur]:
                if nxt not in visited:
                    visited.add(nxt)
                    queue.append(nxt)
    assert _connectivity_order(design) == order


def test_net_terminals_memoised_per_design():
    """Repeat calls return the same object (the placer calls this in
    both the greedy seeding and the anneal — once per compile is
    enough), and distinct designs never share a memo."""
    from repro.cad.place import _net_terminals

    d1 = packed(lambda: ripple_adder(4))
    d2 = packed(lambda: ripple_adder(4))
    assert _net_terminals(d1) is _net_terminals(d1)
    assert _net_terminals(d1) is not _net_terminals(d2)
    assert _net_terminals(d1) == _net_terminals(d2)
