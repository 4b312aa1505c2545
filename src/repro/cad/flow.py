"""The complete CAD flow: netlist → bitstream.

``compile_netlist`` chains technology mapping, packing, placement, virtual
pin (or pad) assignment, routing, timing analysis and configuration
generation, producing a :class:`repro.device.Bitstream` ready for the
VFPGA manager.

Two modes:

* ``relocatable`` (default) — compile into a region anchored at the
  given rectangle (or an automatically sized one at the origin); primary
  I/O binds to *virtual pins* on the region's boundary channels; the
  result translates to any anchor (paper §4's relocatable circuits).
* ``dedicated`` — compile for the whole device with primary I/O bonded
  to physical IOB pads (the classic single-application configuration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

from ..device import (
    Architecture,
    Bitstream,
    ClbConfig,
    Coord,
    IobConfig,
    IobDirection,
    Rect,
    Wire,
    clb_input_candidates,
    clb_output_candidates,
    iob_sites,
)
from ..netlist import Netlist
from .cache import CompileCache, netlist_digest
from .instrument import CadInstrumentation, CompileProfile
from .pack import PackedDesign, nets_of, pack
from .place import Placement, place
from .route import NetSpec, Router, RoutingError
from .rrg import RoutingGraph
from .techmap import technology_map
from .timing import TimingReport, analyze_timing

__all__ = [
    "compile_netlist",
    "CompileResult",
    "CompileError",
    "PinCapacityError",
    "minimal_region",
]


class _NullPhase:
    """``with`` target used when instrumentation is disabled: zero work,
    zero timestamps (the disabled flow must not even read a clock)."""

    __slots__ = ("size",)

    def __init__(self) -> None:
        self.size = 0

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


def _phase(instrument: Optional[CadInstrumentation], name: str,
           size: int = 0):
    if instrument is None:
        return _NullPhase()
    return instrument.phase(name, size=size)


class CompileError(Exception):
    """Umbrella error for compilation failures."""


class PinCapacityError(CompileError):
    """The circuit needs more I/O than the target offers — the paper's
    pin-count physical barrier (§1)."""


@dataclass
class CompileResult:
    """Everything the flow produced for one circuit."""

    bitstream: Bitstream
    design: PackedDesign
    placement: Placement
    timing: TimingReport
    #: Total routed wirelength (wire segments over all nets).
    wirelength: int
    #: Net count actually routed.
    n_nets: int
    #: Compile telemetry aggregation (``None`` unless the flow ran with a
    #: :class:`~repro.cad.instrument.CadInstrumentation` hook).
    profile: Optional[CompileProfile] = None

    @property
    def critical_path(self) -> float:
        return self.timing.critical_path


def virtual_pin_capacity(arch: Architecture, region: Rect) -> int:
    """Number of boundary wires available as virtual pins: the bottom
    horizontal channel plus the left vertical channel of the region."""
    return arch.channel_width * (region.w + region.h)


def _virtual_pin_pool(arch: Architecture, region: Rect) -> List[Wire]:
    """Deterministic virtual-pin candidate order.

    With disjoint switch boxes a net whose source is a fixed wire is
    confined to that wire's *track plane*, so consecutive pins must land on
    different tracks as well as different channel spans.  The pool stripes
    diagonally over (position, track): entry ``i`` uses position ``i % P``
    and track ``(i % P + i // P) % cw``, which enumerates every boundary
    wire exactly once while spreading both coordinates.
    """
    cw = arch.channel_width
    positions: List[Wire] = [Wire("H", x, region.y, 0) for x in region.columns()]
    positions += [Wire("V", region.x, y, 0) for y in range(region.y, region.y2)]
    n_pos = len(positions)
    pool: List[Wire] = []
    for rnd in range(cw):
        for p, base in enumerate(positions):
            t = (p + rnd) % cw
            pool.append(Wire(base.kind, base.x, base.y, t))
    assert len(set(pool)) == n_pos * cw
    return pool


def minimal_region(
    design_clbs: int, io_count: int, arch: Architecture,
    utilization: float = 0.5, shape: str = "square",
) -> Rect:
    """Smallest region (anchored at the origin) with enough CLBs at the
    given target utilization and enough virtual-pin capacity.

    ``shape="square"`` grows both dimensions together (minimum wirelength);
    ``shape="columns"`` uses full-height column spans (minimum width),
    which is what the column-granular partitioning/paging services pack
    most densely.
    """
    if not 0 < utilization <= 1.0:
        raise ValueError("utilization must be in (0, 1]")
    if shape not in ("square", "columns"):
        raise ValueError(f"unknown region shape {shape!r}")
    if shape == "columns":
        w = max(1, math.ceil(design_clbs / (arch.height * utilization)))
        while True:
            region = Rect(0, 0, min(w, arch.width), arch.height)
            enough_area = region.area >= design_clbs
            enough_pins = virtual_pin_capacity(arch, region) >= io_count
            if (enough_area and enough_pins) or region.w >= arch.width:
                return region
            w += 1
    side = max(1, math.ceil(math.sqrt(design_clbs / utilization)))
    while True:
        region = Rect(0, 0, min(side, arch.width), min(side, arch.height))
        enough_area = region.area >= design_clbs
        enough_pins = virtual_pin_capacity(arch, region) >= io_count
        if enough_area and enough_pins:
            return region
        if region.w >= arch.width and region.h >= arch.height:
            return region  # caller's placement/pin check will raise
        side += 1


def compile_netlist(
    netlist: Netlist,
    arch: Architecture,
    region: Optional[Rect] = None,
    mode: str = "relocatable",
    seed: int = 0,
    effort: str = "sa",
    max_route_iterations: int = 24,
    shape: str = "square",
    instrument: Optional[CadInstrumentation] = None,
    cache: Optional[CompileCache] = None,
) -> CompileResult:
    """Compile ``netlist`` for ``arch``.

    ``instrument`` (a :class:`~repro.cad.instrument.CadInstrumentation`)
    opts the run into compile telemetry: phase brackets, SA cost curve
    and router convergence events, aggregated into
    :attr:`CompileResult.profile`.  The hook only observes — placements
    and bitstreams are bit-identical with instrumentation on or off.
    Auto-region retries accumulate into the same instrument, so the
    profile records the *whole* compile including discarded attempts.

    Without a ``region`` a relocatable compile is auto-sized: the flow
    maps and packs once, then places and routes in
    :func:`minimal_region` at utilization 0.5, 0.33 and 0.22 (a region
    equal to the one before it is skipped, and the full device ends the
    list) until one routes; only the last ``RoutingError`` escapes.

    ``cache`` (a :class:`~repro.cad.cache.CompileCache`) memoises the
    flow end-to-end: one lookup before any phase runs, keyed by netlist
    content digest plus every flow option (an auto-sized compile keys on
    ``("auto", shape)``, not on the region it settled in), and one store
    after bitgen.  A hit returns the stored result with the current
    run's profile, and every lookup is published as a
    :class:`~repro.cad.instrument.CadCacheLookup` event when
    instrumented.  Cached results are shared — callers must treat them
    as read-only, exactly like the frame images the
    :class:`~repro.core.bitcache.BitstreamCache` serves.

    Raises
    ------
    PlacementError
        Circuit needs more CLBs than the region holds.
    PinCapacityError
        Circuit needs more I/O than the pads / virtual pins available.
    RoutingError
        Congestion did not resolve.
    """
    if mode not in ("relocatable", "dedicated"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "dedicated" and region is not None and region != arch.full_rect:
        raise ValueError("dedicated mode always targets the full device")

    flow_key = None
    if cache is not None:
        region_token: Tuple = (
            _rect_token(arch.full_rect) if mode == "dedicated"
            else _rect_token(region) if region is not None
            else ("auto", shape)
        )
        flow_key = cache.flow_key(
            netlist_digest(netlist), arch, mode=mode,
            region_token=region_token, seed=seed, effort=effort,
            max_route_iterations=max_route_iterations,
        )
        hit = cache.lookup_result(flow_key, instrument=instrument)
        if hit is not None:
            return replace(
                hit,
                profile=instrument.profile() if instrument is not None
                else None,
            )

    with _phase(instrument, "techmap", size=len(netlist.cells)) as ph:
        mapped = technology_map(netlist, arch.k)
        ph.size = len(mapped.cells)
    with _phase(instrument, "pack", size=len(mapped.cells)) as ph:
        design = pack(mapped, arch.k)
        ph.size = design.n_clbs

    if mode == "dedicated":
        regions = [arch.full_rect]
    elif region is not None:
        regions = [region]
    else:
        regions = _auto_regions(design, arch, shape)
    for attempt, candidate in enumerate(regions, 1):
        try:
            result = _compile_in(
                candidate, netlist, arch, mode, design, seed=seed,
                effort=effort, max_route_iterations=max_route_iterations,
                instrument=instrument,
            )
        except RoutingError:
            if attempt == len(regions):
                raise  # even the roomiest region failed
            continue
        break
    if cache is not None and flow_key is not None:
        cache.store_result(flow_key, result, arch)
    return result


def _auto_regions(design: PackedDesign, arch: Architecture,
                  shape: str) -> List[Rect]:
    """Candidate regions of an auto-sized compile, roomier each time
    (standard relax-and-retry on routing congestion): the minimal region
    at utilization 0.5, 0.33 and 0.22, ending at the full device.  A
    candidate equal to the one before it is dropped: placement and
    routing are deterministic, so it would fail the same way again."""
    io_count = len(design.inputs) + len(design.outputs)
    regions: List[Rect] = []
    for utilization in (0.5, 0.33, 0.22):
        region = minimal_region(design.n_clbs, io_count, arch,
                                utilization=utilization, shape=shape)
        if not regions or region != regions[-1]:
            regions.append(region)
        if region == arch.full_rect:
            break
    return regions


def _compile_in(
    region: Rect,
    netlist: Netlist,
    arch: Architecture,
    mode: str,
    design: PackedDesign,
    *,
    seed: int,
    effort: str,
    max_route_iterations: int,
    instrument: Optional[CadInstrumentation],
) -> CompileResult:
    """The flow after packing, in one region: place, bind I/O, route,
    analyze timing and generate the bitstream."""
    io_count = len(design.inputs) + len(design.outputs)
    if mode == "dedicated":
        if io_count > arch.n_pins:
            raise PinCapacityError(
                f"{netlist.name!r} needs {io_count} pins, device has {arch.n_pins}"
            )
    else:
        capacity = virtual_pin_capacity(arch, region)
        if io_count > capacity:
            raise PinCapacityError(
                f"{netlist.name!r} needs {io_count} virtual pins, region "
                f"{region} offers {capacity}"
            )

    with _phase(instrument, "place", size=design.n_clbs) as ph:
        placement = place(design, region, seed=seed, effort=effort,
                          instrument=instrument)
        ph.size = design.n_clbs

    # -- I/O binding ---------------------------------------------------------
    virtual_inputs: Dict[str, Wire] = {}
    virtual_outputs: Dict[str, Wire] = {}
    pad_inputs: Dict[str, object] = {}
    pad_outputs: Dict[str, object] = {}
    if mode == "relocatable":
        pool = _virtual_pin_pool(arch, region)
        for i, port in enumerate(design.inputs):
            virtual_inputs[port] = pool[i]
        for j, port in enumerate(sorted(design.outputs)):
            virtual_outputs[port] = pool[len(pool) - 1 - j]
        overlap = set(virtual_inputs.values()) & set(virtual_outputs.values())
        if overlap:
            raise PinCapacityError(
                f"virtual pin pool exhausted for {netlist.name!r}"
            )
    else:
        sites = iob_sites(arch)
        for i, port in enumerate(design.inputs):
            pad_inputs[port] = sites[i]
        for j, port in enumerate(sorted(design.outputs)):
            pad_outputs[port] = sites[len(sites) - 1 - j]

    # -- net construction -------------------------------------------------------
    ble_names = {b.name for b in design.bles}
    specs: Dict[str, NetSpec] = {}
    for src, sinks in nets_of(design).items():
        if src in ble_names:
            source = ("clb", placement.coords[src])
        elif mode == "relocatable":
            source = ("wire", virtual_inputs[src])
        else:
            source = ("pad", pad_inputs[src])
        sink_eps = [
            ("clbpin", placement.coords[ble_name], pin) for ble_name, pin in sinks
        ]
        specs[src] = NetSpec(name=src, source=source, sinks=sink_eps)
    for port, src in design.outputs.items():
        if src not in specs:
            specs[src] = NetSpec(
                name=src, source=("clb", placement.coords[src]), sinks=[]
            )
        if mode == "relocatable":
            specs[src].sinks.append(("wire", virtual_outputs[port]))
        else:
            specs[src].sinks.append(("pad", pad_outputs[port]))

    with _phase(instrument, "rrg") as ph:
        graph = RoutingGraph(
            arch,
            region=None if mode == "dedicated" else region,
            include_pads=(mode == "dedicated"),
        )
        ph.size = len(graph)
    # Virtual-pin wires are interface terminals: reserve each for the
    # net that owns it so no other net can route through (an *unused*
    # input's wire would otherwise be free routing stock and its
    # external driver would short into whatever used it).
    reserved: Dict[int, str] = {}
    for port, wire in virtual_inputs.items():
        reserved[graph.wire_id(wire)] = port
    for port, wire in virtual_outputs.items():
        reserved[graph.wire_id(wire)] = design.outputs[port]
    router = Router(graph, max_iterations=max_route_iterations,
                    reserved=reserved)
    net_list = [specs[name] for name in sorted(specs)]
    with _phase(instrument, "route", size=len(net_list)) as ph:
        routed = router.route(net_list, instrument=instrument)
        ph.size = len(routed)

    with _phase(instrument, "timing", size=len(routed)) as ph:
        timing = analyze_timing(arch, placement, routed)
        ph.size = timing.n_timing_paths
    wirelength = sum(
        sum(1 for nid in rn.nodes if graph.is_wire(nid)) for rn in routed.values()
    )

    # -- configuration generation ------------------------------------------------
    with _phase(instrument, "bitgen", size=len(routed)) as ph:
        bitstream = _generate_bitstream(
            netlist, arch, region, mode, design, placement, routed, graph,
            timing, virtual_inputs, virtual_outputs, pad_inputs, pad_outputs,
        )
        if instrument is not None:
            ph.size = len(bitstream.frames_touched(arch))
    return CompileResult(
        bitstream=bitstream,
        design=design,
        placement=placement,
        timing=timing,
        wirelength=wirelength,
        n_nets=len(routed),
        profile=instrument.profile() if instrument is not None else None,
    )


def _rect_token(region: Rect) -> Tuple[int, int, int, int]:
    """Hashable cache-key view of a region rectangle."""
    return (region.x, region.y, region.w, region.h)


def _generate_bitstream(
    netlist: Netlist,
    arch: Architecture,
    region: Rect,
    mode: str,
    design: PackedDesign,
    placement: Placement,
    routed: Dict[str, "RoutedNet"],
    graph: RoutingGraph,
    timing: TimingReport,
    virtual_inputs: Dict[str, Wire],
    virtual_outputs: Dict[str, Wire],
    pad_inputs: Dict[str, object],
    pad_outputs: Dict[str, object],
) -> Bitstream:
    """Configuration generation: routed design -> validated bitstream
    (the flow's final phase, split out so instrumentation can bracket
    it)."""
    clbs: Dict[Coord, ClbConfig] = {}
    for ble in design.bles:
        coord = placement.coords[ble.name]
        in_cands = clb_input_candidates(arch, coord.x, coord.y)
        out_cands = clb_output_candidates(arch, coord.x, coord.y)
        sels = [0] * arch.k
        for pin, _src in enumerate(ble.lut_inputs):
            rn = routed.get(_src)
            if rn is None:
                continue
            tap = rn.sink_taps.get(("clbpin", coord, pin))
            if tap is None:
                raise CompileError(
                    f"net {_src!r} missing tap for {ble.name!r} pin {pin}"
                )
            sels[pin] = in_cands.index(graph.nodes[tap]) + 1
        drives: Set[int] = set()
        rn = routed.get(ble.name)
        if rn is not None:
            for tap in rn.source_taps:
                drives.add(out_cands.index(graph.nodes[tap]))
        clbs[coord] = ClbConfig(
            lut_truth=ble.lut_truth,
            ff_enable=ble.registered,
            ff_init=ble.ff_init if ble.registered else 0,
            out_registered=ble.registered,
            input_sel=tuple(sels),
            out_drives=frozenset(drives),
        )

    switches: Dict[Coord, Set[Tuple[int, int]]] = {}
    pad_cfg: Dict[object, IobConfig] = {}
    for rn in routed.values():
        for (bx, by, track, pair_idx) in rn.switches:
            switches.setdefault(Coord(bx, by), set()).add((track, pair_idx))
        for site, track in rn.pad_taps.items():
            direction = (
                IobDirection.INPUT
                if site in pad_inputs.values()
                else IobDirection.OUTPUT
            )
            pad_cfg[site] = IobConfig(
                enable=True, direction=direction, track_sel=track + 1
            )

    bitstream = Bitstream(
        name=netlist.name,
        arch_name=arch.name,
        region=region,
        clbs=clbs,
        switches={c: frozenset(s) for c, s in switches.items()},
        iobs=dict(pad_cfg),
        relocatable=(mode == "relocatable"),
        state_bits={
            b.ff_name: placement.coords[b.name]
            for b in design.bles
            if b.registered
        },
        virtual_inputs=virtual_inputs,
        virtual_outputs=virtual_outputs,
        pad_inputs=dict(pad_inputs),
        pad_outputs=dict(pad_outputs),
        critical_path=timing.critical_path,
    )
    bitstream.validate(arch)
    return bitstream
