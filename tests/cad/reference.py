"""Reference CAD kernels: the oracles the production kernels are pinned to.

The production placer (:func:`repro.cad.place._anneal`) and router
(:class:`repro.cad.Router`) run numpy kernels.  The original pure-python
implementations live here, unchanged, so the parity tests and the CAD
benchmarks can check that production still accepts the same moves,
lands the same coordinates and routes the same trees:

* :func:`_anneal_scalar` — the SA annealer pricing each move with
  per-net python ``max``/``min`` sums;
* :class:`ReferenceRouter` — PathFinder pricing each node with
  :meth:`~ReferenceRouter._node_cost` at every Dijkstra visit instead
  of indexing a per-net cost vector.

:func:`flow_route_inputs` rebuilds the router's inputs the way
:func:`repro.cad.compile_netlist` does, so both routers can be run on a
real net list.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.cad import (
    NetSpec,
    PackedDesign,
    Placement,
    RoutedNet,
    Router,
    RoutingError,
    RoutingGraph,
    nets_of,
    place,
)
from repro.cad.flow import _virtual_pin_pool
from repro.cad.place import _net_terminals
from repro.device import Architecture, Coord, Rect, Wire

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cad import CadInstrumentation

__all__ = ["ReferenceRouter", "RouteInputs", "flow_route_inputs",
           "reference_place"]


def reference_place(
    design: PackedDesign,
    region: Rect,
    seed: int = 0,
    instrument: Optional["CadInstrumentation"] = None,
) -> Placement:
    """``place(design, region, seed, effort="sa")`` with the reference
    annealer: the same constructive start, then :func:`_anneal_scalar`."""
    placement = place(design, region, seed=seed, effort="greedy")
    if design.n_clbs >= 2:
        _anneal_scalar(placement, list(region.coords()), seed, instrument)
        placement.validate()
    return placement


def _anneal_scalar(
    placement: Placement,
    sites: List[Coord],
    seed: int,
    instrument: Optional["CadInstrumentation"] = None,
) -> None:
    """The reference annealer: per-net python max/min move pricing.

    Kept verbatim as the behavioral pin for the numpy annealer
    (:func:`repro.cad.place._anneal`) — the parity tests compare every
    accepted move and final coordinate against this implementation.
    """
    rng = random.Random(seed)
    design = placement.design
    coords = placement.coords
    nets = _net_terminals(design)
    nets_of_ble: Dict[str, List[int]] = {b.name: [] for b in design.bles}
    for i, terms in enumerate(nets):
        for t in terms:
            nets_of_ble[t].append(i)

    def net_cost(i: int) -> float:
        xs = [coords[t].x for t in nets[i]]
        ys = [coords[t].y for t in nets[i]]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    site_to_ble: Dict[Coord, Optional[str]] = {s: None for s in sites}
    for name, c in coords.items():
        site_to_ble[c] = name
    names = [b.name for b in design.bles]
    cost = sum(net_cost(i) for i in range(len(nets)))
    temp = max(1.0, cost * 0.2)
    moves_per_temp = max(16, 8 * len(names))
    step = 0
    while temp > 0.05:
        step_t0 = instrument.now() if instrument is not None else 0.0
        accepted = 0
        evaluated = 0
        for _ in range(moves_per_temp):
            a = rng.choice(names)
            target = rng.choice(sites)
            ca = coords[a]
            if target == ca:
                continue
            evaluated += 1
            b = site_to_ble[target]
            affected = set(nets_of_ble[a])
            if b is not None:
                affected |= set(nets_of_ble[b])
            before = sum(net_cost(i) for i in affected)
            coords[a] = target
            site_to_ble[target] = a
            if b is not None:
                coords[b] = ca
                site_to_ble[ca] = b
            else:
                site_to_ble[ca] = None
            after = sum(net_cost(i) for i in affected)
            delta = after - before
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                cost += delta
                accepted += 1
            else:  # revert
                coords[a] = ca
                site_to_ble[ca] = a
                if b is not None:
                    coords[b] = target
                    site_to_ble[target] = b
                else:
                    site_to_ble[target] = None
        if instrument is not None:
            instrument.anneal_step(
                step=step, temperature=temp, moves=evaluated,
                accepted=accepted, cost=cost,
                wall_seconds=instrument.now() - step_t0,
            )
        step += 1
        temp *= 0.8
        if accepted == 0:
            break


class RouteInputs(NamedTuple):
    """What :class:`Router` needs for one relocatable compile."""

    graph: RoutingGraph
    #: Virtual-pin node id -> owning net name.
    reserved: Dict[int, str]
    #: Net specs in routing order (sorted by name).
    nets: List[NetSpec]
    virtual_inputs: Dict[str, Wire]
    virtual_outputs: Dict[str, Wire]


def flow_route_inputs(placement: Placement, arch: Architecture) -> RouteInputs:
    """Routing inputs built exactly as the flow builds them in
    relocatable mode, for ``placement`` in its own region."""
    design, region = placement.design, placement.region
    pool = _virtual_pin_pool(arch, region)
    virtual_inputs = {p: pool[i] for i, p in enumerate(design.inputs)}
    virtual_outputs = {
        p: pool[len(pool) - 1 - j]
        for j, p in enumerate(sorted(design.outputs))
    }
    ble_names = {b.name for b in design.bles}
    specs = {}
    for src, sinks in nets_of(design).items():
        source = (("clb", placement.coords[src]) if src in ble_names
                  else ("wire", virtual_inputs[src]))
        specs[src] = NetSpec(name=src, source=source, sinks=[
            ("clbpin", placement.coords[b], pin) for b, pin in sinks
        ])
    for port, src in design.outputs.items():
        if src not in specs:
            specs[src] = NetSpec(
                name=src, source=("clb", placement.coords[src]), sinks=[]
            )
        specs[src].sinks.append(("wire", virtual_outputs[port]))
    graph = RoutingGraph(arch, region=region)
    reserved = {graph.wire_id(w): p for p, w in virtual_inputs.items()}
    for port, w in virtual_outputs.items():
        reserved[graph.wire_id(w)] = design.outputs[port]
    return RouteInputs(graph, reserved, [specs[n] for n in sorted(specs)],
                       virtual_inputs, virtual_outputs)


class ReferenceRouter(Router):
    """PathFinder with per-visit node pricing (no cost vector)."""

    def _node_cost(self, node: int, net_nodes: Set[int],
                   net_name: Optional[str] = None) -> float:
        """The reference per-node cost, priced at every Dijkstra visit."""
        owner = self.reserved.get(node)
        if owner is not None and owner != net_name:
            return float("inf")
        occ = self.occupancy[node]
        if node in net_nodes:
            occ -= 1
        over = max(0, occ)  # sharing beyond capacity 1
        base = self.LONG_BASE_COST if self.graph.is_long(node) else 1.0
        return base * (1.0 + self.history[node]) * (1.0 + self._pressure * over)

    def _route_net(self, net: NetSpec) -> RoutedNet:
        g = self.graph
        routed = RoutedNet(name=net.name)
        seeds = self._source_seeds(net.source)
        #: node -> (n_wires, n_switches) from the source, for timing.
        depth: Dict[int, Tuple[int, int]] = {}

        for sink in net.sinks:
            targets = self._sink_targets(sink)
            # Dijkstra from the current tree (cost 0) + fresh source taps.
            dist: Dict[int, float] = {}
            prev: Dict[int, Tuple[Optional[int], tuple]] = {}
            heap: List[Tuple[float, int]] = []
            for nid in routed.nodes:
                dist[nid] = 0.0
                prev[nid] = (None, ("tree",))
                heapq.heappush(heap, (0.0, nid))
            for nid, entry in seeds:
                cost = self._node_cost(nid, routed.nodes, net.name)
                if cost == float("inf"):
                    continue
                if nid not in dist or cost < dist[nid]:
                    dist[nid] = cost
                    prev[nid] = (None, entry)
                    heapq.heappush(heap, (cost, nid))
            found: Optional[int] = None
            while heap:
                d, nid = heapq.heappop(heap)
                if d > dist.get(nid, float("inf")):
                    continue
                if nid in targets:
                    found = nid
                    break
                for nxt, edge in g.adj[nid]:
                    step = self._node_cost(nxt, routed.nodes, net.name)
                    if step == float("inf"):
                        continue
                    nd = d + step
                    if nd < dist.get(nxt, float("inf")):
                        dist[nxt] = nd
                        prev[nxt] = (nid, edge)
                        heapq.heappush(heap, (nd, nxt))
            if found is None:
                raise RoutingError(
                    f"net {net.name!r}: no path to sink {sink!r}"
                )
            # Backtrack, committing nodes/edges to the tree.
            path_nodes: List[int] = []
            path_edges: List[tuple] = []
            cur = found
            while True:
                path_nodes.append(cur)
                parent, via = prev[cur]
                if parent is None:
                    if via[0] == "opin":
                        routed.source_taps.add(cur)
                    break
                path_edges.append(via)
                cur = parent
            join = cur  # node where path met the tree (or a source seed)
            path_nodes.reverse()
            path_edges.reverse()
            for nid in path_nodes:
                if nid not in routed.nodes:
                    routed.nodes.add(nid)
                    self.occupancy[nid] += 1
            if join not in depth:
                if g.is_long(join):
                    depth[join] = (0, 0, 1)
                elif g.is_wire(join):
                    depth[join] = (1, 0, 0)
                else:
                    depth[join] = (0, 0, 0)
            w, s, lw = depth[join]
            for nid, via in zip(path_nodes[1:], path_edges):
                if via[0] == "sw":
                    routed.switches.add(via[1:])
                    s += 1
                elif via[0] == "pad":
                    routed.pad_taps[via[1]] = via[2]
                if g.is_long(nid):
                    lw += 1
                elif g.is_wire(nid):
                    w += 1
                depth[nid] = (w, s, lw)
            routed.sink_taps[sink] = found
            routed.sink_path_stats[sink] = depth.get(
                found, (1 if g.is_wire(found) else 0, 0, 0)
            )
        return routed
