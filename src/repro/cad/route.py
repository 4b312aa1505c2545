"""Negotiated-congestion routing (PathFinder-style).

Every signal net is routed as a Steiner tree over the routing graph; all
nets share wires freely in early iterations, then congestion cost and an
accumulating history term force them apart until every wire carries at
most one net.  Each routed net records enough structure (source taps, sink
taps, enabled switches, pad taps, per-sink path lengths) to be turned
directly into configuration bits and timing numbers.

Router state (occupancy, history, the long-line base-cost mask) lives in
numpy arrays.  Each ``_route_net`` call prices every node once, as the
elementwise vector ``base * (1 + history) * (1 + pressure * occupancy)``,
and the Dijkstra loop indexes it.  The vector is exact, not an
approximation: within one call the only occupancy that changes is the
net's own committed nodes, and per-visit pricing subtracts the
net-membership unit for those again — so each node's cost is invariant
across the call, and routes are node-for-node those of the per-visit
reference router kept in tests/cad/reference.py.  Overuse detection and
the history bump between iterations are single array ops.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..device import Coord, IobSite, clb_input_candidates, clb_output_candidates
from .rrg import RoutingGraph

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cost
    from .instrument import CadInstrumentation

__all__ = ["NetSpec", "RoutedNet", "Router", "RoutingError"]


class RoutingError(Exception):
    """The design is unroutable in this graph (congestion never resolved)."""


#: A net endpoint.  Kinds:
#:   ("clb", Coord)            — CLB output (source only)
#:   ("clbpin", Coord, pin)    — CLB input pin (sink only)
#:   ("wire", Wire)            — a specific wire (virtual pin, either end)
#:   ("pad", IobSite)          — an IOB pad (either end)
Endpoint = Tuple

#: Key identifying one sink within a net (the endpoint tuple itself).
SinkKey = Hashable


@dataclass
class NetSpec:
    """One signal net to route."""

    name: str
    source: Endpoint
    sinks: List[Endpoint]


@dataclass
class RoutedNet:
    """The routed tree of one net."""

    name: str
    nodes: Set[int] = field(default_factory=set)
    #: Wire ids driven directly by the CLB output / pad (for out_drives).
    source_taps: Set[int] = field(default_factory=set)
    #: sink endpoint -> wire id tapped (or pad id for pad sinks).
    sink_taps: Dict[SinkKey, int] = field(default_factory=dict)
    #: Enabled switch edges: (box_x, box_y, track, pair_index).
    switches: Set[Tuple[int, int, int, int]] = field(default_factory=set)
    #: Pad taps used: site -> track.
    pad_taps: Dict[IobSite, int] = field(default_factory=dict)
    #: sink endpoint -> (n_wires, n_switches, n_long_wires) on its
    #: source→sink path.
    sink_path_stats: Dict[SinkKey, Tuple[int, int, int]] = field(
        default_factory=dict
    )


class Router:
    """Routes a set of nets over one :class:`RoutingGraph`.

    Parameters
    ----------
    graph:
        The routing graph (full-device or region scope).
    max_iterations:
        PathFinder rip-up/re-route rounds before declaring unroutability.
    seed_order:
        Nets are routed in the given order each iteration (deterministic).
    """

    def __init__(
        self,
        graph: RoutingGraph,
        max_iterations: int = 24,
        reserved: Optional[Dict[int, str]] = None,
    ) -> None:
        self.graph = graph
        self.max_iterations = max_iterations
        #: node id -> owning net name: nobody else may even pass through
        #: (virtual pins are interface wires, not routing stock — an
        #: unused input's pin must stay electrically private).
        self.reserved: Dict[int, str] = dict(reserved or {})
        n = len(graph)
        self.occupancy = np.zeros(n, dtype=np.int64)
        self.history = np.zeros(n, dtype=np.float64)
        #: Per-node base cost (the long-line mask applied once, not per
        #: Dijkstra visit).
        self._base = np.fromiter(
            (self.LONG_BASE_COST if graph.is_long(nid) else 1.0
             for nid in range(n)),
            dtype=np.float64, count=n,
        )
        self._pressure = 0.5
        #: Overused-wire count after each PathFinder iteration of the
        #: last :meth:`route` call (the convergence curve; also embedded
        #: in the :class:`RoutingError` message on failure).
        self.overuse_history: List[int] = []

    # -- cost model --------------------------------------------------------
    #: Base cost of entering a long line: they are scarce, device-global
    #: resources, so casual short hops should prefer segments.
    LONG_BASE_COST = 2.5

    def _net_cost_vector(self, net_name: Optional[str]) -> List[float]:
        """All node costs for one :meth:`_route_net` call, as python
        floats for the Dijkstra heap; ``inf`` on nodes reserved for
        another net.

        Computed against an *empty* net tree, which stays exact for the
        whole call: a node the net commits gains one occupancy unit but
        also net membership, which per-visit pricing subtracts back out
        — ``max(0, occ+1-1) == max(0, occ)``.  Nothing else mutates
        occupancy, history or pressure mid-call, and the elementwise
        float64 products match the per-node expression bit for bit.
        """
        cost = (self._base * (1.0 + self.history)
                * (1.0 + self._pressure * self.occupancy))
        out: List[float] = cost.tolist()
        for nid, owner in self.reserved.items():
            if owner != net_name:
                out[nid] = float("inf")
        return out

    # -- endpoint expansion ----------------------------------------------------
    def _source_seeds(self, source: Endpoint) -> List[Tuple[int, tuple]]:
        """(node id, entry descriptor) pairs a net may start from."""
        kind = source[0]
        g = self.graph
        if kind == "clb":
            coord: Coord = source[1]
            seeds = []
            for idx, wire in enumerate(
                clb_output_candidates(g.arch, coord.x, coord.y)
            ):
                nid = g.index.get(wire)
                if nid is not None:
                    seeds.append((nid, ("opin", coord, idx)))
            if not seeds:
                raise RoutingError(f"CLB output at {coord} has no wires in scope")
            return seeds
        if kind == "wire":
            nid = g.index.get(source[1])
            if nid is None:
                raise RoutingError(f"source wire {source[1]} outside scope")
            return [(nid, ("vpin",))]
        if kind == "pad":
            nid = g.index.get(source[1])
            if nid is None:
                raise RoutingError(f"source pad {source[1]} not in graph")
            return [(nid, ("padsrc",))]
        raise ValueError(f"bad source endpoint {source!r}")

    def _sink_targets(self, sink: Endpoint) -> Dict[int, tuple]:
        """node id -> arrival descriptor for one sink."""
        kind = sink[0]
        g = self.graph
        if kind == "clbpin":
            coord, pin = sink[1], sink[2]
            targets = {}
            for idx, wire in enumerate(clb_input_candidates(g.arch, coord.x, coord.y)):
                nid = g.index.get(wire)
                if nid is not None:
                    targets[nid] = ("ipin", coord, pin, idx)
            if not targets:
                raise RoutingError(f"CLB pin {coord}/{pin} has no wires in scope")
            return targets
        if kind == "wire":
            nid = g.index.get(sink[1])
            if nid is None:
                raise RoutingError(f"sink wire {sink[1]} outside scope")
            return {nid: ("vpin",)}
        if kind == "pad":
            nid = g.index.get(sink[1])
            if nid is None:
                raise RoutingError(f"sink pad {sink[1]} not in graph")
            return {nid: ("padsink",)}
        raise ValueError(f"bad sink endpoint {sink!r}")

    # -- single-net routing ----------------------------------------------------------
    def _route_net(self, net: NetSpec) -> RoutedNet:
        g = self.graph
        routed = RoutedNet(name=net.name)
        seeds = self._source_seeds(net.source)
        cost_vec = self._net_cost_vector(net.name)
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
                cost = cost_vec[nid]
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
                    step = cost_vec[nxt]
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

    # -- full PathFinder loop ----------------------------------------------------------
    def route(
        self,
        nets: Sequence[NetSpec],
        instrument: Optional["CadInstrumentation"] = None,
    ) -> Dict[str, RoutedNet]:
        """Route all nets to legality; raises :class:`RoutingError` if the
        congestion never resolves within ``max_iterations``.

        ``instrument`` (a :class:`~repro.cad.instrument.CadInstrumentation`)
        receives one :class:`~repro.cad.instrument.CadRouteIteration` per
        rip-up round; it never influences net order or cost, so routes
        are identical with or without it.
        """
        names = [n.name for n in nets]
        if len(set(names)) != len(names):
            raise ValueError("duplicate net names")
        results: Dict[str, RoutedNet] = {}
        self.overuse_history = []
        for iteration in range(self.max_iterations):
            iter_t0 = instrument.now() if instrument is not None else 0.0
            ripped = 0
            for net in nets:
                old = results.get(net.name)
                if old is not None:
                    if iteration > 0 and not self._net_is_congested(old):
                        continue  # keep legal routes; rip up only offenders
                    for nid in old.nodes:
                        self.occupancy[nid] -= 1
                    ripped += 1
                results[net.name] = self._route_net(net)
            overused = np.flatnonzero(self.occupancy > 1)
            self.overuse_history.append(int(overused.size))
            if instrument is not None:
                instrument.route_iteration(
                    iteration=iteration, overused=int(overused.size),
                    ripped_up=ripped, pressure=self._pressure,
                    wall_seconds=instrument.now() - iter_t0,
                )
            if not overused.size:
                return results
            self.history[overused] += 1.0
            self._pressure *= 1.8
        raise RoutingError(
            f"congestion unresolved after {self.max_iterations} iterations "
            f"({int(np.count_nonzero(self.occupancy > 1))} overused wires; "
            f"final pressure {self._pressure:.4g}; overused per iteration "
            f"{self.overuse_history})"
        )

    def _net_is_congested(self, routed: RoutedNet) -> bool:
        return any(self.occupancy[nid] > 1 for nid in routed.nodes)
