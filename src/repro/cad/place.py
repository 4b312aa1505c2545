"""Placement: assign each BLE to a CLB site inside the target region.

Two effort levels:

* ``greedy`` — connectivity-ordered constructive placement only (fast, for
  tests and small circuits);
* ``sa`` — the greedy start refined by seeded simulated annealing over
  half-perimeter wirelength (HPWL), with swap/relocate moves.  This is the
  default and what experiment E13 ablates against ``greedy``.

The annealer keeps numpy array state: BLE→site coordinates live in one
int array, nets are flattened terminal-index slices, and a move's
affected nets are re-priced with two ``reduceat`` reductions over a
precomputed per-BLE (or per-pair) slice table.  HPWL is integer-valued,
so every delta is exact and the RNG stream (``random()`` is drawn only
when ``delta > 0``) depends on the seed and the move outcomes alone.
tests/cad/reference.py keeps the original per-net python ``max``/``min``
annealer as the oracle it is pinned bit-identical to.

Placement is always *region-relative feasible*: every site lies inside the
region, so the result translates with the region (relocatable bitstreams).
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..device import Coord, Rect
from .pack import PackedDesign, nets_of

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cost
    from .instrument import CadInstrumentation

__all__ = ["Placement", "place", "PlacementError", "hpwl"]


class PlacementError(Exception):
    """The design does not fit the region."""


@dataclass
class Placement:
    """BLE → CLB site assignment for one design in one region."""

    design: PackedDesign
    region: Rect
    coords: Dict[str, Coord] = field(default_factory=dict)

    def validate(self) -> None:
        seen: Dict[Coord, str] = {}
        for name, c in self.coords.items():
            if not self.region.contains(c):
                raise PlacementError(f"BLE {name!r} at {c} outside {self.region}")
            if c in seen:
                raise PlacementError(f"site {c} double-booked: {seen[c]!r}, {name!r}")
            seen[c] = name
        missing = {b.name for b in self.design.bles} - set(self.coords)
        if missing:
            raise PlacementError(f"unplaced BLEs: {sorted(missing)[:5]}")

    def wirelength(self) -> float:
        return hpwl(self.design, self.coords)


#: Instance-memo attribute for :func:`_net_terminals` (same discipline as
#: the bitstream content digest in :mod:`repro.core.bitcache`).
_NET_TERMINALS_ATTR = "_repro_net_terminals"


def _net_terminals(design: PackedDesign) -> List[List[str]]:
    """BLE-name terminal lists per net (primary ports excluded — their
    position is a boundary decided later by pin assignment).

    Memoised per design instance: ``hpwl`` is called once per
    :meth:`Placement.wirelength` and both placement effort levels walk
    the same extraction, while a :class:`PackedDesign` is immutable in
    practice after :func:`~repro.cad.pack.pack` returns.  Callers must
    treat the returned lists as read-only.
    """
    cached = getattr(design, _NET_TERMINALS_ATTR, None)
    if cached is not None:
        return cached
    ble_names = {b.name for b in design.bles}
    nets: List[List[str]] = []
    for src, sinks in nets_of(design).items():
        terms = [name for name, _pin in sinks]
        if src in ble_names:
            terms.append(src)
        terms = list(dict.fromkeys(terms))
        if len(terms) >= 2:
            nets.append(terms)
    setattr(design, _NET_TERMINALS_ATTR, nets)
    return nets


def hpwl(design: PackedDesign, coords: Dict[str, Coord]) -> float:
    """Total half-perimeter wirelength over multi-terminal nets."""
    total = 0.0
    for terms in _net_terminals(design):
        xs = [coords[t].x for t in terms]
        ys = [coords[t].y for t in terms]
        total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total


def place(
    design: PackedDesign,
    region: Rect,
    seed: int = 0,
    effort: str = "sa",
    instrument: Optional["CadInstrumentation"] = None,
) -> Placement:
    """Place ``design`` into ``region``.

    ``instrument`` (a :class:`~repro.cad.instrument.CadInstrumentation`)
    receives one :class:`~repro.cad.instrument.CadAnnealStep` per SA
    temperature step; it is never consulted for decisions, so results
    are bit-identical with or without it.

    Raises :class:`PlacementError` when the design needs more CLBs than
    the region offers — the paper's "circuit too large" admission failure.
    """
    if effort not in ("greedy", "sa"):
        raise ValueError(f"unknown effort {effort!r}")
    n = design.n_clbs
    if n > region.area:
        raise PlacementError(
            f"{design.name!r} needs {n} CLBs but region {region} has {region.area}"
        )
    sites = list(region.coords())
    # Constructive start: BFS over connectivity from the most-connected BLE
    # so related logic lands on nearby (column-major-adjacent) sites.
    order = _connectivity_order(design)
    coords = {name: sites[i] for i, name in enumerate(order)}
    placement = Placement(design=design, region=region, coords=coords)
    placement.validate()
    if effort == "sa" and n >= 2:
        _anneal(placement, sites, seed, instrument)
        placement.validate()
    return placement


def _connectivity_order(design: PackedDesign) -> List[str]:
    """BFS order over the BLE adjacency graph, highest-degree seed first."""
    adj: Dict[str, List[str]] = {b.name: [] for b in design.bles}
    for terms in _net_terminals(design):
        for a in terms:
            for b in terms:
                if a != b:
                    adj[a].append(b)
    order: List[str] = []
    visited = set()
    remaining = sorted(adj, key=lambda n: -len(adj[n]))
    for seed_name in remaining:
        if seed_name in visited:
            continue
        queue = deque([seed_name])
        visited.add(seed_name)
        while queue:
            cur = queue.popleft()
            order.append(cur)
            for nxt in adj[cur]:
                if nxt not in visited:
                    visited.add(nxt)
                    queue.append(nxt)
    return order


#: One precomputed move-pricing table: ``flat2`` indexes the combined
#: x|y coordinate array for every terminal of every affected net (the x
#: block first, then the y block offset by ``n``), ``starts2`` are the
#: matching ``reduceat`` segment boundaries, ``netids`` the affected net
#: indices and ``k`` their count.
_MoveTable = Tuple[np.ndarray, np.ndarray, np.ndarray, int]


def _anneal(
    placement: Placement,
    sites: List[Coord],
    seed: int,
    instrument: Optional["CadInstrumentation"] = None,
) -> None:
    """In-place simulated-annealing refinement of ``placement.coords``.

    Array state: BLE coordinates live in one ``(2n,)`` int64 array
    (x block then y block), nets in a flattened terminal-index CSR.
    A move re-prices exactly its affected nets with one fancy index and
    two ``reduceat`` reductions over a per-BLE (relocate) or per-pair
    (swap, built lazily) slice table; the untouched nets' spans are
    served from a per-net span cache, so ``before`` costs nothing.

    Exactness: HPWL spans are integers, so every delta is an exact int,
    and the acceptance draw ``rng.random()`` happens only when
    ``delta > 0`` — the RNG stream, the accepted-move sequence, the
    running cost and the final coordinates match the per-net python
    reference bit for bit.  The ``instrument`` hook observes each
    temperature step after its moves are decided, keeping instrumented
    and plain runs bit-identical.
    """
    rng = random.Random(seed)
    design = placement.design
    coords = placement.coords
    nets = _net_terminals(design)
    names = [b.name for b in design.bles]
    n = len(names)
    idx = {nm: i for i, nm in enumerate(names)}

    # Net CSR: flattened terminal indices + per-net extents.
    term_flat = np.array(
        [idx[t] for terms in nets for t in terms], dtype=np.int64
    )
    net_ptr = np.zeros(len(nets) + 1, dtype=np.int64)
    for i, terms in enumerate(nets):
        net_ptr[i + 1] = net_ptr[i] + len(terms)

    # Incidence: BLE index -> net indices touching it.
    nets_of_ble: List[List[int]] = [[] for _ in range(n)]
    for i, terms in enumerate(nets):
        for t in terms:
            nets_of_ble[idx[t]].append(i)

    def make_table(netids: List[int]) -> _MoveTable:
        parts = [term_flat[net_ptr[i]:net_ptr[i + 1]] for i in netids]
        flat = np.concatenate(parts) if parts else np.zeros(0, np.int64)
        k = len(netids)
        starts = np.zeros(k, dtype=np.int64)
        off = 0
        for j, i in enumerate(netids):
            starts[j] = off
            off += int(net_ptr[i + 1] - net_ptr[i])
        flat2 = np.concatenate([flat, flat + n])
        starts2 = np.concatenate([starts, starts + len(flat)])
        return flat2, starts2, np.asarray(netids, dtype=np.int64), k

    ble_tab: List[_MoveTable] = [make_table(l) for l in nets_of_ble]
    pair_tab: Dict[Tuple[int, int], _MoveTable] = {}

    # Combined coordinate array: CXY[:n] = x, CXY[n:] = y.
    cxy = np.empty(2 * n, dtype=np.int64)
    for i in range(n):
        c = coords[names[i]]
        cxy[i] = c.x
        cxy[n + i] = c.y
    site_owner: Dict[Coord, int] = {
        coords[names[i]]: i for i in range(n)
    }

    # Per-net span cache (x extent + y extent, exact ints).
    xs = cxy[term_flat]
    ys = cxy[term_flat + n]
    seg = net_ptr[:-1]
    netspans = (
        np.maximum.reduceat(xs, seg) - np.minimum.reduceat(xs, seg)
        + np.maximum.reduceat(ys, seg) - np.minimum.reduceat(ys, seg)
    ) if len(nets) else np.zeros(0, np.int64)
    cost = int(netspans.sum())
    temp = max(1.0, cost * 0.2)
    moves_per_temp = max(16, 8 * n)
    step = 0
    maxr = np.maximum.reduceat
    minr = np.minimum.reduceat
    while temp > 0.05:
        step_t0 = instrument.now() if instrument is not None else 0.0
        accepted = 0
        evaluated = 0
        for _ in range(moves_per_temp):
            a = rng.choice(names)
            target = rng.choice(sites)
            ai = idx[a]
            cax = cxy[ai]
            cay = cxy[n + ai]
            if target[0] == cax and target[1] == cay:
                continue
            evaluated += 1
            bi = site_owner.get(target)
            if bi is None:
                flat2, starts2, netids, k = ble_tab[ai]
            else:
                key = (ai, bi) if ai <= bi else (bi, ai)
                tab = pair_tab.get(key)
                if tab is None:
                    # A python set union, not np.union1d: same sorted
                    # ids, without numpy's first-use cost (~1.7 MB RSS).
                    tab = make_table(sorted(
                        set(nets_of_ble[ai]).union(nets_of_ble[bi])))
                    pair_tab[key] = tab
                flat2, starts2, netids, k = tab
            if k:
                before = int(netspans[netids].sum())
                cxy[ai] = target[0]
                cxy[n + ai] = target[1]
                if bi is not None:
                    cxy[bi] = cax
                    cxy[n + bi] = cay
                v = cxy[flat2]
                s = maxr(v, starts2) - minr(v, starts2)
                spans = s[:k] + s[k:]
                delta = int(spans.sum()) - before
            else:  # isolated BLE(s): no net touched, free move
                cxy[ai] = target[0]
                cxy[n + ai] = target[1]
                if bi is not None:
                    cxy[bi] = cax
                    cxy[n + bi] = cay
                spans = netspans[:0]
                delta = 0
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                cost += delta
                accepted += 1
                netspans[netids] = spans
                old = Coord(int(cax), int(cay))
                site_owner[target] = ai
                if bi is not None:
                    site_owner[old] = bi
                else:
                    del site_owner[old]
            else:  # revert
                cxy[ai] = cax
                cxy[n + ai] = cay
                if bi is not None:
                    cxy[bi] = target[0]
                    cxy[n + bi] = target[1]
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
    for i, nm in enumerate(names):
        coords[nm] = Coord(int(cxy[i]), int(cxy[n + i]))
