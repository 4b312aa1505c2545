"""Segmentation — the paper's variable-size demand loading (§2).

"Segmentation decomposes the function to be downloaded in the FPGA into
smaller parts computing a self-contained sub-function and, as a
consequence, having variable size."

Unlike pages, segments have the sizes their logic dictates, so placement
uses the variable column allocator rather than fixed frames — trading the
internal fragmentation of pagination for external fragmentation and
placement work, which is precisely the axis experiment E8 sweeps.

Two ways to obtain segments:

* :func:`segment_netlist` — genuinely cut a netlist into self-contained
  sub-functions along its topological order (cut nets become segment
  ports), compile each, and register the results;
* :func:`make_segmented_circuit` — synthetic segments for scale runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..netlist import CellKind, Netlist
from ..osim import FpgaOp, Task
from ..sim import Resource
from .base import VfpgaServiceBase
from .errors import CapacityError, UnknownConfigError
from ..telemetry import OpStart, PageAccess, Placement, SegmentFault
from .placement import PlacementStrategy
from .policies import ReplacementPolicy, access_trace, make_replacement
from .partitioning import ColumnAllocator
from .registry import ConfigRegistry

__all__ = [
    "SegmentedCircuit",
    "SegmentedVfpgaService",
    "segment_netlist",
    "make_segmented_circuit",
]


@dataclass(frozen=True)
class SegmentedCircuit:
    """A virtual circuit decomposed into variable-size segments."""

    name: str
    segment_names: tuple
    pattern: str = "looping"
    working_set: Optional[int] = None
    seed: int = 0

    @property
    def n_segments(self) -> int:
        return len(self.segment_names)


def segment_netlist(netlist: Netlist, n_segments: int) -> List[Netlist]:
    """Cut ``netlist`` into ``n_segments`` self-contained sub-functions.

    Cells are sliced along the topological order so every segment's
    internal fanin comes from earlier segments; cut nets become the
    segment's ports (see :meth:`repro.netlist.Netlist.subcircuit`).
    """
    if n_segments < 1:
        raise ValueError("n_segments must be >= 1")
    body = [
        c.name
        for c in netlist.topo_order()
        if c.kind not in (CellKind.INPUT, CellKind.OUTPUT)
    ]
    if len(body) < n_segments:
        raise ValueError(
            f"{netlist.name!r} has {len(body)} cells, cannot make "
            f"{n_segments} segments"
        )
    per = (len(body) + n_segments - 1) // n_segments
    segments = []
    for i in range(n_segments):
        chunk = body[i * per : (i + 1) * per]
        if not chunk:
            break
        keep = set(chunk)
        # Primary outputs driven from inside the chunk belong to it too.
        for out in netlist.primary_outputs:
            if out.fanin[0] in keep:
                keep.add(out.name)
        segments.append(
            netlist.subcircuit(sorted(keep), f"{netlist.name}.seg{i}")
        )
    return segments


def make_segmented_circuit(
    registry: ConfigRegistry,
    name: str,
    widths: Sequence[int],
    height: Optional[int] = None,
    state_bits_per_segment: int = 0,
    critical_path: float = 20e-9,
    pattern: str = "looping",
    working_set: Optional[int] = None,
    seed: int = 0,
) -> SegmentedCircuit:
    """Register synthetic segments of the given column ``widths``."""
    height = registry.arch.height if height is None else height
    names = []
    for i, w in enumerate(widths):
        entry = registry.register_synthetic(
            f"{name}.s{i}", w, height,
            n_state_bits=state_bits_per_segment, critical_path=critical_path,
        )
        names.append(entry.name)
    return SegmentedCircuit(
        name=name, segment_names=tuple(names), pattern=pattern,
        working_set=working_set, seed=seed,
    )


class SegmentedVfpgaService(VfpgaServiceBase):
    """Demand loading of variable-size segments over a column allocator.

    ``op.cycles`` counts segment accesses; each access computes
    ``cycles_per_access`` cycles on the touched segment.  When a segment
    does not fit, unpinned resident segments are evicted by the
    replacement policy until it does (external fragmentation shows up as
    extra evictions and is reported through the allocator's
    ``fragmentation`` gauge).
    """

    def __init__(
        self,
        registry: ConfigRegistry,
        circuits: List[SegmentedCircuit],
        replacement: Union[str, ReplacementPolicy] = "lru",
        replacement_seed: int = 0,
        placement: Union[str, PlacementStrategy] = "column-first-fit",
        cycles_per_access: int = 256,
        **kw,
    ) -> None:
        super().__init__(registry, **kw)
        arch = self.fpga.arch
        self.circuits: Dict[str, SegmentedCircuit] = {c.name: c for c in circuits}
        for circ in circuits:
            for seg in circ.segment_names:
                entry = registry.get(seg)
                r = entry.bitstream.region
                if r.w > arch.width or r.h > arch.height:
                    raise CapacityError(
                        f"segment {seg!r} ({r.w}x{r.h}) exceeds the device"
                    )
        self.replacement = make_replacement(replacement,
                                            seed=replacement_seed)
        self.cycles_per_access = cycles_per_access
        self.allocator = ColumnAllocator(arch.width, placement=placement)
        #: segment name -> anchor x (the segment table).
        self.segment_table: Dict[str, int] = {}
        self._pins: Dict[str, int] = {}
        self._waiters: List = []
        self._op_counter = 0

    def attach(self, kernel) -> None:
        super().attach(kernel)
        self._fault_lock = Resource(self.sim)

    def register_task(self, task: Task) -> None:
        for name in task.configs:
            if name not in self.circuits and name not in self.registry:
                raise UnknownConfigError(name)

    # ------------------------------------------------------------------
    def _pin(self, seg: str) -> None:
        self._pins[seg] = self._pins.get(seg, 0) + 1

    def _unpin(self, seg: str) -> None:
        self._pins[seg] -= 1
        if self._pins[seg] == 0:
            del self._pins[seg]
            waiters, self._waiters = self._waiters, []
            for ev in waiters:
                if not ev.triggered:
                    ev.succeed()

    # -- demand-fault pipeline hooks (see VfpgaServiceBase.ensure_resident) --
    def _resident_lookup(self, task, seg):
        return self.segment_table.get(seg)

    def _note_hit(self, task, seg, anchor) -> None:
        self._pin(seg)
        self.replacement.on_access(seg)

    def _publish_fault(self, task, seg) -> None:
        self._publish(SegmentFault, task, unit=seg)

    def _place_unit(self, task, seg):
        """A column span for the segment, evicting unpinned residents by
        replacement-policy order until the strategy finds a fit."""
        r = self.registry.get(seg).bitstream.region
        while True:
            anchor = self.allocator.allocate(r.w, r.h)
            if anchor is not None:
                return anchor[0]
            unpinned = [
                s for s in self.segment_table if s not in self._pins
            ]
            if not unpinned:
                return None
            victim = self.replacement.victim(unpinned)
            vx = self.segment_table.pop(victim)
            self.replacement.on_remove(victim)
            vr = self.registry.get(victim).bitstream.region
            yield from self._charge_unload(task, victim)
            self.allocator.release((vx, 0), vr.w, vr.h)

    def _undo_place(self, task, seg, x) -> None:
        r = self.registry.get(seg).bitstream.region
        self.allocator.release((x, 0), r.w, r.h)

    def _load_unit(self, task, seg, x):
        self.segment_table[seg] = x
        self._pin(seg)
        entry = self.registry.get(seg)
        proposal = self.allocator.last_proposal
        self._publish(
            Placement, task, strategy=self.allocator.placement.name,
            handle=seg, anchor=(x, 0),
            candidates=proposal.candidates if proposal is not None else 1,
            fragmentation=self.allocator.fragmentation,
        )
        yield from self._charge_load(task, entry, (x, 0), handle=seg)
        self.replacement.on_insert(seg)
        return x

    def _wait_for_space(self, task, seg):
        ev = self.sim.event()
        self._waiters.append(ev)
        yield ev

    def execute(self, task: Task, op: FpgaOp):
        circ = self.circuits.get(op.config)
        if circ is None:
            raise UnknownConfigError(op.config)
        self._op_counter += 1
        trace = access_trace(
            circ.n_segments,
            op.cycles,
            pattern=circ.pattern,
            working_set=circ.working_set,
            seed=circ.seed * 1_000_003 + self._op_counter,
        )
        t0 = self.sim.now
        self._publish(OpStart, task, config=op.config)
        first_io = True
        for index in trace:
            seg = circ.segment_names[index]
            self._publish(PageAccess, task, unit=seg)
            yield from self.ensure_resident(task, seg)
            try:
                entry = self.registry.get(seg)
                if first_io:
                    self._charge_wait(task, t0)
                    yield from self._charge_io(task, entry, op)
                    first_io = False
                yield from self._charge_exec(
                    task, entry,
                    self.cycles_per_access * entry.critical_path,
                    handle=seg,
                )
            finally:
                self._unpin(seg)
        task.current_config = op.config
