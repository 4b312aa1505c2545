"""Segmentation — the paper's variable-size demand loading (§2).

"Segmentation decomposes the function to be downloaded in the FPGA into
smaller parts computing a self-contained sub-function and, as a
consequence, having variable size."

Pagination (:mod:`repro.core.pagination`) is the same mechanism over
fixed-size parts, so both run on the one demand-loading service defined
here; they differ only in the space the parts go in and the fault event
they publish.  Unlike pages, segments have the sizes their logic dictates, so placement uses
the variable column allocator rather than fixed frames — trading the
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
from typing import Any, Dict, List, Optional, Sequence, Type, Union

from ..netlist import CellKind, Netlist
from ..osim import FpgaOp, Task
from ..sim import Resource
from .base import VfpgaServiceBase
from .errors import UnknownConfigError
from ..telemetry import OpStart, PageAccess, Placement, SegmentFault, TelemetryEvent
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
    def units(self) -> tuple:
        return self.segment_names


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


class _DemandLoadingService(VfpgaServiceBase):
    """Demand loading of a virtual circuit's parts — pages or segments.

    A circuit names its parts (``circuit.units``, registry entries).
    ``op.cycles`` counts part accesses; each access computes
    ``cycles_per_access`` cycles on the touched part.  A part that is not
    resident faults: :attr:`fault_event` is published and unpinned
    residents are evicted, the replacement policy choosing among them in
    anchor order, until :attr:`allocator` finds the part a spot.

    A subclass names its fault event and builds its :attr:`allocator`,
    which speaks the column allocator's protocol: ``allocate(w, h)`` and
    ``release(anchor, w, h)``, plus ``placement.name``, ``last_proposal``
    and ``fragmentation`` for the ``Placement`` event.
    """

    #: The typed fault event published on every miss.
    fault_event: Type[TelemetryEvent]
    #: Where the parts go: page frames or a :class:`ColumnAllocator`.
    allocator: Any

    def __init__(
        self,
        registry: ConfigRegistry,
        circuits: Sequence,
        replacement: Union[str, ReplacementPolicy],
        replacement_seed: int,
        cycles_per_access: int,
        **kw,
    ) -> None:
        super().__init__(registry, **kw)
        self.circuits = {c.name: c for c in circuits}
        self.replacement = make_replacement(replacement,
                                            seed=replacement_seed)
        self.cycles_per_access = cycles_per_access
        #: unit name -> anchor x (the page or segment table).
        self.unit_table: Dict[str, int] = {}
        self._pins: Dict[str, int] = {}
        self._waiters: List = []
        self._op_counter = 0

    def attach(self, kernel) -> None:
        super().attach(kernel)
        self._fault_lock = Resource(self.sim)

    def register_task(self, task: Task) -> None:
        # Tasks run circuits; a part's registry name is not one.
        for name in task.configs:
            if name not in self.circuits:
                raise UnknownConfigError(name)

    # ------------------------------------------------------------------
    def _pin(self, unit: str) -> None:
        self._pins[unit] = self._pins.get(unit, 0) + 1

    def _unpin(self, unit: str) -> None:
        self._pins[unit] -= 1
        if self._pins[unit] == 0:
            del self._pins[unit]
            waiters, self._waiters = self._waiters, []
            for ev in waiters:
                if not ev.triggered:
                    ev.succeed()

    # -- demand-fault pipeline hooks (see VfpgaServiceBase.ensure_resident) --
    def _resident_lookup(self, task, unit):
        return self.unit_table.get(unit)

    def _note_hit(self, task, unit, x) -> None:
        self._pin(unit)
        self.replacement.on_access(unit)

    def _publish_fault(self, task, unit) -> None:
        self._publish(self.fault_event, task, unit=unit)

    def _place_unit(self, task, unit):
        """A spot for the unit, evicting unpinned residents by
        replacement-policy order until the allocator finds a fit."""
        r = self.registry.get(unit).bitstream.region
        while True:
            anchor = self.allocator.allocate(r.w, r.h)
            if anchor is not None:
                return anchor[0]
            unpinned = sorted(
                (u for u in self.unit_table if u not in self._pins),
                key=self.unit_table.__getitem__,
            )
            if not unpinned:
                return None
            victim = self.replacement.victim(unpinned)
            vx = self.unit_table.pop(victim)
            self.replacement.on_remove(victim)
            vr = self.registry.get(victim).bitstream.region
            yield from self._charge_unload(task, victim)
            self.allocator.release((vx, 0), vr.w, vr.h)

    def _undo_place(self, task, unit, x) -> None:
        r = self.registry.get(unit).bitstream.region
        self.allocator.release((x, 0), r.w, r.h)

    def _load_unit(self, task, unit, x):
        self.unit_table[unit] = x
        self._pin(unit)
        entry = self.registry.get(unit)
        proposal = self.allocator.last_proposal
        self._publish(
            Placement, task, strategy=self.allocator.placement.name,
            handle=unit, anchor=(x, 0),
            candidates=proposal.candidates if proposal is not None else 1,
            fragmentation=self.allocator.fragmentation,
        )
        yield from self._charge_load(task, entry, (x, 0), handle=unit)
        self.replacement.on_insert(unit)
        return x

    def _wait_for_space(self, task, unit):
        ev = self.sim.event()
        self._waiters.append(ev)
        yield ev

    def execute(self, task: Task, op: FpgaOp):
        circ = self.circuits.get(op.config)
        if circ is None:
            raise UnknownConfigError(op.config)
        self._op_counter += 1
        trace = access_trace(
            len(circ.units),
            op.cycles,
            pattern=circ.pattern,
            working_set=circ.working_set,
            seed=circ.seed * 1_000_003 + self._op_counter,
        )
        t0 = self.sim.now
        self._publish(OpStart, task, config=op.config)
        first_io = True
        for index in trace:
            unit = circ.units[index]
            self._publish(PageAccess, task, unit=unit)
            yield from self.ensure_resident(task, unit)
            try:
                entry = self.registry.get(unit)
                if first_io:
                    self._charge_wait(task, t0)
                    yield from self._charge_io(task, entry, op)
                    first_io = False
                yield from self._charge_exec(
                    task, entry,
                    self.cycles_per_access * entry.critical_path,
                    handle=unit,
                )
            finally:
                self._unpin(unit)
        task.current_config = op.config


class SegmentedVfpgaService(_DemandLoadingService):
    """Demand loading of variable-size segments over a column allocator.

    When a segment does not fit, unpinned resident segments are evicted
    by the replacement policy until it does (external fragmentation
    shows up as extra evictions and is reported through the allocator's
    ``fragmentation`` gauge).
    """

    fault_event = SegmentFault

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
        super().__init__(registry, circuits, replacement, replacement_seed,
                         cycles_per_access, **kw)
        self.allocator = ColumnAllocator(self.fpga.arch.width,
                                         placement=placement)
