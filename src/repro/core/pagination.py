"""Pagination — the paper's fixed-size demand loading (§2).

"Pagination partitions the function to be downloaded into smaller portions
of fixed size."  A *paged circuit* is larger than the physical device (or
than the share a task is given): its configuration is cut into pages, the
device into equal page *frames*, and pages are downloaded on demand with a
replacement policy choosing victims — virtual memory verbatim, with frame
writes instead of disk I/O.

One FPGA operation on a paged circuit is a sequence of *page accesses*
(``op.cycles`` accesses; each access runs ``cycles_per_access`` clock
cycles on the touched page).  The access pattern comes from
:func:`repro.core.policies.access_trace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from ..osim import FpgaOp, Task
from ..sim import Resource
from .base import VfpgaServiceBase
from .errors import CapacityError, UnknownConfigError
from ..telemetry import OpStart, PageAccess, PageFault, Placement
from .policies import ReplacementPolicy, access_trace, make_replacement
from .registry import ConfigRegistry

__all__ = ["PagedCircuit", "PagedVfpgaService", "make_paged_circuit"]


@dataclass(frozen=True)
class PagedCircuit:
    """A virtual circuit bigger than its physical allotment.

    Attributes
    ----------
    name:
        The name tasks use in :class:`~repro.osim.task.FpgaOp`.
    page_names:
        Registry entries, one per page, all with the same footprint.
    pattern / working_set / seed:
        Access-trace model (see :func:`repro.core.policies.access_trace`).
    """

    name: str
    page_names: tuple
    pattern: str = "looping"
    working_set: Optional[int] = None
    seed: int = 0

    @property
    def n_pages(self) -> int:
        return len(self.page_names)


def make_paged_circuit(
    registry: ConfigRegistry,
    name: str,
    n_pages: int,
    page_width: int,
    page_height: Optional[int] = None,
    state_bits_per_page: int = 0,
    critical_path: float = 20e-9,
    pattern: str = "looping",
    working_set: Optional[int] = None,
    seed: int = 0,
) -> PagedCircuit:
    """Register ``n_pages`` synthetic pages and describe the circuit."""
    page_height = registry.arch.height if page_height is None else page_height
    names = []
    for i in range(n_pages):
        entry = registry.register_synthetic(
            f"{name}.p{i}", page_width, page_height,
            n_state_bits=state_bits_per_page, critical_path=critical_path,
        )
        names.append(entry.name)
    return PagedCircuit(
        name=name, page_names=tuple(names), pattern=pattern,
        working_set=working_set, seed=seed,
    )


class PagedVfpgaService(VfpgaServiceBase):
    """Fixed page frames + demand paging.

    Parameters
    ----------
    registry:
        OS tables holding the page entries.
    circuits:
        The paged circuits tasks may invoke.
    frame_width:
        Columns per page frame; the device provides
        ``device_width // frame_width`` frames.
    replacement:
        Policy instance or name ("fifo", "lru", "mru", "clock", "random").
    replacement_seed:
        Seed for stochastic replacement policies (reproducible sweeps).
    cycles_per_access:
        Clock cycles of useful work per page access.
    """

    def __init__(
        self,
        registry: ConfigRegistry,
        circuits: List[PagedCircuit],
        frame_width: int,
        replacement: Union[str, ReplacementPolicy] = "lru",
        replacement_seed: int = 0,
        cycles_per_access: int = 256,
        **kw,
    ) -> None:
        super().__init__(registry, **kw)
        arch = self.fpga.arch
        if frame_width < 1 or frame_width > arch.width:
            raise ValueError(f"frame_width {frame_width} out of range")
        self.frame_width = frame_width
        self.n_frames = arch.width // frame_width
        if self.n_frames < 1:
            raise CapacityError("device narrower than one page frame")
        self.circuits: Dict[str, PagedCircuit] = {c.name: c for c in circuits}
        for circ in circuits:
            for page in circ.page_names:
                entry = registry.get(page)
                r = entry.bitstream.region
                if r.w > frame_width or r.h > arch.height:
                    raise CapacityError(
                        f"page {page!r} ({r.w}x{r.h}) exceeds the frame "
                        f"({frame_width}x{arch.height})"
                    )
        self.replacement = make_replacement(replacement,
                                            seed=replacement_seed)
        self.cycles_per_access = cycles_per_access
        #: frame index -> resident page name (None = empty).
        self.frame_holds: List[Optional[str]] = [None] * self.n_frames
        #: page name -> frame index (the page table).
        self.page_table: Dict[str, int] = {}
        self._pins: Dict[int, int] = {}  # frame -> pin count
        self._frame_waiters: List = []
        self._op_counter = 0

    def attach(self, kernel) -> None:
        super().attach(kernel)
        self._fault_lock = Resource(self.sim)

    # -- task boundary --------------------------------------------------------
    def register_task(self, task: Task) -> None:
        for name in task.configs:
            if name not in self.circuits and name not in self.registry:
                raise UnknownConfigError(name)

    # -- frame management -------------------------------------------------------
    def _frame_anchor(self, frame: int) -> tuple:
        return (frame * self.frame_width, 0)

    def _pin(self, frame: int) -> None:
        self._pins[frame] = self._pins.get(frame, 0) + 1

    def _unpin(self, frame: int) -> None:
        self._pins[frame] -= 1
        if self._pins[frame] == 0:
            del self._pins[frame]
            waiters, self._frame_waiters = self._frame_waiters, []
            for ev in waiters:
                if not ev.triggered:
                    ev.succeed()

    # -- demand-fault pipeline hooks (see VfpgaServiceBase.ensure_resident) --
    def _resident_lookup(self, task, page):
        return self.page_table.get(page)

    def _note_hit(self, task, page, frame) -> None:
        self._pin(frame)
        self.replacement.on_access(page)

    def _publish_fault(self, task, page) -> None:
        self._publish(PageFault, task, unit=page)

    def _place_unit(self, task, page):
        """One free frame: the first empty one, else a single eviction
        (the mapping is claimed atomically before the unload I/O)."""
        empty = [i for i, p in enumerate(self.frame_holds) if p is None]
        if empty:
            return empty[0]
        unpinned = [
            p for i, p in enumerate(self.frame_holds)
            if p is not None and i not in self._pins
        ]
        if not unpinned:
            return None
        victim = self.replacement.victim(unpinned)
        frame = self.page_table[victim]
        del self.page_table[victim]
        self.frame_holds[frame] = None
        self.replacement.on_remove(victim)
        yield from self._charge_unload(task, victim)
        return frame

    def _load_unit(self, task, page, frame):
        # Claim before yielding so concurrent faults pick other frames.
        self.frame_holds[frame] = page
        self.page_table[page] = frame
        self._pin(frame)
        entry = self.registry.get(page)
        self._publish(
            Placement, task, strategy="fixed-frame", handle=page,
            anchor=self._frame_anchor(frame),
            candidates=self.frame_holds.count(None) + 1,
            fragmentation=0.0,
        )
        yield from self._charge_load(
            task, entry, self._frame_anchor(frame), handle=page
        )
        self.replacement.on_insert(page)
        return frame

    def _wait_for_space(self, task, page):
        ev = self.sim.event()
        self._frame_waiters.append(ev)
        yield ev

    # -- execution ------------------------------------------------------------------
    def execute(self, task: Task, op: FpgaOp):
        circ = self.circuits.get(op.config)
        if circ is None:
            raise UnknownConfigError(op.config)
        self._op_counter += 1
        trace = access_trace(
            circ.n_pages,
            op.cycles,
            pattern=circ.pattern,
            working_set=circ.working_set,
            seed=circ.seed * 1_000_003 + self._op_counter,
        )
        t0 = self.sim.now
        self._publish(OpStart, task, config=op.config)
        first_io = True
        for index in trace:
            page = circ.page_names[index]
            self._publish(PageAccess, task, unit=page)
            frame = yield from self.ensure_resident(task, page)
            try:
                entry = self.registry.get(page)
                if first_io:
                    self._charge_wait(task, t0)
                    yield from self._charge_io(task, entry, op)
                    first_io = False
                yield from self._charge_exec(
                    task, entry,
                    self.cycles_per_access * entry.critical_path,
                    handle=page,
                )
            finally:
                self._unpin(frame)
        task.current_config = op.config
