"""FPGA partitioning — the paper's second mechanism (§4).

The CLB array is divided into disjoint partitions so several circuits are
resident simultaneously, cutting download traffic and restoring task
parallelism.  Both flavours of the paper are implemented:

* **fixed partitions** (:class:`FixedPartitionService`): created at boot
  from a partition table ("taking the corresponding sizes from system
  configuration file"); never change until "reboot".
* **variable partitions** (:class:`VariablePartitionService`): carved on
  demand by splitting free space, coalesced when freed, with optional
  garbage collection — evicting idle cached circuits and/or *compacting*
  (relocating resident circuits, charged as real unload+reload plus state
  movement for sequential circuits), exactly the §4 trade-off.

Partitions are full-height column spans (``Rect(x, 0, w, H)``), matching
both the frame-per-column configuration hardware of the era and the
paper's one-dimensional split/merge narrative; ``layout="rect"`` swaps
in the 2-D :class:`~repro.core.rect_alloc.RectAllocator`.  Both are
built with their placement strategy and share one protocol, so the
service calls its allocator directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from ..device import Rect
from ..osim import FpgaOp, Task
from ..sim import Resource
from ..telemetry import (
    Compact,
    Hit,
    Miss,
    OpStart,
    Placement,
    Relocate,
    Suspend,
)
from .base import VfpgaServiceBase
from .errors import CapacityError, VfpgaError
from .placement import (
    Anchor,
    ColumnFirstFit,
    PlacementRequest,
    PlacementStrategy,
    Proposal,
    make_placement,
)
from .policies import ReplacementPolicy, make_replacement
from .rect_alloc import RectAllocator
from .registry import ConfigEntry, ConfigRegistry

__all__ = [
    "ColumnAllocator",
    "FixedPartitionService",
    "VariablePartitionService",
]


class ColumnAllocator:
    """Strategy-driven allocation of full-height column spans.

    Spans are ``(x, w)`` pairs over ``0 .. width``.  With
    ``coalesce=True`` adjacent free spans merge on release; with
    ``coalesce=False`` the split boundaries persist — released partitions
    stay distinct idle partitions, exactly the paper's variable
    partitioning, and :meth:`merge_free` is the garbage-collection step
    that fuses them on demand (§4).

    ``placement`` only *chooses* among the free spans; the split
    bookkeeping lives here.  Heights are accepted for protocol parity
    with :class:`~repro.core.rect_alloc.RectAllocator` and ignored.
    """

    def __init__(
        self,
        width: int,
        coalesce: bool = True,
        placement: Union[str, PlacementStrategy] = "column-first-fit",
    ) -> None:
        if width < 1:
            raise ValueError("width must be >= 1")
        self.width = width
        self.coalesce = coalesce
        self.placement = make_placement(placement)
        self.free_spans: List[Tuple[int, int]] = [(0, width)]
        #: The most recent successful placement decision (telemetry).
        self.last_proposal: Optional[Proposal] = None
        #: A release may have left adjacent free spans; only a release
        #: can, since splitting a span never makes a new neighbour.
        self._unmerged = False

    # -- queries ------------------------------------------------------------
    @property
    def total_free(self) -> int:
        return sum(w for _x, w in self.free_spans)

    @property
    def largest_free(self) -> int:
        return max((w for _x, w in self.free_spans), default=0)

    @property
    def fragmentation(self) -> float:
        """1 − largest/total free: 0 = one hole, → 1 = badly shattered."""
        total = self.total_free
        return 0.0 if total == 0 else 1.0 - self.largest_free / total

    def has_room(self, w: int, h: int) -> bool:
        """Whether the free columns add up to ``w``, split or not."""
        return self.total_free >= w

    # -- allocation ------------------------------------------------------------
    def allocate(
        self,
        w: int,
        h: int,
        placement: Optional[PlacementStrategy] = None,
    ) -> Optional[Anchor]:
        """Reserve ``w`` columns; returns the anchor ``(x, 0)`` or None.

        ``placement`` overrides the configured strategy for this call
        (compaction slides spans first-fit whatever the configured rule).
        """
        if w < 1:
            raise ValueError("width must be >= 1")
        # Every strategy proposes only a span at least ``w`` wide, so a
        # request that no span fits fails before one is asked.
        for _x, fw in self.free_spans:
            if fw >= w:
                break
        else:
            self.last_proposal = None
            return None
        strategy = self.placement if placement is None else placement
        proposal = strategy.propose(
            PlacementRequest(
                w=w, h=1, bounds_w=self.width, bounds_h=1,
                free_spans=tuple(self.free_spans),
            )
        )
        if proposal is None:
            self.last_proposal = None
            return None
        x = proposal.anchor[0]
        fw = next(fw for fx, fw in self.free_spans if fx == x)
        self.free_spans.remove((x, fw))
        if fw > w:
            self.free_spans.append((x + w, fw - w))
            self.free_spans.sort()
        self.last_proposal = proposal
        return (x, 0)

    def reserve(self, x: int, w: int) -> None:
        """Claim a specific span (used when restoring a known layout)."""
        for fx, fw in self.free_spans:
            if fx <= x and x + w <= fx + fw:
                self.free_spans.remove((fx, fw))
                if fx < x:
                    self.free_spans.append((fx, x - fx))
                if x + w < fx + fw:
                    self.free_spans.append((x + w, fx + fw - (x + w)))
                self.free_spans.sort()
                return
        raise VfpgaError(f"span ({x},{w}) is not free")

    def release(self, anchor: Anchor, w: int, h: int) -> None:
        """Return a span (coalescing with neighbours when enabled)."""
        x = anchor[0]
        for fx, fw in self.free_spans:
            if x < fx + fw and fx < x + w:
                raise VfpgaError(f"double free of span ({x},{w})")
        self.free_spans.append((x, w))
        self.free_spans.sort()
        self._unmerged = True
        if self.coalesce:
            self.merge_free()

    def merge_free(self) -> int:
        """Fuse adjacent free spans; returns how many merges happened.

        This is the bookkeeping half of the paper's garbage collection:
        merging *idle* partitions into "continuous large ones" (§4).
        """
        if not self._unmerged:
            return 0
        self._unmerged = False
        merged: List[Tuple[int, int]] = []
        n = 0
        for span in sorted(self.free_spans):
            if merged and merged[-1][0] + merged[-1][1] == span[0]:
                merged[-1] = (merged[-1][0], merged[-1][1] + span[1])
                n += 1
            else:
                merged.append(span)
        self.free_spans = merged
        return n


@dataclass
class _Partition:
    """One fixed partition's bookkeeping."""

    index: int
    rect: Rect
    lock: Resource
    resident: Optional[str] = None


def choose_slot(fitting: Sequence, name: str,
                replacement: ReplacementPolicy):
    """The slot rule of fixed partitions and overlay slots, over the
    ``fitting`` ones: affinity, then an idle empty slot, then the
    ``replacement`` victim among idle slots, then the shortest queue."""
    for s in fitting:
        if s.resident == name:
            return s
    idle = [s for s in fitting
            if s.lock.count == 0 and s.lock.queue_length == 0]
    if idle:
        for s in idle:
            if s.resident is None:
                return s
        victim = replacement.victim([s.index for s in idle])
        return next(s for s in idle if s.index == victim)
    return min(fitting, key=lambda s: (s.lock.queue_length, s.index))


class FixedPartitionService(VfpgaServiceBase):
    """Boot-time partition table; each partition caches one configuration.

    Requests prefer the partition already holding their configuration
    (affinity), then an idle empty partition, then an idle victim chosen
    by the pluggable ``replacement`` policy (default ``"lru"`` — the
    seed behavior), then the fitting partition with the shortest queue.
    Circuits wider than every partition are rejected with
    :class:`CapacityError` — under fixed partitioning such tasks would
    wait forever (§4).
    """

    def __init__(
        self,
        registry: ConfigRegistry,
        partition_widths: Sequence[int],
        replacement: Union[str, ReplacementPolicy] = "lru",
        replacement_seed: int = 0,
        **kw,
    ) -> None:
        super().__init__(registry, **kw)
        self.replacement = make_replacement(replacement,
                                            seed=replacement_seed)
        if not partition_widths:
            raise ValueError("need at least one partition")
        if sum(partition_widths) > self.fpga.arch.width:
            raise CapacityError(
                f"partition table {list(partition_widths)} exceeds device "
                f"width {self.fpga.arch.width}"
            )
        self._widths = list(partition_widths)
        self.partitions: List[_Partition] = []

    @classmethod
    def equal(cls, registry: ConfigRegistry, n_partitions: int, **kw):
        """Split the device into ``n_partitions`` equal column spans."""
        width = registry.arch.width // n_partitions
        if width < 1:
            raise CapacityError(f"{n_partitions} partitions on a "
                                f"{registry.arch.width}-column device")
        return cls(registry, [width] * n_partitions, **kw)

    def attach(self, kernel) -> None:
        super().attach(kernel)
        x = 0
        height = self.fpga.arch.height
        for i, w in enumerate(self._widths):
            self.partitions.append(
                _Partition(
                    index=i,
                    rect=Rect(x, 0, w, height),
                    lock=Resource(self.sim),
                )
            )
            x += w

    # ------------------------------------------------------------------
    def _fits(self, entry: ConfigEntry, part: _Partition) -> bool:
        r = entry.bitstream.region
        return r.w <= part.rect.w and r.h <= part.rect.h

    def _choose(self, entry: ConfigEntry) -> _Partition:
        fitting = [p for p in self.partitions if self._fits(entry, p)]
        if not fitting:
            raise CapacityError(
                f"configuration {entry.name!r} "
                f"({entry.bitstream.region.w} cols) fits no partition — the "
                "task would wait indefinitely (paper §4)"
            )
        return choose_slot(fitting, entry.name, self.replacement)

    def execute(self, task: Task, op: FpgaOp):
        entry = self.registry.get(op.config)
        part = self._choose(entry)
        t0 = self.sim.now
        self._publish(OpStart, task, config=op.config)
        with part.lock.request() as req:
            yield req
            self._charge_wait(task, t0)
            self.replacement.on_access(part.index)
            handle = f"p{part.index}"
            if part.resident != entry.name:
                self._publish(Miss, task, handle=entry.name)
                if part.resident is not None:
                    yield from self._charge_unload(task, handle)
                    part.resident = None
                    self.replacement.on_remove(part.index)
                yield from self._charge_load(
                    task, entry, (part.rect.x, part.rect.y), handle=handle
                )
                part.resident = entry.name
                self.replacement.on_insert(part.index)
            else:
                self._publish(Hit, task, handle=entry.name)
            task.current_config = op.config
            yield from self._charge_io(task, entry, op)
            yield from self._charge_exec(
                task, entry, self.op_seconds(entry, op), handle=handle
            )
            self.replacement.on_access(part.index)


@dataclass
class _Resident:
    """One circuit resident under variable partitioning."""

    entry: ConfigEntry
    anchor: Anchor
    lock: Resource
    #: True between operations: the partition is not computing right now.
    idle: bool = True
    #: Tasks holding this partition (hold_mode="task"); empty = cached.
    holders: set = field(default_factory=set)
    #: The download is still owed; the first residency-lock holder (its
    #: creator — created and locked in one synchronous step) charges it.
    pending_load: bool = False

    @property
    def anchor_x(self) -> int:
        return self.anchor[0]

    @property
    def footprint(self) -> Tuple[int, int]:
        r = self.entry.bitstream.region
        return (r.w, r.h)


class VariablePartitionService(VfpgaServiceBase):
    """Split-on-demand partitions with caching and garbage collection.

    Partition boundaries persist after release (no automatic coalescing),
    exactly as in the paper.  Two holding disciplines:

    * ``hold_mode="task"`` (paper default): "an assigned partition remains
      in use to its task until it is released voluntarily" — the partition
      belongs to its task(s) until they exit; while held it may be
      *relocated* when idle but never evicted;
    * ``hold_mode="op"``: the partition is released after every operation;
      the circuit stays resident as a reusable cache entry that may be
      evicted (the OS "rotates the assignment among tasks", §4).

    When a request cannot be placed in any single free span:

    1. adjacent free spans are fused with ``gc="merge"`` or better
       ("merge the idle existing partitions to create continuous large
       ones", §4);
    2. cached (unheld) circuits are evicted LRU-first;
    3. with ``gc="compact"``, idle resident circuits — including *held*
       ones — are relocated leftwards, charging real unload/reload plus
       state save/restore for sequential circuits: the paper's costly
       relocation, and the only remedy when held partitions fragment the
       array (a sequential circuit whose state is not accessible is
       never moved: ``compaction_refusals`` counts the compactions that
       left one in place);
    4. otherwise the task suspends; under ``gc="none"`` it can starve
       although the sum of the idle fragments would fit it — the exact
       hazard the paper calls "definitely not acceptable" (experiment E5
       measures it via ``starvation_events`` and deadlocked runs).
    """

    def __init__(
        self,
        registry: ConfigRegistry,
        gc: str = "compact",
        hold_mode: str = "task",
        layout: str = "columns",
        placement: Optional[Union[str, PlacementStrategy]] = None,
        replacement: Union[str, ReplacementPolicy] = "lru",
        replacement_seed: int = 0,
        **kw,
    ) -> None:
        super().__init__(registry, **kw)
        if gc not in ("none", "merge", "compact"):
            raise ValueError(f"unknown gc mode {gc!r}")
        if hold_mode not in ("task", "op"):
            raise ValueError(f"unknown hold_mode {hold_mode!r}")
        if layout not in ("columns", "rect"):
            raise ValueError(f"unknown layout {layout!r}")
        self.gc = gc
        self.hold_mode = hold_mode
        self.layout = layout
        self.replacement = make_replacement(replacement,
                                            seed=replacement_seed)
        arch = self.fpga.arch
        # ``placement=None`` keeps the allocator's own default strategy.
        kw = {} if placement is None else {"placement": placement}
        self.allocator = (
            ColumnAllocator(arch.width, coalesce=False, **kw)
            if layout == "columns"
            else RectAllocator(arch.width, arch.height, **kw)
        )
        self.placement = self.allocator.placement
        self.residents: Dict[str, _Resident] = {}
        self._space_waiters: List = []
        #: allocation failed although total free space was sufficient.
        self.starvation_events = 0
        #: compactions that left a movable sequential circuit in place
        #: because its state is not accessible.
        self.compaction_refusals = 0

    # -- space bookkeeping ----------------------------------------------------
    def _notify_space(self) -> None:
        waiters, self._space_waiters = self._space_waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed()

    def _is_movable(self, res: _Resident) -> bool:
        """Idle and unlocked: may be relocated (even while held), and
        evicted once no task holds it."""
        return (
            res.idle
            and not res.lock.users
            and not res.lock.queue_length
            and res.entry.name in self.residents
        )

    def _evict(self, task: Optional[Task], name: str):
        # Pop before the first yield so no task can "hit" a dying resident.
        res = self.residents.pop(name)
        self.replacement.on_remove(name)
        yield from self._charge_unload(task, name)
        self.allocator.release(res.anchor, *res.footprint)
        self._notify_space()

    def _choose_victim(self) -> Optional[Hashable]:
        """The name the replacement policy picks among the movable
        residents no task holds."""
        evictable = [name for name, res in self.residents.items()
                     if not res.holders and self._is_movable(res)]
        if not evictable:
            return None
        return self.replacement.victim(evictable)

    def _compact(self, task: Optional[Task]):
        """Slide idle resident circuits toward x = 0 (paper §4 relocation).

        Sequential circuits additionally pay state readback + restore so
        their memory contents survive the move; one whose state cannot
        be read back stays where it is (moving state needs observability
        and controllability, §3 — ``save-restore`` refuses to preempt it
        for the same reason).
        """
        self._publish(Compact, task)
        moved = 0
        # Columns slide first-fit whatever rule placed them; 2-D layouts
        # re-place with the configured strategy.
        slide = ColumnFirstFit() if self.layout == "columns" else None
        self.allocator.merge_free()
        idle = [r for r in self.residents.values() if self._is_movable(r)]
        movable = sorted(
            (r for r in idle
             if r.entry.state_accessible or not r.entry.is_sequential),
            key=lambda r: (r.anchor[1], r.anchor[0]),
        )
        if len(movable) < len(idle):
            self.compaction_refusals += 1
        for res in movable:
            if not self._is_movable(res):
                continue  # claimed while an earlier move was in flight
            # Holding the residency lock pins the circuit during the move;
            # granting is synchronous here because the lock is verified idle.
            req = res.lock.request()
            if req not in res.lock.users:  # pragma: no cover - defensive
                req.cancel()
                continue
            try:
                w, h = res.footprint
                self.allocator.release(res.anchor, w, h)
                self.allocator.merge_free()
                new_anchor = self.allocator.allocate(w, h, placement=slide)
                assert new_anchor is not None  # we just released that much
                if new_anchor == res.anchor:
                    continue
                port = self.fpga.port
                move_state = res.entry.is_sequential
                if move_state:
                    yield from self._charge_state(
                        task, port.state_save_time(res.entry.bitstream).seconds,
                        "save", handle=res.entry.name,
                    )
                yield from self._charge_unload(task, res.entry.name)
                # _charge_unload touches only the device residency; the
                # allocator spans are managed right here.
                yield from self._charge_load(
                    task, res.entry, new_anchor, handle=res.entry.name
                )
                if move_state:
                    yield from self._charge_state(
                        task,
                        port.state_restore_time(res.entry.bitstream).seconds,
                        "restore", handle=res.entry.name,
                    )
                res.anchor = new_anchor
                self._publish(Relocate, task, handle=res.entry.name,
                              anchor=tuple(new_anchor))
                moved += 1
            finally:
                res.lock.release(req)
        if moved:
            # Only a real layout change may wake space waiters — waking
            # them after a no-op compaction would let two starving tasks
            # ping-pong wakeups forever at the same simulation instant.
            self._notify_space()

    # -- demand-fault pipeline hooks (see VfpgaServiceBase.ensure_resident) --
    # No _fault_lock: variable partitioning stays lock-free, relying on
    # the pipeline's residency re-validation after yielding placement
    # attempts (the paper's partitions are grabbed optimistically).
    def _resident_lookup(self, task, name):
        return self.residents.get(name)

    def _note_hit(self, task, name, res) -> None:
        self._publish(Hit, task, handle=name)

    def _place_unit(self, task, name):
        """One placement attempt; returns the anchor or None (generator:
        may charge eviction/compaction time)."""
        r = self.registry.get(name).bitstream.region
        w, h = r.w, r.h
        anchor = self.allocator.allocate(w, h)
        if anchor is not None:
            return anchor
        # Phase 1: merge adjacent free spans (cheap GC bookkeeping).
        if self.gc != "none" and self.allocator.merge_free():
            anchor = self.allocator.allocate(w, h)
            if anchor is not None:
                return anchor
        # Phase 2: evict cached (unheld) circuits, replacement-policy
        # order.  Re-validate each victim right before eviction: earlier
        # charges yielded simulation time during which a victim may have
        # been claimed.
        while True:
            victim = self._choose_victim()
            if victim is None:
                break
            yield from self._evict(task, victim)
            if self.gc != "none":
                self.allocator.merge_free()
            anchor = self.allocator.allocate(w, h)
            if anchor is not None:
                return anchor
        if self.gc in ("none", "merge"):
            if self.allocator.has_room(w, h):
                self.starvation_events += 1
            return None
        if not self.allocator.has_room(w, h):
            return None
        # Phase 3: compaction — relocate idle circuits (held ones too)
        # toward the origin; the only remedy when held partitions shatter
        # the array.
        yield from self._compact(task)
        self.allocator.merge_free()
        return self.allocator.allocate(w, h)

    def _undo_place(self, task, name, anchor) -> None:
        r = self.registry.get(name).bitstream.region
        self.allocator.release(anchor, r.w, r.h)

    def _load_unit(self, task, name, anchor):
        # Plain hook (no generator): the download is deferred — it
        # happens under the residency lock so late-comers wait for it.
        entry = self.registry.get(name)
        self._publish(Miss, task, handle=name)
        proposal = self.allocator.last_proposal
        self._publish(
            Placement, task, strategy=self.placement.name, handle=name,
            anchor=tuple(anchor),
            candidates=proposal.candidates if proposal is not None else 1,
            fragmentation=self.allocator.fragmentation,
        )
        res = _Resident(
            entry=entry,
            anchor=anchor,
            lock=Resource(self.sim),
            idle=False,
            pending_load=True,
        )
        self.residents[name] = res
        self.replacement.on_insert(name)
        return res

    def _wait_for_space(self, task, name):
        # No space: suspend until departures change the picture.
        ev = self.sim.event()
        self._space_waiters.append(ev)
        self._publish(Suspend, task, config=name)
        yield ev

    # -- main entry ------------------------------------------------------------------
    def execute(self, task: Task, op: FpgaOp):
        entry = self.registry.get(op.config)
        self._check_fits_device(entry)
        t0 = self.sim.now
        self._publish(OpStart, task, config=op.config)
        if self.hold_mode == "task" and task.current_config not in (None, op.config):
            # §3: a task holds only its most recently used configuration;
            # switching releases the previous partition (it stays resident
            # as an evictable cache entry).
            prev = self.residents.get(task.current_config)
            if prev is not None and task.tid in prev.holders:
                prev.holders.discard(task.tid)
                self._notify_space()
        res = yield from self.ensure_resident(task, entry.name)
        if self.hold_mode == "task":
            res.holders.add(task.tid)
        with res.lock.request() as req:
            yield req
            self._charge_wait(task, t0)
            res.idle = False
            self.replacement.on_access(entry.name)
            if res.pending_load:
                res.pending_load = False
                yield from self._charge_load(task, entry, res.anchor)
            task.current_config = op.config
            yield from self._charge_io(task, entry, op)
            yield from self._charge_exec(task, entry, self.op_seconds(entry, op))
            self.replacement.on_access(entry.name)
            res.idle = True
        self._notify_space()

    def on_task_exit(self, task: Task) -> None:
        """Voluntary release: the task's partitions become cached entries
        that eviction may reclaim (paper §4)."""
        super().on_task_exit(task)
        released = False
        for res in self.residents.values():
            if task.tid in res.holders:
                res.holders.discard(task.tid)
                released = True
        if released:
            self._notify_space()
