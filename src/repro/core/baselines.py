"""Baseline FPGA services the paper's proposals are measured against.

* :class:`MergedResidentService` — the paper's "trivial solution" (§3):
  if the device is large enough, merge every circuit into one resident
  configuration at boot and never reconfigure.  Its admission failure
  (CapacityError) *is* the physical barrier motivating the VFPGA.
* :class:`SoftwareOnlyService` — don't use the FPGA at all: run every
  operation on the CPU at a configurable slowdown (the paper's "software
  programming of the algorithm should be considered" escape hatch, §4).

The paper's third baseline, the non-preemptable device (§4), is
:class:`~repro.core.dynamic_loading.DynamicLoadingService` without a
fabric time slice: ``make_service("nonpreemptable")``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..osim import FpgaOp, Task
from ..sim import Resource
from ..telemetry import Exec, Hit, Load, OpStart
from .base import VfpgaServiceBase
from .errors import CapacityError
from .registry import ConfigEntry, ConfigRegistry

__all__ = [
    "MergedResidentService",
    "SoftwareOnlyService",
    "shelf_pack",
]


def shelf_pack(
    entries: List[ConfigEntry], width: int, height: int
) -> Dict[str, Tuple[int, int]]:
    """Pack entry footprints onto a ``width``×``height`` array with the
    classic shelf heuristic (sort by height, fill rows left to right).

    Returns name → anchor; raises :class:`CapacityError` if they don't fit
    — which, for the merged baseline, is exactly the paper's "FPGA not
    large enough" condition.
    """
    anchors: Dict[str, Tuple[int, int]] = {}
    shelf_y = 0
    shelf_h = 0
    cursor_x = 0
    for entry in sorted(entries, key=lambda e: (-e.bitstream.region.h, e.name)):
        w, h = entry.bitstream.region.w, entry.bitstream.region.h
        if w > width or h > height:
            raise CapacityError(
                f"circuit {entry.name!r} ({w}x{h}) exceeds the device"
            )
        if cursor_x + w > width:
            shelf_y += shelf_h
            cursor_x = 0
            shelf_h = 0
        if shelf_y + h > height:
            raise CapacityError(
                f"circuits do not fit: {entry.name!r} needs a fresh shelf at "
                f"y={shelf_y} of height {h} on a {width}x{height} device"
            )
        anchors[entry.name] = (cursor_x, shelf_y)
        cursor_x += w
        shelf_h = max(shelf_h, h)
    return anchors


class MergedResidentService(VfpgaServiceBase):
    """All declared configurations resident side by side, loaded once.

    ``boot_load_time`` records the single initialization download; steady
    state has zero reconfigurations.  Concurrent operations on different
    circuits overlap freely (they are physically distinct logic); two
    operations on the *same* circuit serialize on its single instance.
    """

    def __init__(self, registry: ConfigRegistry, **kw) -> None:
        super().__init__(registry, **kw)
        self.boot_load_time = 0.0
        self._locks: Dict[str, Resource] = {}

    def attach(self, kernel) -> None:
        super().attach(kernel)
        entries = self.registry.entries()
        arch = self.fpga.arch
        anchors = shelf_pack(entries, arch.width, arch.height)
        for entry in entries:
            bitstream = self.registry.translated(
                entry.name, anchors[entry.name]
            )
            image, cache = self.registry.bitcache.frames_for(bitstream)
            timing = self.fpga.load(entry.name, bitstream,
                                    mode=self.load_mode, image=image)
            self.boot_load_time += timing.seconds
            self._locks[entry.name] = Resource(self.sim)
            if arch.supports_partial:
                region = entry.bitstream.region
                self._publish(Load, None, handle=entry.name,
                              anchor=anchors[entry.name],
                              seconds=timing.seconds, frames=timing.n_frames,
                              clbs=region.area, shape=(region.w, region.h),
                              mode=timing.mode,
                              frames_written=timing.written, cache=cache)
        if not arch.supports_partial:
            # One full serial download configures everything at once —
            # published as a single Load carrying the circuit count.
            boot = self.fpga.port.full_config()
            self.boot_load_time = boot.seconds
            self._publish(Load, None, handle="<boot>", seconds=boot.seconds,
                          frames=boot.n_frames, count=len(entries),
                          clbs=sum(e.bitstream.region.area for e in entries),
                          exclusive=True)

    def execute(self, task: Task, op: FpgaOp):
        entry = self.registry.get(op.config)
        t0 = self.sim.now
        with self._locks[op.config].request() as req:
            yield req
            self._charge_wait(task, t0)
            self._publish(OpStart, task, config=op.config)
            self._publish(Hit, task, handle=op.config)
            yield from self._charge_io(task, entry, op)
            yield from self._charge_exec(task, entry, self.op_seconds(entry, op))


class SoftwareOnlyService(VfpgaServiceBase):
    """Run every "FPGA" operation on the CPU instead.

    ``slowdown`` scales the operation time (hardware is assumed
    ``slowdown``× faster than software for these kernels).  The op
    occupies the *CPU-side* service process, not the fabric — but it also
    does not overlap with other software ops (one CPU), which is modelled
    with a single lock.
    """

    def __init__(self, registry: ConfigRegistry, slowdown: float = 20.0, **kw) -> None:
        super().__init__(registry, **kw)
        if slowdown <= 0:
            raise ValueError("slowdown must be positive")
        self.slowdown = slowdown
        self._cpu_lock: Optional[Resource] = None

    def attach(self, kernel) -> None:
        super().attach(kernel)
        self._cpu_lock = Resource(self.sim)

    def execute(self, task: Task, op: FpgaOp):
        entry = self.registry.get(op.config)
        t0 = self.sim.now
        with self._cpu_lock.request() as req:
            yield req
            self._charge_wait(task, t0)
            self._publish(OpStart, task, config=op.config)
            seconds = self.op_seconds(entry, op) * self.slowdown
            self._publish(Exec, task, handle="cpu", seconds=seconds)
            yield self.sim.timeout(seconds)
            task.accounting.cpu_time += seconds
