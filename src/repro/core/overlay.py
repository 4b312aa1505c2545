"""Overlaying — the paper's third mechanism (§2).

"Overlaying configures part of the FPGA to compute common functions which
are frequently used, while the remaining part is used to download specific
functions which are typically rarely used or mutually exclusive."

:class:`OverlayService` pins a chosen set of hot configurations at boot
(packed from the left edge) and dynamically loads everything else into the
remaining columns — the *overlay area* — which is divided into
``overlay_slots`` equal column slots, each caching one circuit at a time
with configuration affinity.  With the default single slot the overlay
area behaves like a miniature
:class:`~repro.core.dynamic_loading.DynamicLoadingService` (the seed
behavior); more slots turn it into a small fixed-partition cache whose
victims are chosen by the pluggable ``replacement`` engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from ..osim import FpgaOp, Task
from ..sim import Resource
from ..telemetry import Hit, Load, Miss, OpStart, Placement
from .base import VfpgaServiceBase
from .errors import CapacityError
from .partitioning import choose_slot
from .policies import ReplacementPolicy, make_replacement
from .registry import ConfigEntry, ConfigRegistry

__all__ = ["OverlayService"]


@dataclass
class _Slot:
    """One overlay slot's bookkeeping."""

    index: int
    x: int
    width: int
    lock: Resource
    resident: Optional[str] = None


class OverlayService(VfpgaServiceBase):
    """Pinned hot set + replacement-managed dynamic overlay slots.

    Parameters
    ----------
    registry:
        OS configuration tables.
    resident_names:
        Configurations pinned for the whole run (the "common functions").
        They are packed side by side from column 0; the rest of the device
        is the overlay area.
    replacement:
        Victim selection among idle overlay slots — a
        :class:`~repro.core.policies.ReplacementPolicy` name or instance
        (default ``"lru"``, the seed behavior).
    replacement_seed:
        Seed for stochastic replacement policies.
    overlay_slots:
        Equal column slots the overlay area is divided into (default 1 —
        one circuit resident at a time, exactly the seed service).
    """

    def __init__(
        self,
        registry: ConfigRegistry,
        resident_names: Sequence[str],
        replacement: Union[str, ReplacementPolicy] = "lru",
        replacement_seed: int = 0,
        overlay_slots: int = 1,
        **kw,
    ) -> None:
        super().__init__(registry, **kw)
        if overlay_slots < 1:
            raise ValueError("need at least one overlay slot")
        self.resident_names = list(dict.fromkeys(resident_names))
        self.replacement = make_replacement(replacement,
                                            seed=replacement_seed)
        self.overlay_slots = overlay_slots
        self._locks = {}
        self._slots: List[_Slot] = []
        self._overlay_x = 0

    def attach(self, kernel) -> None:
        super().attach(kernel)
        arch = self.fpga.arch
        x = 0
        for name in self.resident_names:
            entry = self.registry.get(name)
            r = entry.bitstream.region
            if r.h > arch.height or x + r.w > arch.width:
                raise CapacityError(
                    f"pinned set does not fit: {name!r} needs columns "
                    f"{x}..{x + r.w} of {arch.width}"
                )
            bitstream = self.registry.translated(name, (x, 0))
            image, cache = self.registry.bitcache.frames_for(bitstream)
            timing = self.fpga.load(name, bitstream, mode=self.load_mode,
                                    image=image)
            self._publish(Load, None, handle=name, anchor=(x, 0),
                          seconds=timing.seconds, frames=timing.n_frames,
                          clbs=r.area, shape=(r.w, r.h), mode=timing.mode,
                          frames_written=timing.written, cache=cache)
            self._locks[name] = Resource(self.sim)
            x += r.w
        self._overlay_x = x
        slot_width = self.overlay_width // self.overlay_slots
        self._slots = [
            _Slot(
                index=i,
                x=x + i * slot_width,
                width=slot_width,
                lock=Resource(self.sim),
            )
            for i in range(self.overlay_slots)
        ]

    @property
    def overlay_width(self) -> int:
        return self.fpga.arch.width - self._overlay_x

    # ------------------------------------------------------------------
    def _choose_slot(self, entry: ConfigEntry) -> _Slot:
        """The fixed-partition slot rule
        (:func:`~repro.core.partitioning.choose_slot`) over the slots."""
        r = entry.bitstream.region
        fitting = [
            s for s in self._slots
            if r.w <= s.width and r.h <= self.fpga.arch.height
        ]
        if not fitting:
            raise CapacityError(
                f"configuration {entry.name!r} ({r.w} cols) exceeds the "
                f"overlay area ({self.overlay_width} cols in "
                f"{self.overlay_slots} slot(s))"
            )
        return choose_slot(fitting, entry.name, self.replacement)

    def execute(self, task: Task, op: FpgaOp):
        entry = self.registry.get(op.config)
        t0 = self.sim.now
        self._publish(OpStart, task, config=op.config)
        if op.config in self._locks:  # pinned: never a download
            with self._locks[op.config].request() as req:
                yield req
                self._charge_wait(task, t0)
                self._publish(Hit, task, handle=op.config)
                task.current_config = op.config
                yield from self._charge_io(task, entry, op)
                yield from self._charge_exec(task, entry,
                                             self.op_seconds(entry, op))
            return
        # Overlay path: one rarely-used circuit per slot.
        slot = self._choose_slot(entry)
        handle = f"ov:{op.config}"
        with slot.lock.request() as req:
            yield req
            self._charge_wait(task, t0)
            self.replacement.on_access(slot.index)
            if slot.resident != op.config:
                self._publish(Miss, task, handle=op.config)
                if slot.resident is not None:
                    yield from self._charge_unload(task,
                                                   f"ov:{slot.resident}")
                    slot.resident = None
                    self.replacement.on_remove(slot.index)
                self._publish(
                    Placement, task, strategy="overlay-slot",
                    handle=handle, anchor=(slot.x, 0),
                    candidates=len(self._slots), fragmentation=0.0,
                )
                yield from self._charge_load(
                    task, entry, (slot.x, 0), handle=handle
                )
                slot.resident = op.config
                self.replacement.on_insert(slot.index)
            else:
                self._publish(Hit, task, handle=op.config)
            task.current_config = op.config
            yield from self._charge_io(task, entry, op)
            yield from self._charge_exec(
                task, entry, self.op_seconds(entry, op), handle=handle,
            )
