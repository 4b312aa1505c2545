"""Shared machinery for every VFPGA service policy.

:class:`VfpgaServiceBase` owns the physical device, the configuration-port
mutex, the pin multiplexer and the metrics, and provides the charging
primitives (load, unload, state save/restore, execute, I/O) that the
concrete policies in this package compose.  Everything is expressed as
simulation-process generators so queueing falls out of the event kernel.

Physical honesty rules enforced here:

* the configuration port is serial: one load/unload/readback at a time;
* on devices without partial reconfiguration, *any* load is a full-device
  download: it must wait until nothing is executing (it would corrupt
  running circuits) and it evicts every resident configuration (§2);
* regions of concurrently resident configurations never overlap (the
  device itself enforces this — see :meth:`repro.device.Fpga.load`).
"""

from __future__ import annotations

import inspect
from typing import Dict, Optional, Set, Type

import numpy as np

from ..device import Fpga, digest_bits
from ..osim import FpgaOp, FpgaService, Task
from ..sim import Resource
from ..telemetry import (
    ConfigPortOp,
    DeadlineMiss,
    EventBus,
    Evict,
    Exec,
    Load,
    MetricsRecorder,
    PinWindow,
    PortTransfer,
    StateRestore,
    StateSave,
    TelemetryEvent,
    Wait,
    make_source,
)
from .errors import CapacityError, VfpgaError
from .iomux import PinMultiplexer
from .metrics import ServiceMetrics
from .registry import ConfigEntry, ConfigRegistry

__all__ = ["VfpgaServiceBase"]


class VfpgaServiceBase(FpgaService):
    """Base class: device ownership + charging primitives.

    Observability: every charging primitive *publishes* a typed event on
    the telemetry bus; :attr:`metrics` is a derived view filled by a
    :class:`~repro.telemetry.MetricsRecorder` subscribed with this
    service's :attr:`source` — so a policy composed purely from these
    primitives is fully instrumented without touching a counter, and
    several services (multi-board systems) share one bus without mixing
    their numbers.

    Parameters
    ----------
    registry:
        The OS configuration tables.
    fpga:
        The physical device (created from the registry's architecture when
        omitted).
    word_rate:
        Pin-multiplexer word rate (see :class:`repro.core.iomux`).
    load_mode:
        Reconfiguration engine for every download this service charges:
        ``full`` (rewrite every touched frame — the seed behaviour),
        ``delta`` (frame-diff against the resident bits, charging only
        differing frames plus the per-frame address header) or ``auto``
        (price both, pick the cheaper — never worse than ``full``).
    """

    LOAD_MODES = ("full", "delta", "auto")

    def __init__(
        self,
        registry: ConfigRegistry,
        fpga: Optional[Fpga] = None,
        word_rate: float = 2.0e6,
        load_mode: str = "full",
    ) -> None:
        self.registry = registry
        self.fpga = fpga if fpga is not None else Fpga(registry.arch)
        if self.fpga.arch.name != registry.arch.name:
            raise VfpgaError("registry and device architectures differ")
        if load_mode not in self.LOAD_MODES:
            raise VfpgaError(
                f"load_mode must be one of {self.LOAD_MODES}, got {load_mode!r}"
            )
        self.load_mode = load_mode
        self.mux = PinMultiplexer(self.fpga.arch.n_pins, word_rate=word_rate)
        self.metrics = ServiceMetrics()
        #: Telemetry attribution of this service instance's events.
        self.source = make_source(type(self).__name__)
        #: The bus (the kernel's, bound at :meth:`attach`).
        self.bus: Optional[EventBus] = None
        self._metrics_recorder = MetricsRecorder(self.metrics,
                                                 source=self.source)
        #: handles currently executing on the fabric.
        self._executing: Set[str] = set()
        self._idle_waiters = []
        #: handle -> anchor used at load time (for state addressing).
        self._anchors: Dict[str, tuple] = {}
        #: State snapshot versioning: every save mints a fresh version
        #: and the matching restore republishes it, so stream auditors
        #: can prove restores write back exactly what was saved.
        self._next_state_version = 0
        #: (task name, handle) -> version of the last saved snapshot.
        self._state_versions: Dict[tuple, int] = {}
        #: Memoized digest of an all-zero frame (cleared-region content),
        #: the reference the switch-cost pricer diffs against.
        self._zero_digest: Optional[bytes] = None

    # -- kernel lifecycle -----------------------------------------------------
    def attach(self, kernel) -> None:
        super().attach(kernel)
        self.sim = kernel.sim
        self._port = Resource(self.sim)
        self.bus = kernel.bus
        self._metrics_recorder.attach(self.bus)
        # Device-level port occupancy: traffic that bypasses the charging
        # primitives (boot loads, scrub repairs) still reaches the bus.
        self.fpga.telemetry = self._device_port_event

    # -- telemetry -------------------------------------------------------------
    def _publish(self, event_cls: Type[TelemetryEvent],
                 task: Optional[Task] = None, **fields) -> None:
        """Publish one typed event, stamped with the current simulation
        time, the task's name (when attributed) and this service's source."""
        if self.bus is not None:
            self.bus.publish(event_cls(
                self.sim.now, task.name if task is not None else "",
                source=self.source, **fields,
            ))

    def _device_port_event(self, op: str, handle: str, timing) -> None:
        if self.bus is not None:
            self.bus.publish(ConfigPortOp(
                self.sim.now, source=self.source, op=op, handle=handle,
                seconds=timing.seconds, frames=timing.n_frames,
                mode=timing.mode, frames_written=timing.written,
            ))

    def register_task(self, task: Task) -> None:
        for name in task.configs:
            self.registry.get(name)  # raises UnknownConfigError if missing

    def on_task_exit(self, task: Task) -> None:
        """Release hook — also scores the task against its deadline.

        Idempotent via the :attr:`~repro.osim.task.TaskAccounting.
        deadline_missed` latch, so multi-board systems that forward the
        exit to every board publish exactly one :class:`DeadlineMiss`.
        Overrides must call ``super().on_task_exit(task)``.
        """
        deadline = getattr(task, "deadline", None)
        if deadline is None or task.accounting.deadline_missed:
            return
        lateness = self.sim.now - deadline
        if lateness > 1e-15:
            task.accounting.deadline_missed = True
            self._publish(DeadlineMiss, task, deadline=deadline,
                          lateness=lateness)

    # -- residency ---------------------------------------------------------------
    def is_resident(self, handle: str) -> bool:
        return handle in self.fpga.resident

    def resident_handles(self) -> Set[str]:
        return set(self.fpga.resident)

    # -- shared demand-fault pipeline -------------------------------------------
    #: Optional serialization of fault service.  Policies with fixed
    #: frames/segments set a :class:`~repro.sim.Resource` at attach so
    #: victim choices are sane; policies relying on post-yield
    #: re-validation (variable partitioning) leave it ``None``.
    _fault_lock: Optional[Resource] = None

    def ensure_resident(self, task: Optional[Task], key: str):
        """Demand-fault pipeline shared by every demand-loading policy:
        **lookup → place (evict-until-fits) → load**, re-validating
        residency after every yield of simulation time.

        The concrete policy supplies the bookkeeping through the hooks
        (demand loading of pages and segments, and variable partitioning,
        differ only here — the control flow above lives once):

        * ``_resident_lookup(task, key)`` — the current residency token
          (frame index, anchor, resident record …) or ``None``;
        * ``_note_hit(task, key, token)`` — a lookup succeeded: pin,
          touch the replacement policy, publish ``Hit`` — whatever the
          policy's vocabulary is;
        * ``_publish_fault(task, key)`` — the typed fault event (may be
          a no-op where the miss is reported at load time);
        * ``_place_unit(task, key)`` (generator) — one attempt to find a
          spot, evicting victims as needed (charging their unload time);
          returns the spot or ``None`` when the policy must wait;
        * ``_undo_place(task, key, spot)`` — roll back a spot that lost
          a residency race while placement yielded;
        * ``_load_unit(task, key, spot)`` — commit the mapping and
          charge (or schedule) the download; returns the residency
          token.  May be a generator or a plain function — the latter
          when the download is deferred (e.g. under a residency lock);
        * ``_wait_for_space(task, key)`` (generator) — block until a
          departure could change the picture.

        When :attr:`_fault_lock` is set the whole fault service runs
        under it; either way the pipeline re-validates residency after
        every placement attempt, so policies without the lock stay
        race-free through re-validation alone.
        """
        token = self._resident_lookup(task, key)
        if token is not None:
            self._note_hit(task, key, token)
            return token
        if self._fault_lock is not None:
            with self._fault_lock.request() as req:
                yield req
                token = yield from self._fault_service(task, key)
            return token
        token = yield from self._fault_service(task, key)
        return token

    def _fault_service(self, task: Optional[Task], key: str):
        """The fault path of :meth:`ensure_resident` (post-lookup)."""
        token = self._resident_lookup(task, key)
        if token is not None:
            # Resolved while we waited for fault service.
            self._note_hit(task, key, token)
            return token
        self._publish_fault(task, key)
        while True:
            spot = yield from self._place_unit(task, key)
            token = self._resident_lookup(task, key)
            if token is not None:
                # Raced: `key` became resident while placement yielded.
                if spot is not None:
                    self._undo_place(task, key, spot)
                self._note_hit(task, key, token)
                return token
            if spot is not None:
                loaded = self._load_unit(task, key, spot)
                if inspect.isgenerator(loaded):
                    loaded = yield from loaded
                return loaded
            yield from self._wait_for_space(task, key)

    # Hook defaults: a policy must override everything it reaches.
    def _resident_lookup(self, task: Optional[Task], key: str):
        raise NotImplementedError(
            f"{type(self).__name__} uses ensure_resident() but does not "
            "implement _resident_lookup()"
        )

    def _note_hit(self, task: Optional[Task], key: str, token) -> None:
        pass

    def _publish_fault(self, task: Optional[Task], key: str) -> None:
        pass

    def _place_unit(self, task: Optional[Task], key: str):
        raise NotImplementedError(
            f"{type(self).__name__} uses ensure_resident() but does not "
            "implement _place_unit()"
        )

    def _undo_place(self, task: Optional[Task], key: str, spot) -> None:
        pass

    def _load_unit(self, task: Optional[Task], key: str, spot):
        raise NotImplementedError(
            f"{type(self).__name__} uses ensure_resident() but does not "
            "implement _load_unit()"
        )

    def _wait_for_space(self, task: Optional[Task], key: str):
        raise NotImplementedError(
            f"{type(self).__name__} uses ensure_resident() but does not "
            "implement _wait_for_space()"
        )

    # -- fabric idleness (full-serial devices) --------------------------------------
    def _begin_exec(self, handle: str) -> None:
        self._executing.add(handle)

    def _end_exec(self, handle: str) -> None:
        self._executing.discard(handle)
        if not self._executing:
            waiters, self._idle_waiters = self._idle_waiters, []
            for ev in waiters:
                if not ev.triggered:
                    ev.succeed()

    def _wait_fabric_idle(self):
        while self._executing:
            ev = self.sim.event()
            self._idle_waiters.append(ev)
            yield ev

    # -- charging primitives ------------------------------------------------------------
    def _charge_load(self, task: Optional[Task], entry: ConfigEntry,
                     anchor: tuple, handle: Optional[str] = None):
        """Make ``entry`` resident at ``anchor = (x, y)`` under ``handle``
        (defaults to the entry name).  Yields for the port time."""
        handle = handle or entry.name
        with self._port.request() as req:
            yield req
            exclusive = not self.fpga.arch.supports_partial
            if exclusive:
                # A full-serial download rewrites the whole RAM: wait until
                # the fabric is quiet, then everything else is gone.
                yield from self._wait_fabric_idle()
                self.fpga.wipe()
            # The encode hot path: memoised translation + content-addressed
            # frame image (re-placing identical content is a metadata hit).
            if entry.name in self.registry \
                    and self.registry.get(entry.name) is entry:
                bitstream = self.registry.translated(
                    entry.name, (anchor[0], anchor[1])
                )
            else:  # ad-hoc entry: translate directly, still image-cached
                bitstream = entry.bitstream.anchored_at(*anchor)
            image, cache = self.registry.bitcache.frames_for(bitstream)
            timing = self.fpga.load(
                handle, bitstream, mode=self.load_mode, image=image
            )
            self._anchors[handle] = anchor
            if task is not None:
                task.accounting.fpga_reconfig_time += timing.seconds
                task.accounting.n_reconfigs += 1
            region = entry.bitstream.region
            self._publish(Load, task, handle=handle, anchor=tuple(anchor),
                          seconds=timing.seconds, frames=timing.n_frames,
                          clbs=region.area, exclusive=exclusive,
                          shape=(region.w, region.h), mode=timing.mode,
                          frames_written=timing.written, cache=cache)
            yield self.sim.timeout(timing.seconds)

    def _charge_unload(self, task: Optional[Task], handle: str):
        """Clear ``handle``'s region (an eviction)."""
        with self._port.request() as req:
            yield req
            if handle not in self.fpga.resident:
                return
            clbs = self.fpga.resident[handle].region.area
            timing = self.fpga.unload(handle, mode=self.load_mode)
            self._anchors.pop(handle, None)
            if task is not None:
                task.accounting.fpga_reconfig_time += timing.seconds
            self._publish(Evict, task, handle=handle, seconds=timing.seconds,
                          clbs=clbs, mode=timing.mode,
                          frames_written=timing.written)
            yield self.sim.timeout(timing.seconds)

    def _charge_state(self, task: Optional[Task], seconds: float, kind: str,
                      handle: str = ""):
        """Charge a state save or restore over the configuration port.

        Saves mint a fresh state version under (task, handle); the
        matching restore republishes it — the pairing invariant the
        :class:`~repro.telemetry.Auditor` verifies from the stream.
        """
        if seconds <= 0:
            return
        with self._port.request() as req:
            yield req
            if task is not None:
                task.accounting.fpga_state_time += seconds
            key = (task.name if task is not None else "", handle)
            if kind == "save":
                self._next_state_version += 1
                version = self._state_versions[key] = self._next_state_version
                event_cls = StateSave
            else:
                version = self._state_versions.get(key, 0)
                event_cls = StateRestore
            self._publish(event_cls, task, handle=handle, seconds=seconds,
                          version=version)
            yield self.sim.timeout(seconds)

    def _charge_io(self, task: Task, entry: ConfigEntry, op: FpgaOp):
        """Pin-multiplexed data transfer for one operation."""
        if op.io_words <= 0:
            return
        self.mux.begin(entry.name, entry.io_pins)
        self._publish(PinWindow, task, circuit=entry.name,
                      pins=entry.io_pins, active=True,
                      demand=self.mux.total_demand)
        try:
            priced = self.mux.price_active_transfer(
                entry.name, op.io_words, entry.io_pins
            )
            task.accounting.fpga_io_time += priced.seconds
            self._publish(PortTransfer, task, circuit=entry.name,
                          words=op.io_words, pins=entry.io_pins,
                          seconds=priced.seconds, factor=priced.factor)
            yield self.sim.timeout(priced.seconds)
        finally:
            self.mux.end(entry.name, entry.io_pins)
            self._publish(PinWindow, task, circuit=entry.name,
                          pins=entry.io_pins, active=False,
                          demand=self.mux.total_demand)

    def _charge_exec(self, task: Task, entry: ConfigEntry, seconds: float,
                     handle: Optional[str] = None):
        """``seconds`` of useful fabric time under the executing set."""
        handle = handle or entry.name
        self._begin_exec(handle)
        try:
            self._publish(Exec, task, handle=handle, seconds=seconds)
            yield self.sim.timeout(seconds)
            task.accounting.fpga_exec_time += seconds
        finally:
            self._end_exec(handle)

    def _charge_wait(self, task: Task, start: float) -> None:
        waited = self.sim.now - start
        if waited > 0:
            task.accounting.fpga_wait_time += waited
            self._publish(Wait, task, seconds=waited)

    # -- shared helpers ----------------------------------------------------------------
    def op_seconds(self, entry: ConfigEntry, op: FpgaOp) -> float:
        return op.cycles * entry.critical_path

    def switch_reload_cost(self, entry: ConfigEntry) -> float:
        """Price the victim's eventual reload after a preemption.

        The fabric verdict's reconfiguration term: config-port
        seconds to make ``entry`` resident again, under this service's
        :attr:`load_mode`.  Under ``delta``/``auto`` the estimate diffs
        the resident :class:`~repro.device.ConfigRam` digests of the
        entry's touched frames against the all-zero frame the eviction
        leaves behind — frames the circuit occupies non-trivially must
        be rewritten on the way back, frames it leaves blank are free.
        Pure pricing: reads the digest cache, never the port.
        """
        anchor = self._anchors.get(entry.name, (0, 0))
        if entry.name in self.registry \
                and self.registry.get(entry.name) is entry:
            bitstream = self.registry.translated(
                entry.name, (anchor[0], anchor[1])
            )
        else:
            bitstream = entry.bitstream.anchored_at(*anchor)
        port = self.fpga.port
        full = port.load_time(bitstream).seconds
        if self.load_mode == "full":
            return full
        if self._zero_digest is None:
            self._zero_digest = digest_bits(
                np.zeros(self.fpga.arch.frame_bits, dtype=np.uint8)
            )
        ram = self.fpga.ram
        n_changed = sum(
            1 for fx in bitstream.frames_touched(self.fpga.arch)
            if ram.frame_digest(fx) != self._zero_digest
        )
        delta = port.delta_load_time(bitstream, n_changed).seconds
        return min(delta, full) if self.load_mode == "auto" else delta

    def _check_fits_device(self, entry: ConfigEntry) -> None:
        arch = self.fpga.arch
        r = entry.bitstream.region
        if r.w > arch.width or r.h > arch.height:
            raise CapacityError(
                f"configuration {entry.name!r} ({r.w}x{r.h}) exceeds the "
                f"physical device ({arch.width}x{arch.height})"
            )
