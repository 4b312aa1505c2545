"""Typed telemetry events — the vocabulary of the event bus.

Every observable occurrence in the stack (kernel dispatches, configuration
downloads, page faults, pin-mux transfers, scrub passes, …) is a frozen
dataclass in this module.  Layers *publish* these into the
:class:`~repro.telemetry.bus.EventBus`; counters such as
:class:`~repro.core.metrics.ServiceMetrics` are *derived* from the stream
by subscribers in :mod:`repro.telemetry.recorders`, and the one event log,
:class:`~repro.telemetry.recorders.EventLog`, keeps the stream itself.

Conventions
-----------
* ``time`` is simulation seconds (the publisher's ``sim.now``).
* Charge events carry ``seconds`` and are published at their *start*
  instant, so they cover ``[time, time + seconds]``.  :class:`Wait` is
  the one exception: how long a task queued is known only when the wait
  ends, so it is published then and covers ``[time - seconds, time]``.
  :func:`charge_interval` is the single home of this rule.
* ``task`` is the task name ("" for system-wide events).
* ``source`` identifies the publisher (the kernel, or one service
  instance — multi-board systems publish from several sources onto one
  bus, and per-board metrics are derived by filtering on it).
* An event is identified by its class alone: subscribers select with
  ``isinstance`` and recordings name the class (``"event"`` in JSONL).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Tuple, Type

__all__ = [
    "TelemetryEvent",
    # kernel / scheduler
    "Admit", "Dispatch", "QuantumExpired", "TaskDone",
    "FpgaRequest", "FpgaComplete", "SimStep",
    # service charging primitives
    "OpStart", "Hit", "Miss", "Load", "Evict",
    "StateSave", "StateRestore", "Exec", "Wait",
    "PortTransfer", "PinWindow",
    # virtual-memory policies
    "PageAccess", "PageFault", "SegmentFault",
    # preemption / placement / scheduling
    "Preempt", "Rollback", "Prefetch", "Suspend", "Compact", "Relocate",
    "BoardDispatch", "SchedDecision", "DeadlineMiss",
    # device / integrity
    "ConfigPortOp", "ScrubPass", "Repair", "Upset",
    "EVENT_TYPES", "event_type", "register_event_type",
    "registered_event_types", "charge_interval",
]


@dataclass(frozen=True)
class TelemetryEvent:
    """Base of every bus event: a timestamped, attributed occurrence."""

    time: float
    task: str = ""
    source: str = ""

    def to_record(self) -> Dict[str, object]:
        """Flat JSON-serializable view (one JSONL line)."""
        rec: Dict[str, object] = {"event": type(self).__name__}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = list(v)
            rec[f.name] = v
        return rec


# ---------------------------------------------------------------------------
# kernel / scheduler events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Admit(TelemetryEvent):
    """A task entered the system (arrival)."""


@dataclass(frozen=True)
class Dispatch(TelemetryEvent):
    """The CPU scheduler switched to a task."""


@dataclass(frozen=True)
class QuantumExpired(TelemetryEvent):
    """A CPU time slice ran out with work remaining."""


@dataclass(frozen=True)
class TaskDone(TelemetryEvent):
    """A task completed its whole program."""


@dataclass(frozen=True)
class FpgaRequest(TelemetryEvent):
    """A task issued an FPGA operation (left the CPU).

    ``op_id`` is the kernel-minted span-correlation id: the matching
    :class:`FpgaComplete` carries the same id, so the span builder
    (:mod:`repro.telemetry.spans`) can pair request/complete even when a
    recorded stream is filtered or truncated (0 = unknown, for events
    recorded before ids existed).
    """

    config: str = ""
    op_id: int = 0


@dataclass(frozen=True)
class FpgaComplete(TelemetryEvent):
    """The service finished a task's FPGA operation (see
    :class:`FpgaRequest` for ``op_id``)."""

    config: str = ""
    op_id: int = 0


@dataclass(frozen=True)
class SimStep(TelemetryEvent):
    """One event-loop step of the discrete-event simulator (opt-in —
    published only when step telemetry is enabled; carries the calendar
    depth so queue growth is visible in exports)."""

    queue_depth: int = 0


# ---------------------------------------------------------------------------
# service charging primitives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpStart(TelemetryEvent):
    """A service accepted one FPGA operation (counts ``n_ops``)."""

    config: str = ""


@dataclass(frozen=True)
class Hit(TelemetryEvent):
    """Requested configuration was already resident."""

    handle: str = ""


@dataclass(frozen=True)
class Miss(TelemetryEvent):
    """Requested configuration required a download."""

    handle: str = ""


@dataclass(frozen=True)
class Load(TelemetryEvent):
    """A configuration download over the configuration port.

    ``count`` is normally 1; a full-serial boot download that configures
    several circuits at once publishes a single event with ``count`` set
    to the number of circuits it made resident.

    ``clbs`` is the CLB area the download makes resident and
    ``exclusive`` marks a full-device download on a device without
    partial reconfiguration (everything previously resident ceased to
    exist) — together they let utilization gauges track CLB occupancy
    from the stream alone.  ``shape`` is the region's ``(w, h)`` in
    CLBs (``(0, 0)`` = unknown); with ``anchor`` it gives auditors the
    exact rectangle the download occupies.

    ``mode`` names the reconfiguration engine that priced the download
    (``full-serial``/``partial``/``delta``), ``frames_written`` the frames
    physically written (under delta, only the differing ones), and
    ``cache`` how the encoded image was obtained from the
    content-addressed bitstream cache (``hit``/``reloc``/``miss``;
    empty = path not cached).
    """

    handle: str = ""
    anchor: Tuple[int, int] = (0, 0)
    seconds: float = 0.0
    frames: int = 0
    count: int = 1
    clbs: int = 0
    exclusive: bool = False
    shape: Tuple[int, int] = (0, 0)
    mode: str = ""
    frames_written: int = 0
    cache: str = ""


@dataclass(frozen=True)
class Evict(TelemetryEvent):
    """A resident configuration was cleared (an eviction); ``clbs`` is
    the CLB area the eviction freed."""

    handle: str = ""
    seconds: float = 0.0
    clbs: int = 0
    mode: str = ""
    frames_written: int = 0


@dataclass(frozen=True)
class StateSave(TelemetryEvent):
    """Flip-flop state readback over the configuration port.

    ``version`` is the service-minted state snapshot id: the matching
    :class:`StateRestore` must carry the same version, so auditors can
    prove a restore writes back exactly the state that was saved
    (0 = unversioned, for streams recorded before versions existed).
    """

    handle: str = ""
    seconds: float = 0.0
    version: int = 0


@dataclass(frozen=True)
class StateRestore(TelemetryEvent):
    """Flip-flop state restore over the configuration port (see
    :class:`StateSave` for ``version``)."""

    handle: str = ""
    seconds: float = 0.0
    version: int = 0


@dataclass(frozen=True)
class Exec(TelemetryEvent):
    """Useful fabric (or software-fallback) compute time."""

    handle: str = ""
    seconds: float = 0.0


@dataclass(frozen=True)
class Wait(TelemetryEvent):
    """Time a task spent queued for the fabric before being served.

    Published when the wait *ends* (see :func:`charge_interval`)."""

    seconds: float = 0.0


@dataclass(frozen=True)
class PortTransfer(TelemetryEvent):
    """A pin-multiplexed data transfer (operation I/O)."""

    circuit: str = ""
    words: int = 0
    pins: int = 0
    seconds: float = 0.0
    factor: float = 1.0


@dataclass(frozen=True)
class PinWindow(TelemetryEvent):
    """A circuit's pin demand joined (``active``) or left the multiplexer;
    ``demand`` is the total virtual-pin demand after the change."""

    circuit: str = ""
    pins: int = 0
    active: bool = False
    demand: int = 0


# ---------------------------------------------------------------------------
# virtual-memory policies (pagination / segmentation)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PageAccess(TelemetryEvent):
    """One access in a paged/segmented operation's access trace."""

    unit: str = ""


@dataclass(frozen=True)
class PageFault(TelemetryEvent):
    """Accessed page was not resident — a demand download follows."""

    unit: str = ""


@dataclass(frozen=True)
class SegmentFault(PageFault):
    """Segmentation's variable-size fault (same counter, distinct type)."""


# ---------------------------------------------------------------------------
# preemption / placement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Preempt(TelemetryEvent):
    """An executing circuit was preempted off the fabric."""

    handle: str = ""


@dataclass(frozen=True)
class Rollback(TelemetryEvent):
    """A preempted sequential circuit lost its progress (restart)."""

    handle: str = ""


@dataclass(frozen=True)
class Prefetch(TelemetryEvent):
    """Eager loading started a background download."""

    config: str = ""


@dataclass(frozen=True)
class Suspend(TelemetryEvent):
    """A task suspended waiting for partition space (starvation hazard)."""

    config: str = ""


@dataclass(frozen=True)
class Compact(TelemetryEvent):
    """Variable partitioning ran a compaction pass."""


@dataclass(frozen=True)
class Relocate(TelemetryEvent):
    """Compaction moved one resident circuit to a new anchor."""

    handle: str = ""
    anchor: Tuple[int, int] = (0, 0)


@dataclass(frozen=True)
class Placement(TelemetryEvent):
    """A placement engine chose an anchor for a demand-loaded unit.

    Published right before the corresponding :class:`Load`, carrying the
    *decision* the Load only implies: which strategy ran, how many
    candidate positions it weighed, and how fragmented the free space
    was at that instant.
    """

    strategy: str = ""
    handle: str = ""
    anchor: Tuple[int, int] = (0, 0)
    candidates: int = 1
    fragmentation: float = 0.0


@dataclass(frozen=True)
class SchedDecision(TelemetryEvent):
    """The fabric verdict priced one preemption point.

    Published by a time-sliced ``DynamicLoadingService`` at every
    contended quantum boundary (nobody waiting = no decision to price):
    its ``fabric_sched`` rule (``strategy``), the verdict (``reason``;
    ``preempt`` = the mechanism allows the switch and the rule takes
    it) and the priced cost terms weighed: the victim's
    reload bill (``reconfig_cost``, delta-frame pricing against the
    resident ConfigRam digests), the state save+restore movement
    (``state_cost``), the progress a rollback discards (``lost_cost``),
    the fabric seconds the resident op still needs (``remaining``) and
    the tightest waiter deadline slack (``slack``; ``inf`` = none).
    """

    strategy: str = ""
    handle: str = ""
    preempt: bool = False
    reason: str = ""
    waiting: int = 0
    reconfig_cost: float = 0.0
    state_cost: float = 0.0
    lost_cost: float = 0.0
    remaining: float = 0.0
    slack: float = float("inf")


@dataclass(frozen=True)
class DeadlineMiss(TelemetryEvent):
    """A task finished after its declared deadline (counts
    ``n_deadline_misses``).  ``lateness`` is how far past the deadline
    the completion landed."""

    deadline: float = 0.0
    lateness: float = 0.0


@dataclass(frozen=True)
class BoardDispatch(TelemetryEvent):
    """Multi-device placement chose a board for an operation."""

    config: str = ""
    board: int = 0


# ---------------------------------------------------------------------------
# device / integrity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfigPortOp(TelemetryEvent):
    """Raw device-level configuration-port occupancy (published by the
    :class:`~repro.device.Fpga` hook, so traffic that bypasses the service
    charging primitives — e.g. scrub repairs — is still visible)."""

    op: str = "load"          #: "load" | "unload" | "clear"
    handle: str = ""
    seconds: float = 0.0
    frames: int = 0
    mode: str = ""            #: pricing mode ("partial"/"delta"/"full-serial")
    frames_written: int = 0


@dataclass(frozen=True)
class ScrubPass(TelemetryEvent):
    """One periodic readback-compare pass over the resident frames."""

    seconds: float = 0.0
    n_corrupted: int = 0


@dataclass(frozen=True)
class Repair(TelemetryEvent):
    """The scrubber reloaded a corrupted circuit's golden bitstream."""

    handle: str = ""


@dataclass(frozen=True)
class Upset(TelemetryEvent):
    """An injected configuration upset (bit flip)."""

    frame: int = 0
    bit: int = 0
    handle: str = ""


def _concrete_subtypes(cls: Type[TelemetryEvent]) -> List[Type[TelemetryEvent]]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_concrete_subtypes(sub))
    return out


#: Every registered event type — a *snapshot* taken at import; late
#: registrations (see :func:`register_event_type`) appear in
#: :func:`registered_event_types`, which reads the live registry.
EVENT_TYPES: Tuple[Type[TelemetryEvent], ...] = tuple(
    t for t in _concrete_subtypes(TelemetryEvent) if t is not TelemetryEvent
)

_BY_NAME: Dict[str, Type[TelemetryEvent]] = {t.__name__: t for t in EVENT_TYPES}


def registered_event_types() -> Tuple[Type[TelemetryEvent], ...]:
    """The live event-type registry (module-defined + late-registered)."""
    return tuple(_BY_NAME.values())


def register_event_type(cls: Type[TelemetryEvent]) -> Type[TelemetryEvent]:
    """Register a :class:`TelemetryEvent` subclass defined outside this
    module (e.g. :class:`~repro.telemetry.audit.AuditViolation`) so name
    lookup — and therefore JSONL round-tripping — sees it.  Idempotent;
    usable as a class decorator.  Registering a *different* class under
    an existing name is an error."""
    if not (isinstance(cls, type) and issubclass(cls, TelemetryEvent)):
        raise TypeError(f"not a TelemetryEvent type: {cls!r}")
    existing = _BY_NAME.get(cls.__name__)
    if existing is not None:
        if existing is not cls:
            raise ValueError(
                f"event type name {cls.__name__!r} is already registered "
                f"by {existing!r}"
            )
        return cls
    global EVENT_TYPES
    _BY_NAME[cls.__name__] = cls
    EVENT_TYPES = EVENT_TYPES + (cls,)
    return cls


def event_type(name: str) -> Type[TelemetryEvent]:
    """Look an event class up by name (for filters and deserialization)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown event type {name!r}; have {sorted(_BY_NAME)}"
        ) from None


def charge_interval(event: TelemetryEvent) -> Tuple[float, float]:
    """The simulation interval ``(start, end)`` an event covers.

    A charge event covers ``[time, time + seconds]``; a :class:`Wait`
    covers ``[time - seconds, time]``, because it is published when the
    wait ends.  An event without ``seconds`` covers its instant.
    """
    seconds = getattr(event, "seconds", 0.0)
    if isinstance(event, Wait):
        return event.time - seconds, event.time
    return event.time, event.time + seconds
