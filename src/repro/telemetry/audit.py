"""Online invariant auditing over the telemetry stream.

The VFPGA abstraction is an OS-level *contract*: partitions stay
disjoint, the configuration port is serial, a restore writes back the
state that was saved, every accepted operation completes.  The unit
tests check these statically; the :class:`Auditor` checks them **while a
workload runs**, from the event stream alone — it subscribes to the bus
like any recorder, keeps its own shadow ledgers, and publishes an
:class:`AuditViolation` event back onto the bus whenever the stream
contradicts the contract.  Because violations are ordinary telemetry
events they appear in the :class:`~repro.telemetry.EventLog`, JSONL
recordings, Chrome traces and ``repro report`` with no extra plumbing.

Invariants
----------
* ``double-allocation`` — no CLB is owned by two resident
  configurations: :class:`~repro.telemetry.events.Load` rectangles
  (``anchor`` + ``shape``) of one source must stay disjoint; reloading
  an already-resident handle is flagged too.
* ``evict-without-load`` — an :class:`~repro.telemetry.events.Evict`
  must name a handle the stream made resident (corrupted or reordered
  recordings trip this).
* ``state-pairing`` — a :class:`~repro.telemetry.events.StateRestore`
  must be preceded by a :class:`~repro.telemetry.events.StateSave` of
  the same (task, handle) carrying the same state ``version``.
* ``port-overlap`` — task-attributed configuration-port intervals
  (load / evict / state save / state restore) of one source must never
  overlap: the port is serial.  System events (``task == ""``, e.g.
  boot downloads) are exempt — boot is modeled as batch initialization.
* ``device-port-overlap`` — the same check over raw device-level
  :class:`~repro.telemetry.events.ConfigPortOp` events (opt-in via
  ``device_port=True``; meant for device-only streams such as the
  scrubbing experiment, where the service-level family is silent).
* ``op-deadline`` / ``op-never-completed`` — liveness: every
  :class:`~repro.telemetry.events.FpgaRequest` ``op_id`` must reach its
  :class:`~repro.telemetry.events.FpgaComplete` (within ``deadline``
  simulation seconds when configured; :meth:`Auditor.finish` flags
  operations still open at end of stream).
* ``occupancy-mismatch`` — the CLB occupancy derived from the auditor's
  own ledger must equal the
  :class:`~repro.telemetry.metrics.MetricsAggregator` gauge folded from
  the same stream: two independent subscribers cross-checking each
  other.

Modes: ``"lenient"`` (default) records and publishes violations;
``"strict"`` additionally raises :class:`AuditError` at the first
error-severity violation (the violation is published *before* the raise,
so recorders keep it).

Replay: :func:`audit_events` folds a recorded stream into a fresh
auditor — violation parity live-vs-replay is what the audit tests hold
every policy to.  Recorded ``AuditViolation`` events are ignored on
folding, so auditing an already-audited recording converges instead of
echoing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .bus import EventBus
from .events import (
    ConfigPortOp,
    Evict,
    FpgaComplete,
    FpgaRequest,
    Load,
    StateRestore,
    StateSave,
    TelemetryEvent,
    register_event_type,
)
from .metrics import MetricsAggregator

__all__ = ["AuditViolation", "AuditError", "Auditor", "audit_events",
           "INVARIANTS"]

#: Invariant identifiers the auditor can report (anomaly detectors add
#: their own ``anomaly-*`` family — see :mod:`repro.telemetry.anomaly`).
INVARIANTS: Tuple[str, ...] = (
    "double-allocation",
    "evict-without-load",
    "state-pairing",
    "port-overlap",
    "device-port-overlap",
    "op-deadline",
    "op-never-completed",
    "occupancy-mismatch",
)


@register_event_type
@dataclass(frozen=True)
class AuditViolation(TelemetryEvent):
    """An invariant violation detected in the event stream.

    Published back onto the bus by the :class:`Auditor`, so it rides
    every existing export path.  ``offending`` holds compact renderings
    of the events that prove the violation.
    """

    invariant: str = ""
    severity: str = "error"     #: "error" | "warning"
    message: str = ""
    offending: Tuple[str, ...] = ()


class AuditError(Exception):
    """Raised by a strict-mode :class:`Auditor`; carries the violation."""

    def __init__(self, violation: AuditViolation) -> None:
        super().__init__(f"[{violation.invariant}] {violation.message}")
        self.violation = violation


def _describe(e: TelemetryEvent) -> str:
    """Compact one-line rendering of an offending event."""
    skip = ("time", "task", "source")
    extras = ", ".join(
        f"{k}={v!r}" for k, v in e.to_record().items()
        if k not in skip and k != "event" and v not in ("", 0, 0.0, [0, 0])
    )
    head = f"{type(e).__name__}@{e.time:.9g}"
    who = e.task or e.source
    if who:
        head += f" [{who}]"
    return f"{head} {extras}" if extras else head


class _Rect:
    """A resident configuration's footprint (area-only when shape is
    unknown, e.g. streams recorded before ``Load.shape`` existed)."""

    __slots__ = ("anchor", "shape", "clbs", "desc")

    def __init__(self, anchor, shape, clbs, desc) -> None:
        self.anchor = anchor
        self.shape = shape
        self.clbs = clbs
        self.desc = desc

    @property
    def known(self) -> bool:
        return self.shape[0] > 0 and self.shape[1] > 0

    def overlaps(self, other: "_Rect") -> bool:
        if not (self.known and other.known):
            return False
        ax, ay = self.anchor
        bx, by = other.anchor
        aw, ah = self.shape
        bw, bh = other.shape
        return ax < bx + bw and bx < ax + aw and ay < by + bh and by < ay + ah


class _PortTimeline:
    """Serial-interval tracker: one busy window at a time per source."""

    __slots__ = ("end", "desc")

    def __init__(self) -> None:
        self.end = 0.0
        self.desc = ""


#: Absolute slack for interval comparisons (simulation times are exact
#: event-calendar values, but charge arithmetic can round).
_TIME_EPS = 1e-12


class Auditor:
    """Bus subscriber that continuously verifies stream invariants.

    Parameters
    ----------
    bus:
        Subscribe immediately when given (violations are published back
        onto the same bus).
    mode:
        ``"lenient"`` counts; ``"strict"`` raises :class:`AuditError`
        at the first error-severity violation.
    deadline:
        Liveness bound in simulation seconds: an operation still open
        that long after its request is a violation (``None`` = only
        end-of-stream completeness via :meth:`finish`).
    clb_capacity:
        Device CLB count; when given, per-source resident area may never
        exceed it (a second, geometry-free double-allocation net).
    device_port:
        Also audit raw :class:`~repro.telemetry.events.ConfigPortOp`
        intervals.  Off by default: service-level charges and the device
        hook describe the *same* physical transfer, so auditing both
        families at once would double-book the port.
    """

    def __init__(
        self,
        bus: Optional[EventBus] = None,
        mode: str = "lenient",
        deadline: Optional[float] = None,
        clb_capacity: Optional[int] = None,
        device_port: bool = False,
    ) -> None:
        if mode not in ("lenient", "strict"):
            raise ValueError(f"mode must be 'lenient' or 'strict', not {mode!r}")
        self.mode = mode
        self.deadline = deadline
        self.clb_capacity = clb_capacity
        self.device_port = device_port
        self.bus = bus
        self.violations: List[AuditViolation] = []
        self.counts: Dict[str, int] = {}
        self.n_events = 0
        #: source -> handle -> footprint of the load that made it resident.
        self._ledger: Dict[str, Dict[str, _Rect]] = {}
        #: source -> independent occupancy aggregator (the cross-check).
        self._aggs: Dict[str, MetricsAggregator] = {}
        #: source -> service-level port timeline.
        self._port: Dict[str, _PortTimeline] = {}
        #: source -> device-level port timeline.
        self._device: Dict[str, _PortTimeline] = {}
        #: (source, task, handle) -> last saved state version.
        self._saved: Dict[Tuple[str, str, str], int] = {}
        #: op_id -> (request time, task, config); flagged ids stay out.
        self._open: Dict[int, Tuple[float, str, str]] = {}
        self._finished = False
        if bus is not None:
            bus.subscribe_all(self)

    # -- reporting -----------------------------------------------------------
    @property
    def n_errors(self) -> int:
        return sum(1 for v in self.violations if v.severity == "error")

    @property
    def n_warnings(self) -> int:
        return sum(1 for v in self.violations if v.severity != "error")

    @property
    def ok(self) -> bool:
        return not self.violations

    def _violate(self, time: float, invariant: str, message: str,
                 offending: Iterable[TelemetryEvent],
                 severity: str = "error", task: str = "",
                 source: str = "") -> None:
        v = AuditViolation(
            time, task, source=source, invariant=invariant,
            severity=severity, message=message,
            offending=tuple(_describe(e) for e in offending),
        )
        self.violations.append(v)
        self.counts[invariant] = self.counts.get(invariant, 0) + 1
        if self.bus is not None:
            self.bus.publish(v)
        if self.mode == "strict" and severity == "error":
            raise AuditError(v)

    def summary(self) -> Dict[str, object]:
        """JSON-ready violation report."""
        return {
            "n_events": self.n_events,
            "n_violations": len(self.violations),
            "n_errors": self.n_errors,
            "n_warnings": self.n_warnings,
            "by_invariant": dict(sorted(self.counts.items())),
            "violations": [v.to_record() for v in self.violations],
        }

    # -- folding -------------------------------------------------------------
    def __call__(self, event: TelemetryEvent) -> None:
        if isinstance(event, AuditViolation):
            return  # never audit our own (or a recording's) verdicts
        self.n_events += 1
        cls = type(event)
        if cls is Load:
            self._on_load(event)
        elif cls is Evict:
            self._on_evict(event)
        elif cls is StateSave:
            self._on_state_save(event)
        elif cls is StateRestore:
            self._on_state_restore(event)
        elif cls is FpgaRequest:
            self._on_request(event)
        elif cls is FpgaComplete:
            self._on_complete(event)
        elif cls is ConfigPortOp and self.device_port:
            self._check_port(self._device, event.source, event,
                             event.seconds, "device-port-overlap")
        if self.deadline is not None and self._open:
            self._check_deadline(event.time)

    # -- residency / double allocation ---------------------------------------
    def _agg(self, source: str) -> MetricsAggregator:
        agg = self._aggs.get(source)
        if agg is None:
            agg = MetricsAggregator(source=source, kernel_sources=())
            self._aggs[source] = agg
        return agg

    def _on_load(self, e: Load) -> None:
        ledger = self._ledger.setdefault(e.source, {})
        if e.exclusive:
            # Full-device download: everything previously resident is gone.
            ledger.clear()
        rect = _Rect(tuple(e.anchor), tuple(e.shape), e.clbs, _describe(e))
        if e.handle in ledger:
            self._violate(
                e.time, "double-allocation",
                f"handle {e.handle!r} loaded while already resident",
                [e], task=e.task, source=e.source,
            )
        else:
            for other in ledger.values():
                if rect.overlaps(other):
                    self._violate(
                        e.time, "double-allocation",
                        f"load of {e.handle!r} at {rect.anchor} "
                        f"({rect.shape[0]}x{rect.shape[1]}) overlaps a "
                        f"resident configuration",
                        [e], task=e.task, source=e.source,
                    )
                    break
        ledger[e.handle] = rect
        if self.clb_capacity is not None:
            total = sum(r.clbs for r in ledger.values())
            if total > self.clb_capacity:
                self._violate(
                    e.time, "double-allocation",
                    f"resident area {total} CLBs exceeds the device "
                    f"capacity of {self.clb_capacity}",
                    [e], task=e.task, source=e.source,
                )
        self._check_port(self._port, e.source, e, e.seconds, "port-overlap")
        self._agg(e.source)(e)
        self._cross_check(e)

    def _on_evict(self, e: Evict) -> None:
        ledger = self._ledger.setdefault(e.source, {})
        if e.handle not in ledger:
            self._violate(
                e.time, "evict-without-load",
                f"evicted handle {e.handle!r} was never made resident",
                [e], task=e.task, source=e.source,
            )
        else:
            del ledger[e.handle]
        self._check_port(self._port, e.source, e, e.seconds, "port-overlap")
        self._agg(e.source)(e)
        self._cross_check(e)

    def _cross_check(self, e: TelemetryEvent) -> None:
        ledger = self._ledger.get(e.source, {})
        derived = sum(r.clbs for r in ledger.values())
        gauge = self._agg(e.source).clb_occupancy.value
        if abs(derived - gauge) > 1e-9:
            self._violate(
                e.time, "occupancy-mismatch",
                f"ledger says {derived} resident CLBs but the metrics "
                f"gauge says {gauge:g}",
                [e], task=e.task, source=e.source,
            )

    # -- state pairing --------------------------------------------------------
    def _on_state_save(self, e: StateSave) -> None:
        self._saved[(e.source, e.task, e.handle)] = e.version
        self._check_port(self._port, e.source, e, e.seconds, "port-overlap")
        self._agg(e.source)(e)

    def _on_state_restore(self, e: StateRestore) -> None:
        key = (e.source, e.task, e.handle)
        saved = self._saved.get(key)
        if saved is None:
            self._violate(
                e.time, "state-pairing",
                f"restore of {e.handle!r} for task {e.task!r} has no "
                f"preceding save",
                [e], task=e.task, source=e.source,
            )
        elif saved != e.version:
            self._violate(
                e.time, "state-pairing",
                f"restore of {e.handle!r} carries state version "
                f"{e.version} but version {saved} was saved",
                [e], task=e.task, source=e.source,
            )
        self._check_port(self._port, e.source, e, e.seconds, "port-overlap")
        self._agg(e.source)(e)

    # -- serial configuration port --------------------------------------------
    def _check_port(self, timelines: Dict[str, _PortTimeline], source: str,
                    e: TelemetryEvent, seconds: float,
                    invariant: str) -> None:
        if seconds <= 0:
            return
        if invariant == "port-overlap" and not e.task:
            return  # boot/system downloads are batch initialization
        tl = timelines.get(source)
        if tl is None:
            tl = timelines[source] = _PortTimeline()
        if e.time < tl.end - _TIME_EPS:
            self._violate(
                e.time, invariant,
                f"config-port transfer starts at {e.time:.9g}s while "
                f"{tl.desc} is busy until {tl.end:.9g}s",
                [e], task=e.task, source=source,
            )
        end = e.time + seconds
        if end > tl.end:
            tl.end = end
            tl.desc = _describe(e)

    # -- liveness -------------------------------------------------------------
    def _on_request(self, e: FpgaRequest) -> None:
        self._open[e.op_id] = (e.time, e.task, e.config)

    def _on_complete(self, e: FpgaComplete) -> None:
        self._open.pop(e.op_id, None)

    def _check_deadline(self, now: float) -> None:
        expired = [
            (op_id, started, task, config)
            for op_id, (started, task, config) in self._open.items()
            if now - started > self.deadline + _TIME_EPS
        ]
        for op_id, started, task, config in expired:
            del self._open[op_id]  # flag once
            self._violate(
                now, "op-deadline",
                f"operation {op_id} ({config!r}) requested at "
                f"{started:.9g}s is still open after the {self.deadline:g}s "
                f"deadline",
                [FpgaRequest(started, task, config=config, op_id=op_id)],
                task=task,
            )

    def finish(self) -> "Auditor":
        """End-of-stream completeness check: flag operations that never
        completed (starvation, deadlock, or a truncated recording).
        Idempotent; returns ``self`` for chaining."""
        if self._finished:
            return self
        self._finished = True
        for op_id, (started, task, config) in sorted(self._open.items()):
            self._violate(
                started, "op-never-completed",
                f"operation {op_id} ({config!r}) requested at "
                f"{started:.9g}s never completed",
                [FpgaRequest(started, task, config=config, op_id=op_id)],
                severity="warning", task=task,
            )
        self._open.clear()
        return self


def audit_events(
    events: Iterable[TelemetryEvent],
    deadline: Optional[float] = None,
    clb_capacity: Optional[int] = None,
    device_port: bool = False,
) -> Auditor:
    """Replay a recorded stream through a fresh lenient auditor and run
    the end-of-stream checks — the parity primitive: auditing a
    recording must find exactly what the live auditor found."""
    auditor = Auditor(deadline=deadline, clb_capacity=clb_capacity,
                      device_port=device_port)
    for e in events:
        auditor(e)
    return auditor.finish()
