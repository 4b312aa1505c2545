"""CAD-flow instrumentation: compile telemetry over the event bus.

The runtime side of the stack publishes simulation-time facts into the
:class:`~repro.telemetry.bus.EventBus`; this module extends the same
spine into the *offline* compile path (techmap → pack → place → route →
timing → bitgen), whose wall-clock cost is a first-class virtualization
overhead (compile time bounds how fast new circuits can enter a virtual
fabric).  Three pieces:

* **Typed CAD events** — :class:`CadPhaseStart`/:class:`CadPhaseEnd`
  bracket each flow phase (the end event carries wall ``seconds`` and a
  ``size`` describing the phase's output: cells mapped, BLEs packed,
  RRG nodes built, nets routed, frames generated);
  :class:`CadAnnealStep` records one simulated-annealing temperature
  step (temperature, moves evaluated, acceptance rate, running HPWL
  cost); :class:`CadRouteIteration` records one PathFinder rip-up round
  (overused wires, nets ripped up, pressure factor).  All four are
  registered on the live event registry, so recorded JSONL streams
  round-trip through :func:`~repro.telemetry.exporters.read_jsonl` and
  open in the same Chrome ``trace_event`` viewer as runtime traces.
* **:class:`CadInstrumentation`** — the opt-in hook threaded through
  :func:`~repro.cad.flow.compile_netlist`,
  :func:`~repro.cad.place.place` and
  :meth:`~repro.cad.route.Router.route`.  ``None`` (the default) means
  the flow runs exactly as before; when present, the hook only *reads*
  flow state and timestamps it — it never touches the placement RNG or
  any routing cost, so placements and bitstreams are bit-identical with
  instrumentation on or off (asserted by tests/cad/test_instrument.py).
* **:class:`CompileProfile`** — the aggregation attached to
  :class:`~repro.cad.flow.CompileResult`: per-phase wall-clock
  breakdown, the SA cost/acceptance curve, the router convergence
  curve, and the peak RRG node count.  Built purely from the event
  list, so a recorded stream reduces to the identical profile
  (``repro compile-report`` live-vs-recorded parity).

Event ``time`` is wall seconds since the instrumentation epoch (first
event), not simulation time: the compile path has no simulator, and a
relative wall clock keeps traces readable and recordings reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..telemetry.bus import EventBus
from ..telemetry.events import TelemetryEvent, register_event_type

__all__ = [
    "CadPhaseStart",
    "CadPhaseEnd",
    "CadAnnealStep",
    "CadRouteIteration",
    "CadCacheLookup",
    "CadInstrumentation",
    "CompileProfile",
    "PHASES",
]

#: Canonical flow phase order (auto-region retries repeat place, rrg and
#: route).
PHASES = ("techmap", "pack", "place", "rrg", "route", "timing", "bitgen")


@register_event_type
@dataclass(frozen=True)
class CadPhaseStart(TelemetryEvent):
    """A CAD flow phase began.  ``size`` is the phase's *input* measure
    (cells entering techmap, nets entering the router, …; 0 = n/a)."""

    phase: str = ""
    size: int = 0


@register_event_type
@dataclass(frozen=True)
class CadPhaseEnd(TelemetryEvent):
    """A CAD flow phase finished.

    Published at the phase's *start* instant with its wall-clock
    ``seconds`` known (same convention as the runtime charge events), so
    it renders as a complete ("X") Chrome trace event spanning the
    phase.  ``size`` is the phase's *output* measure: cells mapped, BLEs
    packed, RRG nodes built, nets routed, timing paths, frames touched.
    """

    phase: str = ""
    seconds: float = 0.0
    size: int = 0


@register_event_type
@dataclass(frozen=True)
class CadAnnealStep(TelemetryEvent):
    """One simulated-annealing temperature step of the placer.

    ``acceptance`` is accepted/evaluated for the step (evaluated counts
    only moves that actually priced a swap — self-moves are skipped
    before pricing, exactly as the annealer always did); ``cost`` is the
    running HPWL total *after* the step.  ``wall_seconds`` is the wall
    time the step took (kept off the ``seconds`` duration attribute so
    per-phase and per-step times are not double-counted by profilers).
    """

    step: int = 0
    temperature: float = 0.0
    moves: int = 0
    accepted: int = 0
    cost: float = 0.0
    wall_seconds: float = 0.0

    @property
    def acceptance(self) -> float:
        return 0.0 if self.moves == 0 else self.accepted / self.moves


@register_event_type
@dataclass(frozen=True)
class CadRouteIteration(TelemetryEvent):
    """One PathFinder negotiated-congestion iteration.

    ``overused`` is the number of wires carrying more than one net
    after the iteration (0 = converged); ``ripped_up`` how many nets
    were re-routed this round; ``pressure`` the congestion pressure
    factor in force *during* the iteration.
    """

    iteration: int = 0
    overused: int = 0
    ripped_up: int = 0
    pressure: float = 0.0
    wall_seconds: float = 0.0


@register_event_type
@dataclass(frozen=True)
class CadCacheLookup(TelemetryEvent):
    """One compile-cache consultation.

    ``stage`` is ``"flow"``, the end-to-end result lookup (streams
    recorded before the per-stage caches were removed also carry
    ``"pack"``/``"place"``/``"route"`` lookups, which
    :class:`CompileProfile` lists but does not count); ``outcome`` is
    ``"hit"`` or ``"miss"``.  ``digest`` carries the netlist content
    digest the key was built from; ``bytes_served`` the configuration
    bytes a hit avoided regenerating.
    """

    stage: str = ""
    outcome: str = ""
    digest: str = ""
    bytes_served: int = 0


class _PhaseHandle:
    """Mutable box a phase context yields so callers can set the output
    ``size`` discovered mid-phase (e.g. cells after mapping)."""

    __slots__ = ("size",)

    def __init__(self) -> None:
        self.size = 0


class _PhaseContext:
    def __init__(self, instr: "CadInstrumentation", phase: str,
                 size: int) -> None:
        self._instr = instr
        self._phase = phase
        self._size = size
        self._t0 = 0.0
        self._handle = _PhaseHandle()

    def __enter__(self) -> _PhaseHandle:
        self._t0 = self._instr._now()
        self._instr._emit(CadPhaseStart(
            time=self._t0, source=self._instr.source,
            phase=self._phase, size=self._size,
        ))
        return self._handle

    def __exit__(self, exc_type, exc, tb) -> None:
        # Phases are recorded even when they raise (a RoutingError after
        # 24 iterations is exactly the wall-clock one wants to see).
        self._instr._emit(CadPhaseEnd(
            time=self._t0, source=self._instr.source,
            phase=self._phase, seconds=self._instr._now() - self._t0,
            size=self._handle.size,
        ))


class CadInstrumentation:
    """The opt-in compile-telemetry hook.

    Parameters
    ----------
    bus:
        Publish every event onto this bus as well (``None`` = collect
        only).  Events are always collected in :attr:`events` so the
        profile can be built without a subscriber.
    clock:
        Wall-clock source (injectable for deterministic tests).
    source:
        Event attribution string (the trace lane for phase events).

    The hook is **provably RNG-neutral**: no method touches a
    ``random.Random`` or mutates any flow structure — every hook point
    passes already-computed numbers in.  Disabled (``instrument=None``)
    flows publish nothing and take no timestamps.
    """

    def __init__(self, bus: Optional[EventBus] = None,
                 clock: Callable[[], float] = time.perf_counter,
                 source: str = "cad") -> None:
        self.bus = bus
        self.source = source
        self._clock = clock
        self._epoch: Optional[float] = None
        self.events: List[TelemetryEvent] = []

    # -- plumbing ----------------------------------------------------------
    def _now(self) -> float:
        now = self._clock()
        if self._epoch is None:
            self._epoch = now
        return now - self._epoch

    def now(self) -> float:
        """Wall seconds since the instrumentation epoch (for hook sites
        that time their own sub-steps with the injected clock)."""
        return self._now()

    def _emit(self, event: TelemetryEvent) -> None:
        self.events.append(event)
        if self.bus is not None:
            self.bus.publish(event)

    # -- hook points -------------------------------------------------------
    def phase(self, name: str, size: int = 0) -> _PhaseContext:
        """Bracket one flow phase; yields a handle whose ``size`` becomes
        the :class:`CadPhaseEnd` output measure."""
        return _PhaseContext(self, name, size)

    def anneal_step(self, step: int, temperature: float, moves: int,
                    accepted: int, cost: float,
                    wall_seconds: float = 0.0) -> None:
        self._emit(CadAnnealStep(
            time=self._now(), source=self.source, step=step,
            temperature=temperature, moves=moves, accepted=accepted,
            cost=cost, wall_seconds=wall_seconds,
        ))

    def route_iteration(self, iteration: int, overused: int, ripped_up: int,
                        pressure: float, wall_seconds: float = 0.0) -> None:
        self._emit(CadRouteIteration(
            time=self._now(), source=self.source, iteration=iteration,
            overused=overused, ripped_up=ripped_up, pressure=pressure,
            wall_seconds=wall_seconds,
        ))

    def cache_lookup(self, stage: str, outcome: str, digest: str,
                     bytes_served: int = 0) -> None:
        self._emit(CadCacheLookup(
            time=self._now(), source=self.source, stage=stage,
            outcome=outcome, digest=digest, bytes_served=bytes_served,
        ))

    def profile(self) -> "CompileProfile":
        """Reduce the collected events to a :class:`CompileProfile`."""
        return CompileProfile.from_events(self.events)


@dataclass
class CompileProfile:
    """Aggregated compile telemetry of one flow run.

    Built purely from the event stream (:meth:`from_events`), so a
    recorded JSONL replay reduces to the identical profile — the
    compile-path analogue of the PR 2 live-vs-replay metrics parity.
    """

    #: Phase records in completion order: {"phase", "seconds", "size"}.
    phases: List[Dict[str, object]] = field(default_factory=list)
    #: SA curve: {"step", "temperature", "moves", "accepted",
    #: "acceptance", "cost"} per temperature step.
    sa_curve: List[Dict[str, object]] = field(default_factory=list)
    #: Router curve: {"iteration", "overused", "ripped_up", "pressure"}.
    route_curve: List[Dict[str, object]] = field(default_factory=list)
    #: Compile-cache consultations: {"stage", "outcome", "bytes_served"}.
    cache_lookups: List[Dict[str, object]] = field(default_factory=list)

    @classmethod
    def from_events(cls, events: Sequence[TelemetryEvent]) -> "CompileProfile":
        prof = cls()
        for ev in events:
            if isinstance(ev, CadPhaseEnd):
                prof.phases.append({
                    "phase": ev.phase,
                    "seconds": ev.seconds,
                    "size": ev.size,
                })
            elif isinstance(ev, CadAnnealStep):
                prof.sa_curve.append({
                    "step": ev.step,
                    "temperature": ev.temperature,
                    "moves": ev.moves,
                    "accepted": ev.accepted,
                    "acceptance": ev.acceptance,
                    "cost": ev.cost,
                })
            elif isinstance(ev, CadRouteIteration):
                prof.route_curve.append({
                    "iteration": ev.iteration,
                    "overused": ev.overused,
                    "ripped_up": ev.ripped_up,
                    "pressure": ev.pressure,
                })
            elif isinstance(ev, CadCacheLookup):
                prof.cache_lookups.append({
                    "stage": ev.stage,
                    "outcome": ev.outcome,
                    "bytes_served": ev.bytes_served,
                })
        return prof

    # -- views -------------------------------------------------------------
    @property
    def phase_seconds(self) -> Dict[str, float]:
        """Wall seconds summed per phase name (retries accumulate)."""
        out: Dict[str, float] = {}
        for rec in self.phases:
            name = str(rec["phase"])
            out[name] = out.get(name, 0.0) + float(rec["seconds"])  # type: ignore[arg-type]
        return out

    @property
    def total_seconds(self) -> float:
        return sum(float(rec["seconds"]) for rec in self.phases)  # type: ignore[arg-type]

    @property
    def peak_rrg_nodes(self) -> int:
        """Largest routing graph built (auto-region retries may build
        several)."""
        sizes = [int(rec["size"]) for rec in self.phases  # type: ignore[arg-type]
                 if rec["phase"] == "rrg"]
        return max(sizes, default=0)

    @property
    def sa_steps(self) -> int:
        return len(self.sa_curve)

    @property
    def route_iterations(self) -> int:
        return len(self.route_curve)

    @property
    def final_cost(self) -> float:
        """HPWL cost after the last SA step (0.0 = no annealing ran)."""
        return float(self.sa_curve[-1]["cost"]) if self.sa_curve else 0.0  # type: ignore[arg-type]

    @property
    def final_overuse(self) -> int:
        return int(self.route_curve[-1]["overused"]) if self.route_curve else 0  # type: ignore[arg-type]

    # -- cache views -------------------------------------------------------
    def _cache_count(self, outcome: str) -> int:
        return sum(
            1 for rec in self.cache_lookups
            if rec["outcome"] == outcome and rec["stage"] == "flow"
        )

    @property
    def cache_hits(self) -> int:
        """End-to-end compile-cache hits (whole flow served)."""
        return self._cache_count("hit")

    @property
    def cache_misses(self) -> int:
        return self._cache_count("miss")

    @property
    def cache_bytes_served(self) -> int:
        return sum(int(rec["bytes_served"]) for rec in self.cache_lookups)  # type: ignore[arg-type]

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view: the ``compile`` block of ``BENCH_*.json``."""
        return {
            "phases": [dict(rec) for rec in self.phases],
            "phase_seconds": dict(sorted(self.phase_seconds.items())),
            "total_seconds": self.total_seconds,
            "peak_rrg_nodes": self.peak_rrg_nodes,
            "sa_steps": self.sa_steps,
            "sa_curve": [dict(rec) for rec in self.sa_curve],
            "final_cost": self.final_cost,
            "route_iterations": self.route_iterations,
            "route_curve": [dict(rec) for rec in self.route_curve],
            "final_overuse": self.final_overuse,
            "cache": {
                "lookups": [dict(rec) for rec in self.cache_lookups],
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "bytes_served": self.cache_bytes_served,
            },
        }

    def render(self, title: str = "compile profile") -> str:
        """The ``repro compile-report`` tables: per-phase wall-clock,
        the SA cost/acceptance curve, the router convergence curve."""
        from ..analysis import format_table

        total = self.total_seconds
        phase_rows = [
            {
                "phase": rec["phase"],
                "size": rec["size"],
                "wall": _fmt_wall(float(rec["seconds"])),  # type: ignore[arg-type]
                "share": (f"{float(rec['seconds']) / total:6.1%}"  # type: ignore[arg-type]
                          if total > 0 else "-"),
            }
            for rec in self.phases
        ]
        phase_rows.append({
            "phase": "total", "size": "",
            "wall": _fmt_wall(total), "share": "100.0%" if total > 0 else "-",
        })
        parts = [format_table(
            phase_rows, title=f"{title} — per-phase wall clock"
        )]
        if self.sa_curve:
            sa_rows = [
                {
                    "step": rec["step"],
                    "temperature": f"{float(rec['temperature']):.4g}",  # type: ignore[arg-type]
                    "moves": rec["moves"],
                    "accepted": rec["accepted"],
                    "acceptance": f"{float(rec['acceptance']):.1%}",  # type: ignore[arg-type]
                    "hpwl": f"{float(rec['cost']):.6g}",  # type: ignore[arg-type]
                }
                for rec in _downsample(self.sa_curve)
            ]
            parts.append(format_table(
                sa_rows,
                title=f"{title} — SA cost curve ({self.sa_steps} steps)",
            ))
        if self.route_curve:
            route_rows = [
                {
                    "iteration": rec["iteration"],
                    "overused": rec["overused"],
                    "ripped_up": rec["ripped_up"],
                    "pressure": f"{float(rec['pressure']):.4g}",  # type: ignore[arg-type]
                }
                for rec in _downsample(self.route_curve)
            ]
            parts.append(format_table(
                route_rows,
                title=f"{title} — PathFinder convergence "
                      f"({self.route_iterations} iterations, "
                      f"peak RRG {self.peak_rrg_nodes} nodes)",
            ))
        if self.cache_lookups:
            stages = []
            for rec in self.cache_lookups:
                if rec["stage"] not in stages:
                    stages.append(rec["stage"])
            cache_rows = [
                {
                    "stage": stage,
                    "hits": sum(1 for r in self.cache_lookups
                                if r["stage"] == stage
                                and r["outcome"] == "hit"),
                    "misses": sum(1 for r in self.cache_lookups
                                  if r["stage"] == stage
                                  and r["outcome"] == "miss"),
                    "bytes_served": sum(
                        int(r["bytes_served"]) for r in self.cache_lookups  # type: ignore[arg-type]
                        if r["stage"] == stage
                    ),
                }
                for stage in stages
            ]
            parts.append(format_table(
                cache_rows,
                title=f"{title} — compile cache "
                      f"({self.cache_hits} flow hits, "
                      f"{self.cache_bytes_served} bytes served)",
            ))
        return "\n\n".join(parts)


def _fmt_wall(seconds: float) -> str:
    """Wall-clock formatting (µs–s range, compile phases are fast)."""
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.0f} us"


def _downsample(rows: List[Dict[str, object]],
                limit: int = 24) -> List[Dict[str, object]]:
    """At most ``limit`` rows, always keeping the first and last (long
    SA schedules stay readable in a terminal)."""
    if len(rows) <= limit:
        return rows
    stride = (len(rows) - 1) / (limit - 1)
    picked = [rows[round(i * stride)] for i in range(limit - 1)]
    picked.append(rows[-1])
    return picked
