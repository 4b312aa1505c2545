"""Set-up and one repetition of each workload in :mod:`specs`.

A repetition regenerates its inputs from the seed (tasks are mutated by a
run, netlists are cheap), then times only the system under test: building
the simulated system and running it, or compiling.  Given a
:class:`~layers.LayerClock` it also times each layer from outside and
returns the per-layer metrics of :data:`specs.PER_LAYER` it can measure.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from repro.cad import CadInstrumentation, CompileCache, compile_netlist
from repro.core import ConfigRegistry, bitstream_digest, make_service
from repro.device import get_family
from repro.netlist import CIRCUIT_GENERATORS
from repro.osim import Kernel, RoundRobin, TaskState, uniform_workload
from repro.sim import Simulator
from repro.telemetry import (
    AnomalyDetector,
    Auditor,
    EventBus,
    MetricsAggregator,
    Profiler,
    QueueingDecomposition,
    SloEngine,
    SloObjective,
    SpanBuilder,
)

from layers import LayerClock, TimedBus, instrument_system
from specs import (
    CAD_FAMILY,
    CAD_PHASES,
    CYCLES,
    SIM_FAMILY,
    SIM_LAYERS,
    SUBSCRIBERS,
    SimSpec,
)


@dataclass
class Rep:
    """One repetition."""

    wall_s: float
    attempted: int
    failed: int
    #: Simulated or compiled results; must repeat exactly at one seed.
    outputs: Dict[str, object]
    #: Correctness failures found by the repetition itself.
    problems: List[str] = field(default_factory=list)
    #: Traced repetitions only: the clock, per-layer metrics and, for the
    #: simulator, published events per type.
    clock: Optional[LayerClock] = None
    layers: Dict[str, float] = field(default_factory=dict)
    event_counts: Dict[str, int] = field(default_factory=dict)


@dataclass
class State:
    """What set-up builds once and every repetition shares."""

    seed: int
    registry: Optional[ConfigRegistry] = None
    arch: object = None
    cache: Optional[CompileCache] = None
    #: Outputs of the cold compiles that filled ``cache``.
    cold_outputs: Dict[str, object] = field(default_factory=dict)


def _netlist(circuit):
    name, args = circuit
    return CIRCUIT_GENERATORS[name](*args)


def _digest(values) -> str:
    return hashlib.blake2b(repr(values).encode(), digest_size=8).hexdigest()


def setup(spec, seed: int) -> State:
    if isinstance(spec, SimSpec):
        arch = get_family(SIM_FAMILY)
        registry = ConfigRegistry(arch)
        for i, width in enumerate(spec.widths):
            registry.register_synthetic(f"w{width}-{i}", width, arch.height)
        for name, args in spec.circuits:
            registry.compile_and_register(
                CIRCUIT_GENERATORS[name](*args),
                name=f"{name}:{','.join(map(str, args))}", seed=seed,
            )
        return State(seed=seed, registry=registry)
    state = State(seed=seed, arch=get_family(CAD_FAMILY))
    if spec.warm:
        state.cache = CompileCache()
        state.cold_outputs = _cad_outputs([
            compile_netlist(_netlist(c), state.arch, seed=seed, effort="sa",
                            cache=state.cache)
            for c in spec.circuits
        ])
    return state


def run_rep(spec, state: State, clock: Optional[LayerClock] = None) -> Rep:
    if isinstance(spec, SimSpec):
        return _sim_rep(spec, state, clock)
    return _cad_rep(spec, state, clock)


# -- simulator ----------------------------------------------------------------

class _Observers:
    """The full observer stack: the benchmark harness set plus the E20 set
    plus anomaly detection."""

    def __init__(self, bus: EventBus, clb_capacity: int) -> None:
        self.slo = SloEngine([SloObjective(name="p99-slo", latency=10e-3,
                                           percentile=0.99, min_samples=4)])
        bus.subscribe_all(self.slo)
        self.slo.bus = bus  # breaches are republished, as in E20
        self.queueing = QueueingDecomposition(bus)
        self.profiler = Profiler(bus)
        self.aggregator = MetricsAggregator(bus, clb_capacity=clb_capacity)
        self.spans = SpanBuilder(bus)
        self.auditor = Auditor(bus, mode="strict", clb_capacity=clb_capacity)
        # Built without ``bus=``: a detector that republishes receives its
        # own AuditViolation while iterating its starving ops and fails
        # with KeyError (pinned by test_anomaly_reentrancy.py).
        self.anomaly = AnomalyDetector()
        bus.subscribe_all(self.anomaly)

    def finish(self) -> None:
        self.auditor.finish()
        self.slo.finish()

    def outputs(self) -> Dict[str, object]:
        return {
            "audit_violations": len(self.auditor.violations),
            "slo_breaches": len(self.slo.breaches),
            "anomalies": len(self.anomaly.anomalies),
            "spans": len(self.spans.spans),
            "events": self.profiler.n_events,
        }


def _sim_rep(spec: SimSpec, state: State, clock: Optional[LayerClock]) -> Rep:
    registry = state.registry
    tasks = uniform_workload(
        registry.names(), spec.tasks, spec.ops, spec.burst_s, CYCLES,
        seed=state.seed, arrival_spread=spec.spread_s,
    )
    bitcache_before = registry.bitcache.stats()
    t0 = perf_counter()
    sim = Simulator()
    scheduler = RoundRobin(time_slice=1e-3)
    service = make_service(spec.policy, registry, **spec.policy_kw)
    bus = EventBus() if clock is None else TimedBus(clock)
    observers = (_Observers(bus, registry.arch.n_clbs) if spec.observed
                 else None)
    undo = (instrument_system(clock, sim, scheduler, service, registry)
            if clock is not None else None)
    problems: List[str] = []
    try:
        kernel = Kernel(sim, scheduler, service, context_switch=20e-6,
                        bus=bus)
        kernel.spawn_all(tasks)
        kernel.run()
        if observers is not None:
            observers.finish()
    except Exception as exc:  # reported; unfinished tasks count as failed
        problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        if undo is not None:
            undo()
    wall = perf_counter() - t0

    failed = spec.ops * sum(1 for t in tasks if t.state is not TaskState.DONE)
    metrics = service.metrics
    accounting = [
        (t.name, t.accounting.arrival, t.accounting.completion,
         t.accounting.cpu_time, t.accounting.fpga_wait_time,
         t.accounting.fpga_reconfig_time, t.accounting.fpga_exec_time)
        for t in tasks
    ]
    outputs: Dict[str, object] = {
        "makespan_s": (
            max(a[2] for a in accounting) - min(a[1] for a in accounting)
            if not failed else None
        ),
        "reconfig_s": metrics.load_time,
        "frames_written": metrics.frames_written,
        "loads": metrics.n_loads,
        "hits": metrics.n_hits,
        "misses": metrics.n_misses,
        "tasks_digest": _digest(accounting),
    }
    if observers is not None:
        outputs.update(observers.outputs())
        if observers.auditor.violations:
            problems.append(
                f"{len(observers.auditor.violations)} audit violations")
    rep = Rep(wall, spec.tasks * spec.ops, failed, outputs, problems, clock)
    if clock is not None:
        rep.event_counts = dict(bus.event_counts)
        rep.layers = _sim_layers(clock, rep, service, registry,
                                 bitcache_before)
    return rep


def _sim_layers(clock: LayerClock, rep: Rep, service, registry,
                bitcache_before: Dict[str, int]) -> Dict[str, float]:
    layers: Dict[str, float] = {}
    for layer in SIM_LAYERS:
        layers[f"{layer}.calls"] = clock.calls.get(layer, 0)
        layers[f"{layer}.self_s"] = clock.self_s.get(layer, 0.0)
    for sub in SUBSCRIBERS:
        layers[f"telemetry.sub.{sub}.self_s"] = clock.self_s.get(
            f"telemetry.sub.{sub}", 0.0)
    placed = rep.event_counts.get("Placement", 0)
    attempts = placed + rep.event_counts.get("Suspend", 0)
    after = registry.bitcache.stats()
    lookups = sum(after[k] - bitcache_before[k]
                  for k in ("hits", "misses", "relocations"))
    layers.update({
        "core.service.hit_ratio": service.metrics.hit_rate,
        "core.service.place_ratio": placed / attempts if attempts else 0.0,
        "core.bitcache.hit_ratio": (
            (after["hits"] - bitcache_before["hits"]) / lookups
            if lookups else 0.0
        ),
        "osim.makespan_s": rep.outputs["makespan_s"] or 0.0,
        "core.service.load_time_s": rep.outputs["reconfig_s"],
        "device.fpga.frames_written": rep.outputs["frames_written"],
    })
    return layers


# -- compile flow -------------------------------------------------------------

def _cad_outputs(results) -> Dict[str, object]:
    return {
        "wirelength": sum(r.wirelength for r in results),
        "critical_path_ns": sum(r.critical_path for r in results) * 1e9,
        "bitstreams": _digest([bitstream_digest(r.bitstream).hex()
                               for r in results]),
    }


def _cad_rep(spec, state: State, clock: Optional[LayerClock]) -> Rep:
    netlists = [_netlist(c) for c in spec.circuits]
    compile_ = (compile_netlist if clock is None
                else clock.timed("cad.flow", compile_netlist))
    results, problems = [], []
    t0 = perf_counter()
    cache = state.cache if spec.warm else CompileCache()
    for netlist in netlists:
        try:
            results.append(compile_(
                netlist, state.arch, seed=state.seed, effort="sa",
                cache=cache,
                instrument=None if clock is None else CadInstrumentation(),
            ))
        except Exception as exc:  # reported and counted as failed
            problems.append(f"{netlist.name}: {type(exc).__name__}: {exc}")
    wall = perf_counter() - t0

    outputs = _cad_outputs(results)
    if spec.warm and outputs != state.cold_outputs:
        problems.append("warm compile differs from the cold one")
    rep = Rep(wall, len(netlists), len(netlists) - len(results), outputs,
              problems, clock)
    if clock is not None:
        rep.layers = _cad_layers(clock, results, outputs)
    return rep


def _cad_layers(clock: LayerClock, results, outputs) -> Dict[str, float]:
    profiles = [r.profile for r in results]
    phase_s = {p: sum(prof.phase_seconds.get(p, 0.0) for prof in profiles)
               for p in CAD_PHASES}
    flow_s = clock.self_s["cad.flow"]
    steps = [rec for prof in profiles for rec in prof.sa_curve]
    moves = sum(rec["moves"] for rec in steps)
    hits = sum(prof.cache_hits for prof in profiles)
    lookups = hits + sum(prof.cache_misses for prof in profiles)
    layers: Dict[str, float] = {
        f"cad.{p}.self_s": seconds for p, seconds in phase_s.items()
    }
    layers.update({
        "cad.flow.calls": clock.calls["cad.flow"],
        "cad.flow.self_s": flow_s - sum(phase_s.values()),
        "cad.place.sa_steps": len(steps),
        "cad.place.acceptance": (
            sum(rec["accepted"] for rec in steps) / moves if moves else 0.0
        ),
        "cad.route.iterations": sum(p.route_iterations for p in profiles),
        "cad.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cad.phase_coverage": sum(phase_s.values()) / flow_s,
        "cad.route.wirelength": outputs["wirelength"],
        "cad.timing.critical_path_ns": outputs["critical_path_ns"],
    })
    return layers
