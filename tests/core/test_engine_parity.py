"""Engine-parity tests: pluggable engines preserve default behavior.

The multi-layer refactor routed every policy's placement, victim
selection, and demand-fault handling through pluggable engines.  These
tests pin the contract: a service built with *default* parameters and a
service built with the *explicitly named* default engines produce the
same telemetry stream event for event — timestamps, ordering, payloads.
(``source`` attributions are minted per process and are normalized out.)

The committed ``benchmarks/baselines/`` artifacts pin the same property
against the pre-refactor seed via event counts; these tests keep it
pinned at full event granularity without needing the old code.
"""

import pytest

from repro.core import (
    ConfigRegistry,
    LruReplacement,
    make_paged_circuit,
    make_segmented_circuit,
    make_service,
)
from repro.device import get_family
from repro.osim import (
    AgedPriority,
    CpuBurst,
    DeadlineEDF,
    Fifo,
    FpgaOp,
    Kernel,
    PriorityScheduler,
    RoundRobin,
    Task,
    uniform_workload,
)
from repro.sim import Simulator
from repro.telemetry import EventBus, EventLog
from tests.osim.reference import reference_scheduler


def canon(events):
    """Events as comparable tuples, ignoring process-global sources."""
    out = []
    for e in events:
        fields = {k: v for k, v in vars(e).items() if k != "source"}
        out.append((type(e).__name__,
                    tuple(sorted(fields.items()))))
    return out


def run_events(policy, build, scheduler_factory=None):
    """One full simulated run; returns the canonical event stream.

    ``build`` makes a fresh (registry, tasks, policy_kw) triple so the
    two compared runs share nothing mutable.  ``scheduler_factory``
    overrides the CPU scheduler (default: the seed RoundRobin).
    """
    registry, tasks, policy_kw = build()
    sim = Simulator()
    service = make_service(policy, registry, **policy_kw)
    bus = EventBus()
    log = EventLog(bus)
    if scheduler_factory is None:
        def scheduler_factory():
            return RoundRobin(time_slice=1e-3)
    kernel = Kernel(sim, scheduler_factory(), service,
                    context_switch=0.0, bus=bus)
    kernel.spawn_all(tasks)
    kernel.run()
    return canon(log.events)


def contended_build(**policy_kw):
    """Four circuits cycling through a 12-wide device: every policy
    faults, evicts, and re-places."""
    def build():
        arch = get_family("VF12")
        reg = ConfigRegistry(arch)
        names = []
        for i, w in enumerate([3, 3, 4, 6]):
            reg.register_synthetic(f"f{i}", w, arch.height,
                                   critical_path=20e-9)
            names.append(f"f{i}")
        tasks = uniform_workload(
            names, n_tasks=6, ops_per_task=4, cpu_burst=0.2e-3,
            cycles=50_000, seed=11,
        )
        return reg, tasks, policy_kw
    return build


def paged_build(**policy_kw):
    def build():
        arch = get_family("VF12")
        reg = ConfigRegistry(arch)
        circ = make_paged_circuit(reg, "virt", n_pages=6, page_width=3,
                                  pattern="zipf", seed=5)
        tasks = [Task("t", [FpgaOp("virt", 40)]),
                 Task("u", [FpgaOp("virt", 40)], arrival=1e-4)]
        kw = dict(circuits=[circ], frame_width=3, **policy_kw)
        return reg, tasks, kw
    return build


def segmented_build(**policy_kw):
    def build():
        arch = get_family("VF12")
        reg = ConfigRegistry(arch)
        circ = make_segmented_circuit(reg, "virt",
                                      widths=[5, 3, 6, 4, 2, 4],
                                      pattern="zipf", seed=5)
        tasks = [Task("t", [FpgaOp("virt", 40)])]
        kw = dict(circuits=[circ], **policy_kw)
        return reg, tasks, kw
    return build


def overlay_build(**policy_kw):
    def build():
        arch = get_family("VF12")
        reg = ConfigRegistry(arch)
        names = []
        for i, w in enumerate([3, 3, 4]):
            reg.register_synthetic(f"f{i}", w, arch.height,
                                   critical_path=20e-9)
            names.append(f"f{i}")
        tasks = uniform_workload(
            names, n_tasks=4, ops_per_task=3, cpu_burst=0.2e-3,
            cycles=50_000, seed=11,
        )
        kw = dict(resident_names=["f0"], **policy_kw)
        return reg, tasks, kw
    return build


CASES = [
    ("fixed",
     contended_build(n_partitions=2),
     contended_build(n_partitions=2, replacement="lru",
                     replacement_seed=0)),
    ("variable",
     contended_build(hold_mode="op"),
     contended_build(hold_mode="op", replacement="lru",
                     placement="column-first-fit")),
    ("variable",
     contended_build(hold_mode="op", layout="rect"),
     contended_build(hold_mode="op", layout="rect",
                     placement="bottom-left", replacement="lru")),
    ("overlay",
     overlay_build(),
     overlay_build(replacement="lru", overlay_slots=1)),
    ("paged",
     paged_build(),
     paged_build(replacement="lru")),
    ("segmented",
     segmented_build(),
     segmented_build(replacement="lru",
                     placement="column-first-fit")),
    ("multi",
     contended_build(n_devices=2),
     contended_build(n_devices=2, dispatch="affinity")),
]


@pytest.mark.parametrize(
    "policy,default_build,explicit_build", CASES,
    ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)],
)
def test_default_equals_explicit_engines(policy, default_build,
                                         explicit_build):
    default_run = run_events(policy, default_build)
    explicit_run = run_events(policy, explicit_build)
    assert default_run == explicit_run
    assert default_run  # the workload actually produced events


def test_replacement_instance_equals_name():
    """Passing a ready-made policy object is the same engine."""
    a = run_events("fixed", contended_build(n_partitions=2))
    b = run_events("fixed", contended_build(n_partitions=2,
                                            replacement=LruReplacement()))
    assert a == b


def test_runs_are_reproducible():
    """The simulation itself is deterministic — the parity comparisons
    above compare real signal, not noise."""
    build = contended_build(hold_mode="op")
    assert run_events("variable", build) == run_events("variable", build)


@pytest.mark.parametrize("policy,build", [
    ("fixed", contended_build(n_partitions=2, replacement="mru")),
    ("fixed", contended_build(n_partitions=2, replacement="random",
                              replacement_seed=7)),
    ("variable", contended_build(hold_mode="op", replacement="fifo")),
    ("variable", contended_build(hold_mode="op", layout="rect",
                                 placement="skyline")),
    ("variable", contended_build(hold_mode="op", layout="rect",
                                 placement="best-fit")),
    ("overlay", overlay_build(replacement="clock")),
    ("paged", paged_build(replacement="random", replacement_seed=3)),
    ("segmented", segmented_build(placement="column-best-fit",
                                  replacement="mru")),
    ("multi", contended_build(n_devices=2, dispatch="round-robin")),
    ("multi", contended_build(n_devices=2, dispatch="least-occupancy")),
])
def test_non_default_engines_complete(policy, build):
    """Every non-default engine drives the same workload to completion
    (the cross-product the benchmarks sweep is actually usable)."""
    events = run_events(policy, build)
    assert any(name == "TaskDone" for name, _fields in events)


def test_seeded_random_replacement_reproducible():
    build_a = paged_build(replacement="random", replacement_seed=9)
    build_b = paged_build(replacement="random", replacement_seed=9)
    assert run_events("paged", build_a) == run_events("paged", build_b)


# -- CPU scheduling disciplines vs the reference oracle ---------------------
#
# Each discipline in repro.osim.scheduler must drive a whole system
# exactly as the seed list queue kept in tests/osim/reference.py does:
# same dispatches, same FPGA requests, same timestamps.

def ranked(build):
    """``build`` with mixed priorities and deadlines, and CPU bursts ten
    times longer so the ready queue builds up: each discipline then
    orders it its own way."""
    def ranked_build():
        registry, tasks, policy_kw = build()
        for i, task in enumerate(tasks):
            task.priority = (i * 7) % 4
            task.deadline = (task.arrival + 1e-3 * ((i * 5) % 6)
                             if i % 3 else None)
            task.program = [
                CpuBurst(step.duration * 10)
                if isinstance(step, CpuBurst) else step
                for step in task.program
            ]
        return registry, tasks, policy_kw
    return ranked_build


@pytest.mark.parametrize(
    "policy,default_build,explicit_build", CASES,
    ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)],
)
def test_seed_rr_equals_engine_rr(policy, default_build, explicit_build):
    """The default ``RoundRobin`` on every policy, against the oracle."""
    seed_run = run_events(policy, default_build)
    oracle_run = run_events(
        policy, default_build,
        scheduler_factory=lambda: reference_scheduler("rr",
                                                      time_slice=1e-3))
    assert seed_run == oracle_run
    assert seed_run


AGING = 1e-3  # half a CPU burst of waiting outranks a priority level


@pytest.mark.parametrize("name,seed_factory", [
    ("fifo", Fifo),
    ("priority", lambda: PriorityScheduler(time_slice=1e-3)),
    ("rr", lambda: RoundRobin(time_slice=1e-3)),
    ("edf", lambda: DeadlineEDF(time_slice=1e-3)),
    ("aged-priority", lambda: AgedPriority(time_slice=1e-3, aging=AGING)),
])
def test_seed_class_equals_engine(name, seed_factory):
    build = ranked(contended_build(hold_mode="op"))
    seed_run = run_events("variable", build, scheduler_factory=seed_factory)
    oracle_run = run_events(
        "variable", build,
        scheduler_factory=lambda: reference_scheduler(
            name, time_slice=1e-3, aging=AGING))
    assert seed_run == oracle_run
    assert seed_run


def test_ranked_build_separates_disciplines():
    """The parity above compares real signal: on the ranked workload the
    disciplines dispatch in different orders."""
    build = ranked(contended_build(hold_mode="op"))
    orders = {
        name: tuple(fields for event, fields in run_events(
            "variable", build,
            scheduler_factory=lambda: reference_scheduler(
                name, time_slice=1e-3, aging=AGING))
            if event == "Dispatch")
        for name in ("rr", "priority", "edf", "aged-priority")
    }
    assert len(set(orders.values())) == len(orders)


def test_fabric_sched_default_equals_explicit():
    """``dynamic`` with no fabric engine named is the seed fixed-quantum
    behavior, event for event (including with a fabric time slice)."""
    kw = dict(preemption="save-restore", fpga_time_slice=1e-3)
    default_run = run_events("dynamic", contended_build(**kw))
    explicit_run = run_events(
        "dynamic", contended_build(fabric_sched="fixed-quantum", **kw))
    assert default_run == explicit_run
    assert default_run


def test_cost_aware_fabric_completes():
    events = run_events(
        "dynamic",
        contended_build(preemption="save-restore", fpga_time_slice=1e-3,
                        fabric_sched="cost-aware"))
    assert any(name == "TaskDone" for name, _fields in events)
