"""Parity of the column allocator's search shortcuts with the oracle.

:class:`repro.core.ColumnAllocator` fails a request that no free span is
wide enough for without asking its strategy, and a merge when nothing
was released since the last one without sweeping;
:class:`tests.core.reference.ReferenceColumnAllocator` searches and
sweeps every time.  Each contended run below is made twice, once with
the production allocator and once with the oracle swapped in, and must
publish the same events with the same fields in the same order, end the
same way (variable partitioning under ``gc="none"`` may deadlock) and
count the same starvation and compaction refusals.

The variable-partitioning inputs are ``sim-contended``'s widths on VF12
(3, 4, 5, 3, 4, 5 columns; all but the first sequential, the third with
inaccessible state), sized so that requests wait, starve, deadlock,
relocate state or refuse to, and ``random`` replacement sometimes
chooses among several victims.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core import (
    ColumnAllocator,
    ConfigRegistry,
    SegmentedVfpgaService,
    VariablePartitionService,
    make_segmented_circuit,
)
from repro.device import get_family
from repro.osim import DeadlockError, Kernel, RoundRobin, uniform_workload
from repro.sim import Simulator
from repro.telemetry import EventBus, EventLog
from tests.core.reference import ReferenceColumnAllocator

WIDTHS = (3, 4, 5, 3, 4, 5)
FITS = ("column-first-fit", "column-best-fit")
REPLACEMENTS = ("lru", "random")
SEEDS = (1, 3)


def variable_service(gc, hold_mode, fit, replacement, seed):
    arch = get_family("VF12")
    reg = ConfigRegistry(arch)
    names = []
    for i, w in enumerate(WIDTHS):
        reg.register_synthetic(f"w{w}-{i}", w, arch.height,
                               n_state_bits=0 if i == 0 else 2 * w,
                               state_accessible=i != 2)
        names.append(f"w{w}-{i}")
    tasks = uniform_workload(names, 12, 3, 5e-3, 4000, seed=seed,
                             arrival_spread=0.01)
    svc = VariablePartitionService(
        reg, gc=gc, hold_mode=hold_mode, placement=fit,
        replacement=replacement, replacement_seed=seed,
    )
    return svc, tasks


def segmented_service(fit, replacement, seed):
    arch = get_family("VF12")
    reg = ConfigRegistry(arch)
    circuits = [
        make_segmented_circuit(reg, "sa", WIDTHS[:3], pattern="zipf",
                               seed=seed),
        make_segmented_circuit(reg, "sb", WIDTHS[3:]),
    ]
    tasks = uniform_workload(["sa", "sb"], 4, 3, 0.2e-3, 12, seed=seed,
                             arrival_spread=1e-3)
    svc = SegmentedVfpgaService(reg, circuits, replacement=replacement,
                                replacement_seed=seed, placement=fit)
    return svc, tasks


def run(svc, tasks):
    """Every event as a record (``source`` without its instance number),
    how the run ended, and the service's counters."""
    bus = EventBus()
    log = EventLog(bus)
    kernel = Kernel(Simulator(), RoundRobin(time_slice=1e-3), svc,
                    context_switch=20e-6, bus=bus)
    kernel.spawn_all(tasks)
    try:
        kernel.run()
        ended = "done"
    except DeadlockError:
        ended = "deadlock"
    records = []
    for event in log.events:
        rec = event.to_record()
        rec["source"] = rec["source"].split("#")[0]
        records.append(rec)
    counters = {name: getattr(svc, name, None)
                for name in ("starvation_events", "compaction_refusals")}
    return records, ended, counters


def both(build, swap):
    svc, tasks = build()
    assert type(svc.allocator) is ColumnAllocator
    production = run(svc, tasks)
    svc, tasks = build()
    svc.allocator = swap(svc)
    reference = run(svc, tasks)
    return production, reference


@pytest.mark.parametrize(
    "gc,hold_mode,fit,replacement,seed",
    list(itertools.product(("none", "merge", "compact"), ("op", "task"),
                           FITS, REPLACEMENTS, SEEDS)),
)
def test_variable_partitions_match_reference(gc, hold_mode, fit,
                                             replacement, seed):
    production, reference = both(
        lambda: variable_service(gc, hold_mode, fit, replacement, seed),
        lambda svc: ReferenceColumnAllocator(
            svc.fpga.arch.width, coalesce=False, placement=svc.placement),
    )
    assert production == reference
    records = production[0]
    assert any(rec["event"] == "Suspend" for rec in records)


@pytest.mark.parametrize(
    "fit,replacement,seed",
    list(itertools.product(FITS, REPLACEMENTS, SEEDS)),
)
def test_segments_match_reference(fit, replacement, seed):
    production, reference = both(
        lambda: segmented_service(fit, replacement, seed),
        lambda svc: ReferenceColumnAllocator(
            svc.fpga.arch.width, placement=svc.allocator.placement),
    )
    assert production == reference
    records, ended, _ = production
    assert ended == "done"
    assert any(rec["event"] == "Evict" for rec in records)


def test_grid_reaches_every_outcome():
    """The inputs above starve, deadlock, move state, refuse to move it
    and make ``random`` choose among several victims, so parity covers
    each."""
    seen = dict.fromkeys(("starved", "deadlock", "saved", "refused",
                          "choice"), False)
    for gc, hold_mode, seed in itertools.product(
            ("none", "merge", "compact"), ("op", "task"), SEEDS):
        svc, tasks = variable_service(gc, hold_mode, FITS[0], "random", seed)
        offers = []
        choose = svc.replacement.victim

        def victim(candidates, offers=offers, choose=choose):
            offers.append(len(candidates))
            return choose(candidates)

        svc.replacement.victim = victim
        records, ended, counters = run(svc, tasks)
        seen["starved"] |= counters["starvation_events"] > 0
        seen["deadlock"] |= ended == "deadlock"
        seen["saved"] |= any(rec["event"] == "StateSave" for rec in records)
        seen["refused"] |= counters["compaction_refusals"] > 0
        seen["choice"] |= any(n > 1 for n in offers)
    assert all(seen.values()), seen
