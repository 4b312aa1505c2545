"""The fabric verdict rule and the non-preemptable fold.

``fabric_verdict`` decides whether a contended quantum boundary of a
time-sliced :class:`~repro.core.DynamicLoadingService` switches.  These
tests pin its four outcomes and their boundaries, the ``(reason,
preempt)`` counts it produces on the E1c workload shape, and that
``make_service("nonpreemptable")`` is dynamic loading without a fabric
slice, event for event.
"""

from collections import Counter

import pytest

from repro.core import (
    FABRIC_SCHEDULERS,
    ConfigRegistry,
    DynamicLoadingService,
    make_service,
)
from repro.core.dynamic_loading import fabric_verdict
from repro.device import get_family
from repro.osim import FpgaOp, RoundRobin, Task
from repro.telemetry import SchedDecision

CP = 25e-9
INF = float("inf")


class TestVerdictRule:
    def test_fixed_quantum_always_switches(self):
        assert fabric_verdict("fixed-quantum", 0.0, 1.0, 5.0) == (True, "waiters")
        assert fabric_verdict("fixed-quantum", INF, 1.0, 0.0) == (True, "waiters")

    def test_deadline_pressure_comes_first(self):
        """A tight waiter deadline switches even when the bill is high."""
        assert fabric_verdict("cost-aware", 0.5, 1.0, 9.0) == (
            True, "deadline-pressure")

    def test_slack_equal_to_remaining_is_no_pressure(self):
        assert fabric_verdict("cost-aware", 1.0, 1.0, 9.0) == (
            False, "bill-exceeds-benefit")

    def test_cheap_switch(self):
        assert fabric_verdict("cost-aware", INF, 1.0, 0.25) == (
            True, "cheap-switch")

    def test_bill_equal_to_remaining_is_cheap(self):
        assert fabric_verdict("cost-aware", INF, 1.0, 1.0) == (
            True, "cheap-switch")

    def test_bill_exceeds_benefit(self):
        assert fabric_verdict("cost-aware", INF, 1.0, 1.5) == (
            False, "bill-exceeds-benefit")


def e1c_reasons(harness, fabric_sched, deadline=None):
    """``(reason, preempt)`` counts of every SchedDecision on the E1c
    workload shape: two stateful 6-column circuits time-slicing VF12 at a
    4 MHz serial/readback port under save-restore preemption."""
    arch = get_family("VF12").scaled(serial_rate=4e6, readback_rate=4e6)
    registry = ConfigRegistry(arch)
    for i in range(2):
        registry.register_synthetic(f"f{i}", 6, arch.height,
                                    n_state_bits=8, critical_path=CP)
    tasks = [
        Task("t0", [FpgaOp("f0", 800_000)] * 2),
        Task("t1", [FpgaOp("f1", 800_000)] * 2, arrival=1e-4,
             deadline=deadline),
    ]
    service = make_service("dynamic", registry, preemption="save-restore",
                           fpga_time_slice=2e-3, fabric_sched=fabric_sched)
    h = harness(service, scheduler=RoundRobin(time_slice=1e-3),
                context_switch=20e-6)
    h.run(tasks)
    return Counter((e.reason, e.preempt) for e in h.log.of_type(SchedDecision))


@pytest.mark.parametrize("fabric_sched, deadline, expected", [
    ("fixed-quantum", None, {("waiters", True): 36}),
    ("cost-aware", None, {("cheap-switch", True): 32,
                          ("bill-exceeds-benefit", False): 3}),
    ("cost-aware", 0.03, {("cheap-switch", True): 17,
                          ("deadline-pressure", True): 16,
                          ("bill-exceeds-benefit", False): 2}),
])
def test_e1c_reason_counts(harness, fabric_sched, deadline, expected):
    assert e1c_reasons(harness, fabric_sched, deadline) == expected


def test_unknown_fabric_sched_names_both_rules(registry):
    assert FABRIC_SCHEDULERS == ("fixed-quantum", "cost-aware")
    with pytest.raises(ValueError, match="cost-aware.*fixed-quantum"):
        DynamicLoadingService(registry, fabric_sched="round-robin")
    with pytest.raises(ValueError, match="unknown fabric scheduler"):
        make_service("dynamic", registry, fabric_sched=None)


class TestNonPreemptableFold:
    def test_is_dynamic_loading_without_a_slice(self, registry):
        svc = make_service("nonpreemptable", registry)
        assert type(svc) is DynamicLoadingService
        assert svc.fpga_time_slice is None

    def test_slice_is_a_type_error(self, registry):
        with pytest.raises(TypeError):
            make_service("nonpreemptable", registry, fpga_time_slice=1e-3)

    def test_same_event_stream_as_dynamic_on_e3(self, harness):
        """The E3 workload: six 10 ms ops on three 4-column circuits."""
        def stream(policy):
            arch = get_family("VF12")
            registry = ConfigRegistry(arch)
            for i in range(3):
                registry.register_synthetic(f"f{i}", 4, arch.height,
                                            critical_path=CP)
            tasks = [Task(f"t{i}", [FpgaOp(f"f{i % 3}", 400_000)],
                          arrival=i * 1e-4) for i in range(6)]
            h = harness(make_service(policy, registry),
                        scheduler=RoundRobin(time_slice=1e-3),
                        context_switch=20e-6)
            h.run(tasks)
            return [(type(e).__name__,
                     sorted((k, v) for k, v in vars(e).items()
                            if k != "source"))
                    for e in h.log.events]

        nonpreemptable = stream("nonpreemptable")
        assert len(nonpreemptable) == 75
        assert nonpreemptable == stream("dynamic")
