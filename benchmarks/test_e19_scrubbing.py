"""E19 — periodic configuration testing and diagnosis (paper §5).

Claim: embedded systems benefit from running "periodic system testing and
diagnosis" on the FPGA.  We apply it to the configuration memory itself:
seeded random configuration upsets hit a device with resident circuits; a
scrubber reads the frames back every ``period`` and reloads corrupted
circuits.

Sweeping the scrub period charts the classic dependability trade-off:
short periods bound the corruption exposure window tightly but burn
configuration-port bandwidth; long periods are cheap but leave circuits
corrupted for a long time.  Expected shape: mean exposure grows ~linearly
with the period (≈ period/2 plus detection latency), while scrub overhead
falls as 1/period.
"""

from _harness import (
    emit,
    make_auditor,
    monotone_nondecreasing,
    monotone_nonincreasing,
    record_run,
)

from repro.analysis import format_table, sweep
from repro.core import ConfigRegistry, Scrubber, UpsetInjector
from repro.device import Fpga, get_family
from repro.sim import Simulator
from repro.telemetry import EventBus

HORIZON = 2.0          # simulated seconds
UPSET_INTERVAL = 20e-3  # mean time between upsets


def run_point(period_ms: float):
    period = period_ms * 1e-3
    sim = Simulator()
    arch = get_family("VF8")
    reg = ConfigRegistry(arch)
    fpga = Fpga(arch)
    for i, name in enumerate(["a", "b"]):
        entry = reg.register_synthetic(name, 3, arch.height, n_state_bits=4)
        fpga.load(name, entry.bitstream.anchored_at(3 * i, 0))
    # Strict audit of the device-port stream: every repair's unload +
    # reload must serialize on the configuration port (the scrubber
    # installs the device telemetry hook when given a bus).
    bus = EventBus()
    auditor = make_auditor(bus, device_port=True)
    inj = UpsetInjector(sim, fpga, mean_interval=UPSET_INTERVAL, seed=31,
                        stop_after=HORIZON * 0.9, bus=bus)
    scrub = Scrubber(sim, fpga, period=period, injector=inj,
                     stop_after=HORIZON, bus=bus)
    try:
        sim.run()
    finally:
        if auditor is not None:
            auditor.finish()
    exposures = [r.exposure for r in inj.records if r.exposure is not None]
    hits = [r for r in inj.records if r.handle is not None]
    return {
        "upsets_on_circuits": len(hits),
        "repairs": scrub.n_repairs,
        "mean_exposure_ms": round(
            sum(exposures) / len(exposures) * 1e3, 2
        ) if exposures else None,
        "scrub_overhead": round(scrub.scrub_time_total / HORIZON, 4),
    }


def test_e19_scrubbing(benchmark):
    periods = [2.0, 8.0, 32.0, 128.0]
    result = benchmark.pedantic(
        lambda: sweep("period_ms", periods, run_point), rounds=1, iterations=1
    )
    # One deterministic summary row per period (no wall clock), so
    # ``repro bench-diff`` gates every scrub output against the baseline.
    for row in result.rows:
        record_run({
            "policy": f"scrub:period_ms={row['period_ms']:g}",
            "scrub": {k: v for k, v in row.items()
                      if k not in ("period_ms", "outcome")},
        })
    emit("e19_scrubbing", format_table(
        result.rows,
        title="E19: configuration scrubbing period sweep "
              f"(mean upset interval {UPSET_INTERVAL * 1e3:.0f} ms)",
    ))
    exposure = result.column("mean_exposure_ms")
    overhead = result.column("scrub_overhead")
    # Shape: exposure grows with the period, overhead shrinks.
    assert monotone_nondecreasing(exposure, slack=0.10)
    assert monotone_nonincreasing(overhead, slack=0.01)
    assert exposure[-1] > 5 * exposure[0]
    assert overhead[0] > 5 * overhead[-1]
    # Everything that was hit eventually gets repaired (scrub keeps up).
    first = result.rows[0]
    assert first["repairs"] >= 1
