"""CAD instrumentation: inertness, profiles, round-trips, failure paths.

The load-bearing property is **observer inertness**: threading a
:class:`CadInstrumentation` through the flow must not perturb a single
RNG draw or cost comparison, so placements and bitstreams are
bit-identical with instrumentation on or off.  Everything else (profile
aggregation, JSONL round-trip, bus publication, failure enrichment)
rides on top of that guarantee.
"""

import io
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cad import (
    PHASES,
    CadAnnealStep,
    CadCacheLookup,
    CadInstrumentation,
    CadPhaseEnd,
    CadPhaseStart,
    CadRouteIteration,
    CompileProfile,
    RoutingError,
    compile_netlist,
)
from repro.device import FrameCodec, get_family
from repro.netlist import alu, parity_tree, random_logic, ripple_adder, serial_crc
from repro.telemetry import EventBus, Profiler
from repro.telemetry.exporters import read_jsonl, to_jsonl

ARCH = get_family("VF10")


def _fake_clock():
    """Deterministic strictly-increasing clock (1 ms per reading)."""
    t = [0.0]

    def tick():
        t[0] += 1e-3
        return t[0]

    return tick


# -- inertness ---------------------------------------------------------------
class TestInertness:
    @pytest.mark.parametrize("effort", ["greedy", "sa"])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_bit_identical_with_and_without(self, effort, seed):
        bare = compile_netlist(ripple_adder(4), ARCH, seed=seed,
                               effort=effort)
        inst = compile_netlist(ripple_adder(4), ARCH, seed=seed,
                               effort=effort,
                               instrument=CadInstrumentation())
        assert inst.placement.coords == bare.placement.coords
        assert inst.bitstream == bare.bitstream
        assert inst.wirelength == bare.wirelength
        assert inst.critical_path == bare.critical_path

    @given(st.integers(8, 28), st.integers(0, 2**31))
    @settings(max_examples=6, deadline=None)
    def test_bit_identical_random_circuits(self, n_gates, seed):
        nl = random_logic(n_gates, 3, 2, seed)
        bare = compile_netlist(nl, ARCH, seed=seed & 0xFF, effort="sa")
        inst = compile_netlist(nl, ARCH, seed=seed & 0xFF, effort="sa",
                               instrument=CadInstrumentation())
        assert inst.placement.coords == bare.placement.coords
        assert inst.bitstream == bare.bitstream

    def test_disabled_flow_has_no_profile(self):
        res = compile_netlist(ripple_adder(3), ARCH, seed=1, effort="greedy")
        assert res.profile is None

    def test_disabled_flow_publishes_nothing(self):
        """A live bus sees zero events from an uninstrumented compile."""
        bus = EventBus()
        profiler = Profiler(bus)
        compile_netlist(ripple_adder(3), ARCH, seed=1, effort="greedy")
        assert profiler.n_events == 0


# -- profile content ---------------------------------------------------------
class TestProfile:
    def test_phases_cover_the_flow_in_order(self):
        instr = CadInstrumentation()
        compile_netlist(ripple_adder(4), ARCH, seed=3, effort="sa",
                        instrument=instr)
        prof = instr.profile()
        names = [rec["phase"] for rec in prof.phases]
        # A single-attempt compile runs each phase exactly once, in the
        # canonical order.
        assert names == list(PHASES)
        assert all(rec["seconds"] >= 0 for rec in prof.phases)
        assert prof.total_seconds == pytest.approx(
            sum(prof.phase_seconds.values()))

    def test_phase_sizes_describe_outputs(self):
        instr = CadInstrumentation()
        res = compile_netlist(ripple_adder(4), ARCH, seed=3, effort="greedy",
                              instrument=instr)
        sizes = {rec["phase"]: rec["size"] for rec in res.profile.phases}
        assert sizes["pack"] == res.bitstream.used_clbs
        assert sizes["rrg"] == res.profile.peak_rrg_nodes > 0
        assert sizes["bitgen"] == len(res.bitstream.frames_touched(ARCH))

    def test_sa_curve_shape(self):
        instr = CadInstrumentation()
        compile_netlist(ripple_adder(4), ARCH, seed=3, effort="sa",
                        instrument=instr)
        curve = instr.profile().sa_curve
        assert len(curve) > 1
        temps = [rec["temperature"] for rec in curve]
        assert all(b < a for a, b in zip(temps, temps[1:]))
        assert all(0.0 <= rec["acceptance"] <= 1.0 for rec in curve)
        assert all(rec["accepted"] <= rec["moves"] for rec in curve)

    def test_greedy_has_no_sa_curve(self):
        instr = CadInstrumentation()
        compile_netlist(ripple_adder(4), ARCH, seed=3, effort="greedy",
                        instrument=instr)
        prof = instr.profile()
        assert prof.sa_steps == 0 and prof.final_cost == 0.0

    def test_route_curve_converges(self):
        instr = CadInstrumentation()
        compile_netlist(serial_crc(8, 0x07), ARCH, seed=3, effort="greedy",
                        instrument=instr)
        curve = instr.profile().route_curve
        assert curve and curve[-1]["overused"] == 0
        pressures = [rec["pressure"] for rec in curve]
        assert all(b > a for a, b in zip(pressures, pressures[1:]))

    def test_result_profile_equals_event_reduction(self):
        instr = CadInstrumentation()
        res = compile_netlist(alu(3), ARCH, seed=3, effort="sa",
                              instrument=instr)
        assert res.profile.as_dict() == \
            CompileProfile.from_events(instr.events).as_dict()

    def test_deterministic_with_injected_clock(self):
        profs = []
        for _ in range(2):
            instr = CadInstrumentation(clock=_fake_clock())
            compile_netlist(ripple_adder(4), ARCH, seed=3, effort="sa",
                            instrument=instr)
            profs.append(instr.profile().as_dict())
        assert profs[0] == profs[1]

    def test_render_mentions_every_phase(self):
        instr = CadInstrumentation(clock=_fake_clock())
        compile_netlist(ripple_adder(4), ARCH, seed=3, effort="sa",
                        instrument=instr)
        text = instr.profile().render()
        for phase in PHASES:
            assert phase in text
        assert "SA cost curve" in text and "PathFinder convergence" in text


# -- bus + exporter integration ---------------------------------------------
class TestTelemetrySpine:
    def test_events_publish_to_bus_and_bucket_as_cad(self):
        bus = EventBus()
        profiler = Profiler(bus)
        instr = CadInstrumentation(bus=bus)
        compile_netlist(ripple_adder(4), ARCH, seed=3, effort="sa",
                        instrument=instr)
        assert profiler.n_events == len(instr.events) > 0
        assert profiler.by_subsystem() == {
            "cad": pytest.approx(instr.profile().total_seconds)}
        summary = profiler.summary()
        assert summary["cad"]["counts"]["CadPhaseEnd"] == len(PHASES)
        assert summary["cad"]["phase_wall_seconds"] == pytest.approx(
            instr.profile().total_seconds)

    def test_jsonl_round_trip_preserves_the_profile(self):
        instr = CadInstrumentation()
        compile_netlist(alu(3), ARCH, seed=3, effort="sa", instrument=instr)
        buf = io.StringIO()
        to_jsonl(instr.events, buf)
        recovered = read_jsonl(io.StringIO(buf.getvalue()))
        assert [type(e).__name__ for e in recovered] == \
            [type(e).__name__ for e in instr.events]
        assert CompileProfile.from_events(recovered).as_dict() == \
            instr.profile().as_dict()

    def test_event_types_round_trip_fields(self):
        events = [
            CadPhaseStart(time=0.0, source="cad", phase="place", size=9),
            CadPhaseEnd(time=0.0, source="cad", phase="place",
                        seconds=0.25, size=9),
            CadAnnealStep(time=0.1, source="cad", step=2, temperature=0.64,
                          moves=128, accepted=17, cost=88.0,
                          wall_seconds=0.01),
            CadRouteIteration(time=0.2, source="cad", iteration=1,
                              overused=4, ripped_up=3, pressure=1.8,
                              wall_seconds=0.02),
        ]
        buf = io.StringIO()
        to_jsonl(events, buf)
        assert read_jsonl(io.StringIO(buf.getvalue())) == events

    def test_recorded_stage_lookups_are_listed_not_counted(self):
        """Streams recorded when the cache also had pack/place/route
        stage caches still load, and only flow lookups count."""
        events = [
            CadCacheLookup(time=0.0, source="cad", stage=stage,
                           outcome=outcome, digest="d")
            for stage, outcome in [("flow", "miss"), ("flow", "miss"),
                                   ("pack", "miss"), ("place", "miss"),
                                   ("route", "miss"), ("flow", "hit"),
                                   ("pack", "hit")]
        ]
        buf = io.StringIO()
        to_jsonl(events, buf)
        prof = CompileProfile.from_events(
            read_jsonl(io.StringIO(buf.getvalue())))
        assert (prof.cache_hits, prof.cache_misses) == (1, 2)
        assert len(prof.cache_lookups) == len(events)


# -- failure paths -----------------------------------------------------------
class TestFailurePaths:
    def test_routing_error_carries_convergence_history(self):
        with pytest.raises(RoutingError) as exc:
            compile_netlist(serial_crc(8, 0x07), ARCH, seed=3,
                            effort="greedy", max_route_iterations=1)
        msg = str(exc.value)
        assert "final pressure" in msg
        assert "overused per iteration" in msg

    def test_failed_compile_still_records_phases(self):
        instr = CadInstrumentation()
        with pytest.raises(RoutingError):
            compile_netlist(serial_crc(8, 0x07), ARCH, seed=3,
                            effort="greedy", max_route_iterations=1,
                            instrument=instr)
        prof = instr.profile()
        # The route phase of every discarded auto-region attempt is
        # closed (the context records the end even when it raises), and
        # the last iteration left congestion standing.
        route_phases = [r for r in prof.phases if r["phase"] == "route"]
        assert route_phases
        assert prof.final_overuse > 0
        # No attempt got past routing.
        assert not any(r["phase"] == "bitgen" for r in prof.phases)

    def test_auto_region_retry_maps_once_and_skips_a_repeated_region(self):
        """The 1x10 column region fails to route, the next candidate is
        the same 1x10 and is skipped, and 2x10 routes: one techmap and
        pack, two place/rrg/route attempts, and the bitstream of a
        compile straight into 2x10."""
        kw = dict(shape="columns", effort="greedy", seed=1)
        instr = CadInstrumentation()
        auto = compile_netlist(parity_tree(8), ARCH, instrument=instr, **kw)
        counts = Counter(rec["phase"] for rec in instr.profile().phases)
        assert counts == {"techmap": 1, "pack": 1, "place": 2, "rrg": 2,
                          "route": 2, "timing": 1, "bitgen": 1}
        region = auto.bitstream.region
        assert (region.w, region.h) == (2, 10)
        explicit = compile_netlist(parity_tree(8), ARCH, region=region, **kw)
        assert auto.bitstream == explicit.bitstream
        codec = FrameCodec(ARCH)
        auto_frames, explicit_frames = (
            codec.build_frames(bs.clbs, bs.switches, bs.iobs).tobytes()
            for bs in (auto.bitstream, explicit.bitstream))
        assert auto_frames == explicit_frames
