"""CompileCache: content addressing, invalidation and hit fidelity.

The cache key carries everything the compile result depends on —
netlist content digest, device family, region, seed, effort, router
cap — and nothing else.  These tests pin both directions: every
key ingredient change forces a miss, and a hit returns a result
byte-identical to what a fresh compile would have produced.
"""

import numpy as np
import pytest

from repro.cad import (
    CadCacheLookup,
    CadInstrumentation,
    CompileCache,
    compile_netlist,
    netlist_digest,
)
from repro.device import FrameCodec, get_family
from repro.netlist import NetlistBuilder, ripple_adder, serial_crc

ARCH = get_family("VF10")


def compile_kw(**over):
    kw = dict(seed=3, effort="sa", shape="square")
    kw.update(over)
    return kw


class TestNetlistDigest:
    def test_stable_across_regeneration(self):
        assert netlist_digest(ripple_adder(4)) == \
            netlist_digest(ripple_adder(4))

    def test_content_sensitive(self):
        assert netlist_digest(ripple_adder(4)) != \
            netlist_digest(ripple_adder(5))
        assert netlist_digest(ripple_adder(4)) != \
            netlist_digest(serial_crc(8, 0x07))

    def test_mutation_changes_digest(self):
        """No instance memo: editing a netlist must change its digest,
        or the cache would alias distinct designs."""
        b = NetlistBuilder("mut")
        x, y = b.input("x"), b.input("y")
        b.output("o", b.and_(x, y, name="g"))
        nl = b.build()
        before = netlist_digest(nl)
        from dataclasses import replace

        cell = nl.cells["g"]
        nl.replace(replace(cell, fanin=tuple(reversed(cell.fanin))))
        assert netlist_digest(nl) != before


class TestFlowCache:
    def test_warm_hit_is_byte_identical(self, monkeypatch):
        """A warm compile serves the exact configuration bytes a cold
        one produced — checked at the encoded-frame level, under the
        strict audit regime CI regenerates baselines with."""
        monkeypatch.setenv("REPRO_AUDIT", "strict")
        cache = CompileCache()
        cold = compile_netlist(ripple_adder(4), ARCH, cache=cache,
                               **compile_kw())
        warm = compile_netlist(ripple_adder(4), ARCH, cache=cache,
                               **compile_kw())
        assert cache.hits == 1
        assert warm.bitstream == cold.bitstream
        codec = FrameCodec(ARCH)
        f_cold = codec.build_frames(cold.bitstream.clbs,
                                    cold.bitstream.switches,
                                    cold.bitstream.iobs)
        f_warm = codec.build_frames(warm.bitstream.clbs,
                                    warm.bitstream.switches,
                                    warm.bitstream.iobs)
        assert np.array_equal(f_cold, f_warm)
        assert f_cold.tobytes() == f_warm.tobytes()
        assert warm.wirelength == cold.wirelength
        assert warm.critical_path == cold.critical_path

    def test_hit_carries_fresh_profile_not_the_storing_runs(self):
        cache = CompileCache()
        instr = CadInstrumentation()
        compile_netlist(ripple_adder(4), ARCH, cache=cache, **compile_kw())
        warm = compile_netlist(ripple_adder(4), ARCH, cache=cache,
                               instrument=instr, **compile_kw())
        # The warm profile describes the warm run: no phases ran, one
        # flow hit with real bytes behind it.
        assert warm.profile is not None
        assert warm.profile.phase_seconds == {}
        assert warm.profile.cache_hits == 1
        assert warm.profile.cache_bytes_served > 0

    @pytest.mark.parametrize("variant_kw", [
        pytest.param({"seed": 4}, id="seed"),
        pytest.param({"effort": "greedy"}, id="effort"),
        pytest.param({"shape": "columns"}, id="region-shape"),
        pytest.param({"max_route_iterations": 8}, id="router-cap"),
    ])
    def test_flow_option_change_forces_miss(self, variant_kw):
        cache = CompileCache()
        compile_netlist(ripple_adder(4), ARCH, cache=cache, **compile_kw())
        compile_netlist(ripple_adder(4), ARCH, cache=cache,
                        **compile_kw(**variant_kw))
        assert cache.hits == 0

    def test_netlist_content_change_forces_miss(self):
        cache = CompileCache()
        compile_netlist(ripple_adder(4), ARCH, cache=cache, **compile_kw())
        compile_netlist(ripple_adder(5), ARCH, cache=cache, **compile_kw())
        assert cache.hits == 0

    def test_family_change_forces_miss(self):
        cache = CompileCache()
        compile_netlist(ripple_adder(4), ARCH, cache=cache, **compile_kw())
        compile_netlist(ripple_adder(4), get_family("VF12"), cache=cache,
                        **compile_kw())
        assert cache.hits == 0


class TestCacheObservability:
    def test_stats_snapshot(self):
        """A cold and a warm auto-region compile count one miss, one hit
        and one entry: the cold compile looks up and stores once."""
        cache = CompileCache()
        compile_netlist(ripple_adder(4), ARCH, cache=cache, **compile_kw())
        compile_netlist(ripple_adder(4), ARCH, cache=cache, **compile_kw())
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["entries"] == len(cache) == 1
        assert stats["bytes_served"] > 0

    def test_cold_compile_runs_each_step_once(self):
        """One lookup, one techmap and one pack per cold compile."""
        instr = CadInstrumentation()
        compile_netlist(ripple_adder(4), ARCH, cache=CompileCache(),
                        instrument=instr, **compile_kw())
        lookups = [e for e in instr.events
                   if isinstance(e, CadCacheLookup)]
        assert [(e.stage, e.outcome) for e in lookups] == [("flow", "miss")]
        phases = [rec["phase"] for rec in instr.profile().phases]
        assert phases.count("techmap") == 1
        assert phases.count("pack") == 1

    def test_lookup_events_only_when_instrumented(self):
        """Counters always run; typed events only under instrumentation
        (the observer stays inert on plain compiles)."""
        cache = CompileCache()
        compile_netlist(ripple_adder(4), ARCH, cache=cache, **compile_kw())
        instr = CadInstrumentation()
        compile_netlist(ripple_adder(4), ARCH, cache=cache,
                        instrument=instr, **compile_kw())
        lookups = [e for e in instr.events
                   if isinstance(e, CadCacheLookup)]
        assert len(lookups) == 1
        assert lookups[0].stage == "flow"
        assert lookups[0].outcome == "hit"
        assert lookups[0].bytes_served > 0
        assert lookups[0].digest == netlist_digest(ripple_adder(4))

    def test_instrumentation_inert_on_cached_flow(self):
        """Instrumented and plain warm compiles return the same bytes."""
        c1, c2 = CompileCache(), CompileCache()
        compile_netlist(ripple_adder(4), ARCH, cache=c1, **compile_kw())
        compile_netlist(ripple_adder(4), ARCH, cache=c2, **compile_kw())
        plain = compile_netlist(ripple_adder(4), ARCH, cache=c1,
                                **compile_kw())
        seen = compile_netlist(ripple_adder(4), ARCH, cache=c2,
                               instrument=CadInstrumentation(),
                               **compile_kw())
        assert plain.bitstream == seen.bitstream

    def test_registry_shares_one_cache(self):
        """compile_and_register consults the registry-owned cache: the
        same netlist content under a second name is a flow hit."""
        from repro.core import ConfigRegistry

        reg = ConfigRegistry(ARCH)
        reg.compile_and_register(ripple_adder(4), name="a", seed=3)
        reg.compile_and_register(ripple_adder(4), name="b", seed=3)
        assert reg.compile_cache.hits == 1
        assert reg.get("a").bitstream == reg.get("b").bitstream
