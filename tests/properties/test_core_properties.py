"""Property-based tests for the VFPGA manager's data structures."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ColumnAllocator,
    access_trace,
    make_placement,
    make_replacement,
)
from tests.core.reference import ReferenceColumnAllocator

#: The three classic split rules, as placement strategies.
SPLIT_RULES = ["column-first-fit", "column-best-fit", "column-worst-fit"]


class TestAllocatorInvariants:
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("alloc"), st.integers(1, 6),
                          st.sampled_from(SPLIT_RULES + [None])),
                st.tuples(st.just("free"), st.integers(0, 100)),
                st.tuples(st.just("merge"), st.just(0)),
            ),
            max_size=120,
        ),
        st.booleans(),
        st.sampled_from(SPLIT_RULES),
    )
    @settings(max_examples=80)
    def test_conservation_and_disjointness(self, ops, coalesce, rule):
        """... and after every step the allocator is where the
        reference search path, which asks the strategy on every request
        and sweeps on every merge, leaves it."""
        width = 24
        alloc = ColumnAllocator(width, coalesce=coalesce, placement=rule)
        ref = ReferenceColumnAllocator(width, coalesce=coalesce,
                                       placement=rule)
        held = []
        for op in ops:
            if op[0] == "alloc":
                placement = None if op[2] is None else make_placement(op[2])
                anchor = alloc.allocate(op[1], 1, placement=placement)
                assert anchor == ref.allocate(op[1], 1, placement=placement)
                if anchor is not None:
                    held.append((anchor[0], op[1]))
            elif op[0] == "free" and held:
                x, w = held.pop(op[1] % len(held))
                alloc.release((x, 0), w, 1)
                ref.release((x, 0), w, 1)
            elif op[0] == "merge":
                assert alloc.merge_free() == ref.merge_free()
            assert alloc.free_spans == ref.free_spans
            assert alloc.last_proposal == ref.last_proposal
            assert alloc.fragmentation == ref.fragmentation
            # Invariant 1: columns are conserved.
            assert alloc.total_free + sum(w for _x, w in held) == width
            # Invariant 2: all spans (free + held) are pairwise disjoint.
            spans = sorted(alloc.free_spans + held)
            for (x1, w1), (x2, _w2) in zip(spans, spans[1:]):
                assert x1 + w1 <= x2
            # Invariant 3: spans stay inside the device.
            for x, w in spans:
                assert 0 <= x and x + w <= width

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=10))
    def test_allocate_free_all_merge_restores_everything(self, widths):
        alloc = ColumnAllocator(32, coalesce=False)
        held = []
        for w in widths:
            anchor = alloc.allocate(w, 1)
            if anchor is not None:
                held.append((anchor, w))
        for anchor, w in held:
            alloc.release(anchor, w, 1)
        alloc.merge_free()
        assert alloc.free_spans == [(0, 32)]
        assert alloc.fragmentation == 0.0

    @given(st.integers(1, 24), st.sampled_from(SPLIT_RULES))
    def test_allocation_result_is_free_and_fits(self, w, fit):
        alloc = ColumnAllocator(24, coalesce=False, placement=fit)
        alloc.reserve(3, 4)
        alloc.reserve(10, 2)
        anchor = alloc.allocate(w, 1)
        if anchor is not None:
            x = anchor[0]
            assert 0 <= x and x + w <= 24
            for rx, rw in [(3, 4), (10, 2)]:
                assert x + w <= rx or rx + rw <= x


class TestReplacementInvariants:
    @given(
        st.sampled_from(["fifo", "lru", "mru", "clock", "random"]),
        st.lists(st.tuples(st.integers(0, 7), st.booleans()),
                 min_size=1, max_size=60),
    )
    @settings(max_examples=60)
    def test_victim_always_among_candidates(self, policy_name, events):
        policy = make_replacement(policy_name)
        resident = set()
        for key, is_access in events:
            if key in resident:
                policy.on_access(key)
            else:
                resident.add(key)
                policy.on_insert(key)
            if len(resident) > 3:
                candidates = sorted(resident)
                victim = policy.victim(candidates)
                assert victim in candidates
                policy.on_remove(victim)
                resident.discard(victim)

    @given(st.lists(st.integers(0, 5), min_size=4, max_size=40))
    def test_lru_never_evicts_most_recent(self, accesses):
        policy = make_replacement("lru")
        resident = []
        for key in accesses:
            if key in resident:
                policy.on_access(key)
                resident.remove(key)
                resident.append(key)
            else:
                policy.on_insert(key)
                resident.append(key)
        if len(set(resident)) >= 2:
            candidates = sorted(set(resident))
            assert policy.victim(candidates) != resident[-1]


class TestAccessTraceInvariants:
    @given(
        st.integers(1, 16),
        st.integers(0, 100),
        st.sampled_from(["sequential", "looping", "random", "zipf"]),
        st.integers(0, 2**31),
    )
    def test_length_and_range(self, n_parts, n_accesses, pattern, seed):
        trace = access_trace(n_parts, n_accesses, pattern=pattern, seed=seed)
        assert len(trace) == n_accesses
        assert all(0 <= i < n_parts for i in trace)

    @given(st.integers(1, 16), st.integers(1, 100), st.integers(0, 2**31))
    def test_deterministic_per_seed(self, n_parts, n_accesses, seed):
        a = access_trace(n_parts, n_accesses, pattern="random", seed=seed)
        b = access_trace(n_parts, n_accesses, pattern="random", seed=seed)
        assert a == b


class TestMuxInvariants:
    @given(st.integers(1, 512), st.integers(0, 4096), st.integers(0, 2048))
    def test_factor_lower_bound(self, pins, words, virtual):
        from repro.core import PinMultiplexer

        mux = PinMultiplexer(pins)
        t = mux.transfer_time(words, virtual)
        assert t.factor >= 1.0
        assert t.seconds >= words / mux.word_rate - 1e-12

    @given(st.lists(st.tuples(st.text(alphabet="abc", min_size=1, max_size=2),
                              st.integers(0, 64)), max_size=30))
    def test_begin_end_never_negative(self, events):
        from repro.core import PinMultiplexer

        mux = PinMultiplexer(32)
        holding = {}
        for name, pins in events:
            if holding.get(name):
                mux.end(name, holding.pop(name))
            else:
                mux.begin(name, pins)
                holding[name] = pins
            assert all(v >= 0 for v in mux.active.values())
        assert mux.oversubscription() >= 1.0
