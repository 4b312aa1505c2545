"""CPU scheduling disciplines and workload builders — direct unit tests."""

import pytest

from repro.osim import (
    CPU_SCHEDULERS,
    AgedPriority,
    CpuBurst,
    DeadlineEDF,
    Fifo,
    FpgaOp,
    PriorityScheduler,
    RoundRobin,
    Task,
    alternating_task,
    make_cpu_scheduler,
    uniform_workload,
    zipf_index,
)

from tests.osim.reference import reference_scheduler


class TestSchedulerObjects:
    def test_round_robin_validation(self):
        with pytest.raises(ValueError):
            RoundRobin(time_slice=0)

    def test_priority_validation(self):
        with pytest.raises(ValueError):
            PriorityScheduler(time_slice=-1)

    def test_fifo_quantum_infinite(self):
        assert Fifo().quantum(Task("t", [])) == float("inf")

    def test_round_robin_fifo_pick_order(self):
        s = RoundRobin()
        a, b = Task("a", []), Task("b", [])
        s.enqueue(a)
        s.enqueue(b)
        assert s.pick() is a
        assert s.pick() is b
        assert s.pick() is None

    def test_priority_pick_stable_within_level(self):
        s = PriorityScheduler()
        t1 = Task("t1", [], priority=1)
        t2 = Task("t2", [], priority=1)
        t0 = Task("t0", [], priority=0)
        for t in (t1, t2, t0):
            s.enqueue(t)
        assert s.pick() is t0
        assert s.pick() is t1
        assert s.pick() is t2

    @pytest.mark.parametrize("cls,kw", [
        (DeadlineEDF, {"time_slice": 0}),
        (AgedPriority, {"time_slice": -1.0}),
        (AgedPriority, {"aging": 0}),
    ])
    def test_deadline_and_aging_validation(self, cls, kw):
        with pytest.raises(ValueError):
            cls(**kw)

    def test_registry_names(self):
        assert sorted(CPU_SCHEDULERS) == ["aged-priority", "edf", "fifo",
                                          "priority", "rr"]
        assert type(make_cpu_scheduler("edf")) is DeadlineEDF
        assert make_cpu_scheduler("rr", time_slice=2e-3).quantum(
            Task("t", [])) == 2e-3

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown cpu scheduler"):
            make_cpu_scheduler("lottery")


class TestSeedOrderEquality:
    """Order-equality pin: each discipline vs the seed list queue (the
    reference oracle) over interleaved enqueue/pick sequences."""

    def _trace(self, scheduler, seed_queue, rng_seed):
        import random

        rng = random.Random(rng_seed)
        tasks = [Task(f"t{i}", [], priority=rng.randrange(4))
                 for i in range(60)]
        picks = []
        pending = list(tasks)
        for _ in range(300):
            if pending and rng.random() < 0.6:
                t = pending.pop(0)
                scheduler.enqueue(t)
                seed_queue.enqueue(t)
            else:
                a = scheduler.pick()
                b = seed_queue.pick()
                assert a is b
                picks.append(a)
        # Drain both completely; the tails must match too.
        while True:
            a = scheduler.pick()
            b = seed_queue.pick()
            assert a is b
            if a is None:
                break
        return picks

    @pytest.mark.parametrize("rng_seed", [0, 1, 2, 3])
    def test_fifo_matches_seed_list(self, rng_seed):
        self._trace(Fifo(), reference_scheduler("fifo"), rng_seed)

    @pytest.mark.parametrize("rng_seed", [0, 1, 2, 3])
    def test_round_robin_matches_seed_list(self, rng_seed):
        self._trace(RoundRobin(time_slice=1e-3),
                    reference_scheduler("rr", time_slice=1e-3), rng_seed)

    @pytest.mark.parametrize("rng_seed", [0, 1, 2, 3])
    def test_priority_matches_seed_scan(self, rng_seed):
        self._trace(PriorityScheduler(time_slice=1e-3),
                    reference_scheduler("priority", time_slice=1e-3),
                    rng_seed)


class TestWorkloadBuilders:
    def test_alternating_task_structure(self):
        t = alternating_task("t", "cfg", n_ops=3, cpu_burst=1e-3, cycles=10)
        kinds = [type(s).__name__ for s in t.program]
        assert kinds == ["CpuBurst", "FpgaOp"] * 3 + ["CpuBurst"]
        assert all(
            s.config == "cfg" for s in t.program if isinstance(s, FpgaOp)
        )

    def test_alternating_task_extra_configs(self):
        t = alternating_task("t", "a", 1, 1e-3, 10, configs=["a", "b"])
        assert t.configs == ["a", "b"]

    def test_uniform_workload_requires_configs(self):
        with pytest.raises(ValueError):
            uniform_workload([], 2, 2, 1e-3, 10)

    def test_uniform_workload_arrival_spread_seeded(self):
        t1 = uniform_workload(["a"], 5, 1, 1e-3, 10, seed=3, arrival_spread=1.0)
        t2 = uniform_workload(["a"], 5, 1, 1e-3, 10, seed=3, arrival_spread=1.0)
        assert [t.arrival for t in t1] == [t.arrival for t in t2]
        assert any(t.arrival > 0 for t in t1)

    def test_zipf_index_bounds(self):
        import random

        rng = random.Random(1)
        for _ in range(200):
            assert 0 <= zipf_index(rng, 7, s=1.3) < 7

    def test_zipf_index_skew(self):
        import random

        rng = random.Random(2)
        draws = [zipf_index(rng, 10, s=1.5) for _ in range(2000)]
        assert draws.count(0) > draws.count(9) * 3
