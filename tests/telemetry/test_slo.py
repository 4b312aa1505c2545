"""Per-source SLO engine and queueing decomposition
(:mod:`repro.telemetry.slo`).

Three layers of coverage: the declarative spec surface
(:func:`parse_slo_spec`), the engine's SRE math on hand-built synthetic
streams (latching, error budgets, rolling windows, burn rates,
availability-at-finish), and the two system-level contracts the tentpole
promises — *parity* (the engine is a pure fold: live state equals replay
state over the recorded stream, across every management policy) and
*inertness* (attaching the observers changes nothing but the breach
events they themselves publish).
"""

import io

import pytest

from repro.core import make_service
from repro.telemetry import (
    FpgaComplete,
    FpgaRequest,
    Load,
    MetricsAggregator,
    QueueingDecomposition,
    SloBreach,
    SloEngine,
    SloObjective,
    Wait,
    decompose_events,
    evaluate_slo,
    parse_slo_spec,
    read_jsonl,
    to_jsonl,
)
from repro.telemetry.events import DeadlineMiss, TaskDone
from tests.core.test_engine_parity import (
    contended_build,
    overlay_build,
    paged_build,
    segmented_build,
)


def op(engine, task, start, latency, source="svc", op_id=0):
    """One served operation: request, an attributing service event,
    completion ``latency`` later."""
    engine(FpgaRequest(start, task, config="c", op_id=op_id))
    engine(Load(start, task, source=source, handle=f"h{op_id}"))
    engine(FpgaComplete(start + latency, task, config="c", op_id=op_id))


class TestParseSpec:
    def test_latency_only(self):
        obj = parse_slo_spec("p99<=5e-3")
        assert obj.name == "p99<=5e-3"
        assert obj.latency == 5e-3 and obj.percentile == 0.99
        assert obj.miss_rate is None and obj.availability is None
        assert obj.task == "*" and obj.source == "*"

    def test_full_named_spec(self):
        obj = parse_slo_spec(
            "gold:p95<=2e-3,miss-rate<=0.01,availability>=0.999,"
            "task=tenant*,source=svc*,window=0.05,min-samples=3,burn=14"
        )
        assert obj.name == "gold"
        assert obj.latency == 2e-3 and obj.percentile == 0.95
        assert obj.miss_rate == 0.01 and obj.availability == 0.999
        assert obj.task == "tenant*" and obj.source == "svc*"
        assert obj.window == 0.05 and obj.min_samples == 3
        assert obj.burn_factor == 14

    def test_fractional_percentile(self):
        obj = parse_slo_spec("p99.9<=1e-3")
        assert obj.percentile == pytest.approx(0.999)
        assert obj.latency_metric == "p99.9"

    def test_name_scope_key(self):
        assert parse_slo_spec("p99<=1,name=gold").name == "gold"

    @pytest.mark.parametrize("bad", [
        "",
        "p200<=1",            # percentile out of range
        "pxx<=1",             # unparseable percentile
        "throughput<=3",      # unknown <= metric
        "latency>=5",         # unknown >= metric
        "frobnicate=3",       # unknown scope key
        "just-words",         # no comparison, no key=value
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_slo_spec(bad)

    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SloObjective(name="", latency=1.0)
        with pytest.raises(ValueError):
            SloObjective(name="x", latency=-1.0)
        with pytest.raises(ValueError):
            SloObjective(name="x", percentile=1.5)
        with pytest.raises(ValueError):
            SloObjective(name="x", min_samples=0)


class TestLatencyObjective:
    def test_breach_latches_once(self):
        """Violating repeatedly while already violated emits one event."""
        eng = SloEngine([SloObjective(name="o", latency=1.0)])
        for i in range(3):
            op(eng, f"t{i}", start=10.0 * i, latency=5.0, op_id=i)
        assert len(eng.breaches) == 1
        b = eng.breaches[0]
        assert b.metric == "p99" and b.severity == "error"
        assert b.observed == 5.0 and b.threshold == 1.0
        assert eng.breached

    def test_window_rearms_the_latch(self):
        """Recovery inside the rolling window clears the latch; the next
        violation is a fresh crossing."""
        eng = SloEngine([SloObjective(name="o", latency=1.0, window=10.0)])
        op(eng, "a", start=0.0, latency=2.0, op_id=1)       # breach 1
        op(eng, "b", start=20.0, latency=0.1, op_id=2)      # old op pruned
        op(eng, "c", start=30.0, latency=3.0, op_id=3)      # breach 2
        assert [b.observed for b in eng.breaches] == [2.0, 3.0]

    def test_min_samples_gate(self):
        """Early operations always look slow; they must not alarm."""
        eng = SloEngine([SloObjective(name="o", latency=1.0,
                                      min_samples=4)])
        for i in range(3):
            op(eng, f"t{i}", start=float(i), latency=9.0, op_id=i)
        assert eng.breaches == []

    def test_error_budget_accounting(self):
        """p90 target: 10% of ops may be bad.  One bad in ten spends the
        whole budget."""
        eng = SloEngine([SloObjective(name="o", latency=1.0,
                                      percentile=0.9)])
        for i in range(9):
            op(eng, f"t{i}", start=float(i), latency=0.1, op_id=i)
        op(eng, "slow", start=100.0, latency=5.0, op_id=99)
        rows = {r["metric"]: r for r in eng.status()}
        assert rows["p90"]["budget_remaining"] == pytest.approx(0.0)
        assert rows["p90"]["samples"] == 10

    def test_task_selector_scopes_samples(self):
        eng = SloEngine([SloObjective(name="o", latency=1.0,
                                      task="tenant*")])
        op(eng, "tenant0", start=0.0, latency=0.1, op_id=1)
        op(eng, "other", start=1.0, latency=99.0, op_id=2)
        (row,) = eng.status()
        assert row["samples"] == 1 and not row["breached"]

    def test_source_selector_uses_serving_source(self):
        """The serving source is learned from the service's own events
        between request and completion."""
        eng = SloEngine([SloObjective(name="o", latency=1.0,
                                      source="svcA")])
        op(eng, "a", start=0.0, latency=9.0, source="svcB", op_id=1)
        assert eng.status()[0]["samples"] == 0
        op(eng, "b", start=10.0, latency=9.0, source="svcA", op_id=2)
        assert eng.status()[0]["samples"] == 1
        assert len(eng.breaches) == 1


class TestMissRateAndAvailability:
    def test_miss_rate_breach(self):
        eng = SloEngine([SloObjective(name="o", miss_rate=0.25)])
        for i in range(3):
            eng(TaskDone(float(i), f"t{i}"))
        eng(DeadlineMiss(3.0, "t3", deadline=1.0, lateness=2.0))
        assert eng.breaches == []       # 1/4 == 0.25 is still within
        eng(DeadlineMiss(4.0, "t4", deadline=1.0, lateness=3.0))
        assert [b.metric for b in eng.breaches] == ["miss-rate"]
        assert eng.breaches[0].observed == pytest.approx(0.4)

    def test_availability_judged_at_finish(self):
        """Open operations count as failed only once the stream ends."""
        eng = SloEngine([SloObjective(name="o", availability=0.9)])
        for i in range(10):
            eng(FpgaRequest(float(i), f"t{i}", config="c", op_id=i))
        for i in range(8):
            eng(FpgaComplete(float(i) + 0.5, f"t{i}", config="c", op_id=i))
        assert eng.breaches == []
        eng.finish()
        assert [b.metric for b in eng.breaches] == ["availability"]
        assert eng.breaches[0].observed == pytest.approx(0.8)

    def test_finish_is_idempotent(self):
        eng = SloEngine([SloObjective(name="o", availability=1.0)])
        eng(FpgaRequest(0.0, "t", config="c", op_id=1))
        eng.finish()
        eng.finish()
        assert len(eng.breaches) == 1


class TestBurnRate:
    def test_burn_alert_is_a_warning_not_an_exit(self):
        """Half the ops are bad: the p50 still holds (median is good) but
        the budget burns at twice the allowed rate — a warning that must
        not flip the CLI's error exit."""
        eng = SloEngine([SloObjective(name="o", latency=1.0,
                                      percentile=0.5, window=120.0,
                                      burn_factor=0.5)])
        for i in range(3):
            op(eng, f"g{i}", start=2.0 * i, latency=0.1, op_id=10 + i)
            op(eng, f"b{i}", start=2.0 * i + 1, latency=5.0, op_id=20 + i)
        burns = [b for b in eng.breaches if b.metric == "burn-rate"]
        assert burns and burns[0].severity == "warning"
        assert not any(b.severity == "error" for b in eng.breaches)
        assert not eng.breached


class TestPurity:
    def test_recorded_breaches_are_ignored_on_replay(self):
        """Re-evaluating an already-evaluated recording converges: the
        engine's own output does not feed back in."""
        events = []

        def run(engine):
            op(engine, "t", start=0.0, latency=9.0, op_id=1)

        live = SloEngine([SloObjective(name="o", latency=1.0)])
        run(live)
        events = [FpgaRequest(0.0, "t", config="c", op_id=1),
                  Load(0.0, "t", source="svc", handle="h1"),
                  FpgaComplete(9.0, "t", config="c", op_id=1)]
        replay = evaluate_slo(events + list(live.breaches),
                              [SloObjective(name="o", latency=1.0)],
                              finish=False)
        assert replay.snapshot() == live.snapshot()

    def test_duplicate_objective_names_rejected(self):
        with pytest.raises(ValueError):
            SloEngine([SloObjective(name="o", latency=1.0),
                       SloObjective(name="o", miss_rate=0.1)])


def canon(events):
    """Events as comparable tuples, ignoring process-global sources."""
    return [
        (type(e).__name__,
         tuple(sorted((k, v) for k, v in vars(e).items() if k != "source")))
        for e in events
    ]


def fresh_objectives():
    return [
        SloObjective(name="tight", latency=1e-4, percentile=0.95,
                     min_samples=2),
        SloObjective(name="avail", availability=0.999),
        SloObjective(name="deadlines", miss_rate=0.0),
    ]


POLICY_BUILDS = [
    ("dynamic", contended_build()),
    ("fixed", contended_build(n_partitions=2)),
    ("variable", contended_build(hold_mode="op")),
    ("overlay", overlay_build()),
    ("paged", paged_build()),
    ("segmented", segmented_build()),
    ("multi", contended_build(n_devices=2)),
]


class TestPolicyParityAndInertness:
    """The two tentpole contracts, across every management policy."""

    @pytest.mark.parametrize("policy,build", POLICY_BUILDS,
                             ids=[p for p, _b in POLICY_BUILDS])
    def test_live_equals_replay_and_observer_is_inert(self, policy, build,
                                                      logged):
        # -- instrumented run --------------------------------------------
        registry, tasks, kw = build()
        engine = SloEngine(fresh_objectives())
        decomp = QueueingDecomposition()

        def subscribe(bus):
            bus.subscribe_all(engine)
            bus.subscribe_all(decomp)
            engine.bus = bus        # republish breaches onto the stream

        run = logged(make_service(policy, registry, **kw),
                     subscribe=subscribe)
        run.run(tasks)
        engine.finish()

        # -- parity: replaying the recording reproduces the engine -------
        replay = evaluate_slo(run.log.events, fresh_objectives())
        assert replay.snapshot() == engine.snapshot()
        assert [b.to_record() for b in replay.breaches] == \
            [b.to_record() for b in engine.breaches]
        assert decompose_events(run.log.events).snapshot() == \
            decomp.snapshot()

        # -- inertness: same run without observers, event for event ------
        registry2, tasks2, kw2 = build()
        bare = logged(make_service(policy, registry2, **kw2))
        bare.run(tasks2)
        observed = [e for e in run.log.events
                    if not isinstance(e, SloBreach)]
        assert canon(observed) == canon(bare.log.events)
        # The contended workloads actually exercise the tight objective.
        if policy not in ("paged", "segmented"):
            assert engine.breached

    def test_jsonl_round_trip_preserves_evaluation(self, logged):
        """Recording to JSONL and back is evaluation-lossless, breach
        events included (SloBreach is a registered event type)."""
        registry, tasks, kw = contended_build()()
        engine = SloEngine(fresh_objectives())

        def subscribe(bus):
            bus.subscribe_all(engine)
            engine.bus = bus

        run = logged(make_service("dynamic", registry, **kw),
                     subscribe=subscribe)
        run.run(tasks)
        engine.finish()
        decoded = read_jsonl(io.StringIO(to_jsonl(run.log.events)))
        assert canon(decoded) == canon(run.log.events)
        assert any(isinstance(e, SloBreach) for e in decoded)
        assert evaluate_slo(decoded, fresh_objectives()).snapshot() == \
            engine.snapshot()


class TestServingSource:
    def test_multi_board_objectives_see_every_op(self, logged):
        """Under ``multi`` an op counts for the board that served it, not
        for the dispatcher that routed it: one objective per board sees
        every op between them, split as the stage decomposition splits
        them."""
        registry, tasks, kw = contended_build(n_devices=2)()
        service = make_service("multi", registry, **kw)
        engine = SloEngine([
            SloObjective(name=f"board{i}", latency=1.0, source=board.source)
            for i, board in enumerate(service.boards)
        ])
        run = logged(service, subscribe=lambda bus: bus.subscribe_all(engine))
        run.run(tasks)
        samples = [row["samples"] for row in engine.status()]
        n_ops = sum(isinstance(e, FpgaRequest) for e in run.log.events)
        assert n_ops == 24
        assert sum(samples) == n_ops
        assert all(samples)
        decomp = decompose_events(run.log.events)
        assert samples == [decomp.per_source[board.source].ops
                           for board in service.boards]


class TestQueueingDecomposition:
    def run_decomposed(self, logged):
        registry, tasks, kw = contended_build()()
        decomp = QueueingDecomposition()
        run = logged(make_service("dynamic", registry, **kw),
                     subscribe=lambda bus: bus.subscribe_all(decomp))
        run.run(tasks)
        return run, decomp

    def test_rows_cover_every_operation(self, logged):
        run, decomp = self.run_decomposed(logged)
        rows = decomp.rows()
        assert rows, "contended workload must produce operations"
        assert sum(r["ops"] for r in rows) == len(decomp.spans.spans)
        for row in rows:
            for stage in ("queue", "reconfig", "service"):
                assert row[stage] >= 0.0
                assert 0.0 <= row[f"{stage}_share"]
        # The contended workload queues: wait time is a real stage.
        assert sum(r["queue"] for r in rows) > 0.0
        assert sum(r["reconfig"] for r in rows) > 0.0

    def test_stage_totals_match_span_phases(self, logged):
        run, decomp = self.run_decomposed(logged)
        spans = decomp.spans.spans
        rows = decomp.rows()
        assert sum(r["queue"] for r in rows) == pytest.approx(
            sum(s.wait_seconds for s in spans))
        assert sum(r["service"] for r in rows) == pytest.approx(
            sum(s.exec_seconds + s.io_seconds for s in spans))
        assert sum(r["reconfig"] for r in rows) == pytest.approx(
            sum(s.reconfig_seconds + s.state_seconds for s in spans))

    def test_summary_shape(self, logged):
        _run, decomp = self.run_decomposed(logged)
        summary = decomp.summary()
        assert set(summary["share"]) == {"queue", "reconfig", "service"}
        assert summary["stages"] == ["queue", "reconfig", "service"]
        assert summary["n_spans"] == len(decomp.spans.spans)
        assert summary["n_open"] == 0


class TestQueueDepthGauges:
    def test_overlapping_waits_stack(self):
        """Wait is published at the *end* of the wait; two overlapping
        intervals must still count depth 2 at their intersection."""
        agg = MetricsAggregator()
        agg(Wait(2.0, "a", seconds=2.0))      # waited [0, 2]
        agg(Wait(3.0, "b", seconds=2.0))      # waited [1, 3]
        summary = agg.queue_depth_summary()
        assert summary["queue_depth_max"] == 2
        assert summary["queue_wait_seconds"] == pytest.approx(4.0)

    def test_back_to_back_waits_do_not_overlap(self):
        """A wait ending exactly when another starts is depth 1."""
        agg = MetricsAggregator()
        agg(Wait(1.0, "a", seconds=1.0))      # [0, 1]
        agg(Wait(2.0, "b", seconds=1.0))      # [1, 2]
        assert agg.queue_depth_summary()["queue_depth_max"] == 1

    def test_mean_is_wait_seconds_over_elapsed(self):
        agg = MetricsAggregator()
        agg(Wait(2.0, "a", seconds=2.0))
        agg(Wait(3.0, "b", seconds=2.0))
        summary = agg.queue_depth_summary()
        assert summary["queue_depth_mean"] == pytest.approx(
            4.0 / agg.elapsed)
        assert summary == {k: v
                           for k, v in agg.utilization_summary().items()
                           if k.startswith("queue_")}

    def test_empty_stream(self):
        agg = MetricsAggregator()
        summary = agg.queue_depth_summary()
        assert summary == {"queue_wait_seconds": 0.0,
                           "queue_depth_max": 0,
                           "queue_depth_mean": 0.0}

    def test_snapshot_parity_includes_queue_state(self, logged):
        """The aggregator stays a pure fold with the queue additions."""
        registry, tasks, kw = contended_build()()
        live = MetricsAggregator()
        run = logged(make_service("dynamic", registry, **kw),
                     subscribe=lambda bus: bus.subscribe_all(live))
        run.run(tasks)
        replayed = MetricsAggregator()
        for e in run.log.events:
            replayed(e)
        assert replayed.snapshot() == live.snapshot()
        assert live.snapshot()["queue"]["queue_depth_max"] >= 1
