"""JSONL and Chrome trace_event exporters, and the Profiler."""

import io
import json

import pytest

from repro.telemetry import (
    Dispatch,
    EventBus,
    JsonlExporter,
    Load,
    PageFault,
    Profiler,
    Wait,
    event_type,
    to_chrome_trace,
    to_jsonl,
)

SAMPLE = [
    Dispatch(0.0, "t0", source="kernel"),
    Load(0.001, "t0", source="Svc#1", handle="a3", anchor=(2, 0),
         seconds=0.004, frames=3),
    PageFault(0.01, "t1", source="Svc#1", unit="p2"),
]


class TestJsonl:
    def test_one_valid_object_per_line(self):
        text = to_jsonl(SAMPLE)
        lines = text.strip().splitlines()
        assert len(lines) == 3
        recs = [json.loads(line) for line in lines]
        assert [r["event"] for r in recs] == ["Dispatch", "Load", "PageFault"]
        # every event name resolves back to its class
        for r in recs:
            event_type(r["event"])

    def test_record_schema(self):
        rec = json.loads(to_jsonl([SAMPLE[1]]).strip())
        assert rec == {
            "event": "Load", "time": 0.001, "task": "t0", "source": "Svc#1",
            "handle": "a3", "anchor": [2, 0], "seconds": 0.004, "frames": 3,
            "count": 1, "clbs": 0, "exclusive": False, "shape": [0, 0],
            "mode": "", "frames_written": 0, "cache": "",
        }

    def test_roundtrip_through_jsonl(self):
        from repro.telemetry import read_jsonl
        text = to_jsonl(SAMPLE)
        assert read_jsonl(io.StringIO(text)) == SAMPLE
        assert read_jsonl(text.splitlines()) == SAMPLE

    def test_from_record_drops_unknown_fields(self):
        from repro.telemetry import from_record
        rec = json.loads(to_jsonl([SAMPLE[1]]).strip())
        rec["future_field"] = 42
        assert from_record(rec) == SAMPLE[1]

    def test_write_to_path(self, tmp_path):
        p = tmp_path / "events.jsonl"
        to_jsonl(SAMPLE, str(p))
        assert len(p.read_text().strip().splitlines()) == 3

    def test_streaming_exporter(self):
        buf = io.StringIO()
        bus = EventBus()
        exp = JsonlExporter(buf, bus)
        for ev in SAMPLE:
            bus.publish(ev)
        assert exp.n_written == 3
        assert len(buf.getvalue().strip().splitlines()) == 3


class TestChromeTrace:
    def test_document_shape(self):
        doc = to_chrome_trace(SAMPLE, run_name="unit")
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["otherData"]["run"] == "unit"
        # the whole document must survive a JSON round-trip (Perfetto-loadable)
        json.loads(json.dumps(doc))

    def test_duration_vs_instant(self):
        doc = to_chrome_trace(SAMPLE)
        by_name = {e["name"]: e for e in doc["traceEvents"] if e["ph"] != "M"}
        load = by_name["Load"]
        assert load["ph"] == "X"
        assert load["dur"] == pytest.approx(0.004 * 1e6)
        assert load["ts"] == pytest.approx(0.001 * 1e6)
        fault = by_name["PageFault"]
        assert fault["ph"] == "i" and fault["s"] == "t"
        # A Wait is published when the wait ends: its span ends there.
        [wait] = [e for e in to_chrome_trace(
            [Wait(0.01, "t0", source="Svc#1", seconds=0.004)])["traceEvents"]
            if e["ph"] != "M"]
        assert wait["ph"] == "X"
        assert wait["ts"] == pytest.approx(0.006 * 1e6)
        assert wait["dur"] == pytest.approx(0.004 * 1e6)

    def test_lanes_get_thread_metadata(self):
        doc = to_chrome_trace(SAMPLE)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert names == {"t0", "t1"}  # lanes are task names here
        tids = {e["tid"] for e in meta}
        assert len(tids) == len(meta)  # one tid per lane

    def test_write_to_path(self, tmp_path):
        p = tmp_path / "trace.json"
        to_chrome_trace(SAMPLE, str(p))
        doc = json.loads(p.read_text())
        assert len(doc["traceEvents"]) >= 3


class TestSloAndStageExports:
    """The PR 8 observability surface: queue gauges, per-objective
    error-budget gauges, and the per-source stage CSV."""

    def evaluated_run(self):
        from repro.telemetry import (
            FpgaComplete,
            FpgaRequest,
            MetricsAggregator,
            QueueingDecomposition,
            SloEngine,
            SloObjective,
            Wait,
        )

        agg = MetricsAggregator()
        decomp = QueueingDecomposition()
        engine = SloEngine([
            SloObjective(name="gold", latency=1e-3),
            SloObjective(name="avail", availability=0.999),
        ])
        stream = [
            FpgaRequest(0.0, "t0", config="c", op_id=1),
            Load(0.001, "t0", source="Svc#1", handle="c", seconds=0.004),
            Wait(0.005, "t0", seconds=0.005),
            FpgaComplete(0.01, "t0", config="c", op_id=1),
        ]
        for ev in stream:
            agg(ev)
            decomp(ev)
            engine(ev)
        engine.finish()
        return agg, decomp, engine

    def test_prometheus_queue_gauges(self):
        from repro.telemetry import to_prometheus

        agg, _decomp, _engine = self.evaluated_run()
        text = to_prometheus(agg)
        assert "# TYPE repro_queue_depth_mean gauge" in text
        assert "repro_queue_depth_max 1" in text
        assert "repro_queue_wait_seconds_total 0.005" in text

    def test_prometheus_slo_gauges(self):
        from repro.telemetry import to_prometheus

        agg, _decomp, engine = self.evaluated_run()
        text = to_prometheus(agg, slo=engine)
        assert "# TYPE repro_slo_error_budget_remaining gauge" in text
        assert 'objective="gold"' in text and 'metric="p99"' in text
        assert "# TYPE repro_slo_breaches_total counter" in text
        # The 10 ms op blew the 1 ms objective: one error breach.
        assert 'repro_slo_breaches_total{objective="gold"' in text

    def test_stages_csv(self, tmp_path):
        import csv

        from repro.telemetry import STAGE_FIELDS, stages_to_csv

        _agg, decomp, _engine = self.evaluated_run()
        path = tmp_path / "stages.csv"
        stages_to_csv(decomp, str(path))
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 1
        assert set(rows[0]) == set(STAGE_FIELDS)
        assert float(rows[0]["queue"]) == pytest.approx(0.005)
        assert int(rows[0]["ops"]) == 1

    def test_slo_breach_survives_jsonl(self):
        """Breach events round-trip the recording format like any other
        registered event."""
        from repro.telemetry import SloBreach, read_jsonl

        breach = SloBreach(0.5, source="slo", objective="gold",
                           metric="p99", threshold=1e-3, observed=9e-3,
                           budget_remaining=-0.8, severity="error")
        assert read_jsonl(io.StringIO(to_jsonl([breach]))) == [breach]


class TestProfiler:
    def test_counts_and_rates(self):
        ticks = iter(range(100))
        prof = Profiler(clock=lambda: float(next(ticks)))
        for ev in SAMPLE:
            prof.record(ev)
        assert prof.n_events == 3
        assert prof.counts == {"Dispatch": 1, "Load": 1, "PageFault": 1}
        assert prof.wall_seconds == 2.0  # ticks 0 -> 2
        assert prof.events_per_second == pytest.approx(1.5)

    def test_sim_seconds_and_subsystems(self):
        prof = Profiler()
        for ev in SAMPLE:
            prof.record(ev)
        assert prof.sim_seconds == {"Load": pytest.approx(0.004)}
        assert prof.by_subsystem() == {"config-port": pytest.approx(0.004)}

    def test_sched_and_slo_subsystem_rows(self):
        from repro.telemetry import SloBreach
        from repro.telemetry.events import DeadlineMiss, SchedDecision

        prof = Profiler()
        prof.record(SchedDecision(0.1, "t", source="svc",
                                  strategy="cost-aware", preempt=True))
        prof.record(DeadlineMiss(0.2, "t", deadline=0.1, lateness=0.1))
        prof.record(SloBreach(0.3, source="slo", objective="gold",
                              metric="p99"))
        summary = prof.summary()
        assert summary["sched"] == {
            "counts": {"SchedDecision": 1, "DeadlineMiss": 1}}
        assert summary["slo"] == {"counts": {"SloBreach": 1}}

    def test_no_sched_rows_without_sched_events(self):
        prof = Profiler()
        for ev in SAMPLE:
            prof.record(ev)
        summary = prof.summary()
        assert "sched" not in summary and "slo" not in summary

    def test_summary_is_json_ready(self):
        bus = EventBus()
        prof = Profiler(bus)
        for ev in SAMPLE:
            bus.publish(ev)
        summary = prof.summary()
        json.loads(json.dumps(summary))
        assert summary["n_events"] == 3
