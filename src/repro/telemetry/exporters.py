"""Export (and re-import) a telemetry stream in machine-readable formats.

* :func:`to_jsonl` / :class:`JsonlExporter` — one JSON object per line;
  trivially greppable/`jq`-able, append-friendly for streaming.
* :func:`from_record` / :func:`read_jsonl` — the inverse: reconstruct
  typed events from recorded JSONL, so ``repro report`` can aggregate a
  stored stream exactly as if it were live.
* :func:`to_chrome_trace` — the Chrome ``trace_event`` JSON format:
  open the file in ``chrome://tracing`` or https://ui.perfetto.dev and
  see every download, state save, transfer and execution as a timeline
  lane per task (instant events for dispatches, faults, preemptions).
* :func:`to_prometheus` — Prometheus text exposition of a
  :class:`~repro.telemetry.metrics.MetricsAggregator` (histograms with
  cumulative ``le`` buckets, gauges, per-event-type counters).
* :func:`spans_to_csv` — one row per causal span (see
  :mod:`repro.telemetry.spans`), spreadsheet/pandas-ready.

Duration semantics: charge events carry their ``seconds`` and map onto
complete ("X") trace events placed by
:func:`~repro.telemetry.events.charge_interval` — from their publish
instant, except :class:`~repro.telemetry.events.Wait`, which is published
when the wait ends and so is drawn back from it.
"""

from __future__ import annotations

import json
from dataclasses import fields as _dataclass_fields
from typing import Dict, Iterable, List, Optional, TextIO, Union

from .bus import EventBus
from .events import TelemetryEvent, charge_interval, event_type

__all__ = [
    "to_jsonl", "JsonlExporter", "to_chrome_trace", "DURATION_ATTR",
    "from_record", "read_jsonl", "to_prometheus", "spans_to_csv",
    "stages_to_csv", "STAGE_FIELDS",
]

#: Events carrying this attribute with a positive value are rendered as
#: complete (duration) trace events; everything else is an instant.
DURATION_ATTR = "seconds"

#: Simulation seconds -> trace microseconds.
_US = 1e6


def _jsonl_line(event: TelemetryEvent) -> str:
    return json.dumps(event.to_record(), sort_keys=True)


def to_jsonl(events: Iterable[TelemetryEvent],
             out: Union[str, TextIO, None] = None) -> str:
    """Serialize ``events`` to JSON-lines; write to ``out`` (path or
    file object) when given.  Returns the serialized text."""
    text = "\n".join(_jsonl_line(e) for e in events)
    if text:
        text += "\n"
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif out is not None:
        out.write(text)
    return text


class JsonlExporter:
    """Streaming JSONL subscriber: every published event becomes a line
    immediately (no buffering of the whole run in memory)."""

    def __init__(self, out: Union[str, TextIO],
                 bus: Optional[EventBus] = None) -> None:
        if isinstance(out, str):
            self._fh: TextIO = open(out, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = out
            self._owns = False
        self.n_written = 0
        if bus is not None:
            bus.subscribe(self.record)

    def record(self, event: TelemetryEvent) -> None:
        self._fh.write(_jsonl_line(event) + "\n")
        self.n_written += 1

    def close(self) -> None:
        if self._owns and not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlExporter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def from_record(rec: Dict[str, object]) -> TelemetryEvent:
    """Rebuild one typed event from its :meth:`~TelemetryEvent.to_record`
    dict.  Unknown *fields* are dropped (forward compatibility: newer
    recorders may add fields older readers ignore); an unknown *event
    name* raises ``KeyError``."""
    cls = event_type(str(rec["event"]))
    known = {f.name for f in _dataclass_fields(cls)}
    kwargs = {
        k: tuple(v) if isinstance(v, list) else v
        for k, v in rec.items()
        if k != "event" and k in known
    }
    return cls(**kwargs)


def read_jsonl(source: Union[str, TextIO, Iterable[str]]) -> List[TelemetryEvent]:
    """Load a recorded JSONL stream (path, file object, or iterable of
    lines) back into typed events, preserving order."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = list(source)
    events: List[TelemetryEvent] = []
    for line in lines:
        line = line.strip()
        if line:
            events.append(from_record(json.loads(line)))
    return events


def _lane(event: TelemetryEvent) -> str:
    """Timeline lane: the task when attributed, else the publisher."""
    return event.task or event.source or "system"


def to_chrome_trace(
    events: Iterable[TelemetryEvent],
    out: Union[str, TextIO, None] = None,
    run_name: str = "repro",
) -> Dict[str, object]:
    """Convert ``events`` to a Chrome ``trace_event`` document.

    Returns the document as a dict (``json.dump``-ready); writes it to
    ``out`` (path or file object) when given.  Loadable by
    ``chrome://tracing`` and Perfetto (both accept the JSON object form
    with a ``traceEvents`` list plus metadata events naming the threads).
    """
    trace_events: List[Dict[str, object]] = []
    tids: Dict[str, int] = {}

    def tid_of(lane: str) -> int:
        if lane not in tids:
            tids[lane] = len(tids) + 1
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": 1,
                "tid": tids[lane], "args": {"name": lane},
            })
        return tids[lane]

    for ev in events:
        lane = _lane(ev)
        entry: Dict[str, object] = {
            "name": type(ev).__name__,
            "cat": ev.source or "system",
            "pid": 1,
            "tid": tid_of(lane),
            "ts": charge_interval(ev)[0] * _US,
            "args": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in ev.to_record().items()
                if k not in ("event", "time")
            },
        }
        seconds = getattr(ev, DURATION_ATTR, None)
        if isinstance(seconds, (int, float)) and seconds > 0:
            entry["ph"] = "X"
            entry["dur"] = seconds * _US
        else:
            entry["ph"] = "i"
            entry["s"] = "t"
        trace_events.append(entry)

    doc: Dict[str, object] = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.telemetry", "run": run_name},
    }
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    elif out is not None:
        json.dump(doc, out)
    return doc


# ---------------------------------------------------------------------------
# metrics exporters
# ---------------------------------------------------------------------------

def _write_text(text: str, out: Union[str, TextIO, None]) -> str:
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif out is not None:
        out.write(text)
    return text


def _prom_num(v: float) -> str:
    return f"{v:.10g}"


def to_prometheus(agg, out: Union[str, TextIO, None] = None,
                  prefix: str = "repro", slo=None) -> str:
    """Render a :class:`~repro.telemetry.metrics.MetricsAggregator` in
    the Prometheus text exposition format (histograms as cumulative
    ``le`` buckets with ``_sum``/``_count``, gauges, event counters).
    When an :class:`~repro.telemetry.slo.SloEngine` is passed as
    ``slo``, its per-objective error-budget gauges and breach counters
    are appended.  Returns the text; also writes it to ``out`` when
    given."""
    lines: List[str] = []

    def histogram(name: str, help_: str, hist) -> None:
        full = f"{prefix}_{name}"
        lines.append(f"# HELP {full} {help_}")
        lines.append(f"# TYPE {full} histogram")
        cum = 0
        for bound, n in zip(hist.bounds, hist.bucket_counts):
            cum += n
            lines.append(f'{full}_bucket{{le="{_prom_num(bound)}"}} {cum}')
        lines.append(f'{full}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{full}_sum {_prom_num(hist.total)}")
        lines.append(f"{full}_count {hist.count}")

    def gauge(name: str, help_: str, value: float) -> None:
        full = f"{prefix}_{name}"
        lines.append(f"# HELP {full} {help_}")
        lines.append(f"# TYPE {full} gauge")
        lines.append(f"{full} {_prom_num(value)}")

    histogram("reconfig_latency_seconds",
              "Configuration download latency per Load.",
              agg.reconfig_latency)
    histogram("wait_latency_seconds",
              "Fabric queueing latency per operation.", agg.wait_latency)
    histogram("exec_latency_seconds",
              "Useful fabric time per execution.", agg.exec_latency)
    histogram("op_latency_seconds",
              "Whole-operation latency (FpgaRequest to FpgaComplete).",
              agg.op_latency)

    util = agg.utilization_summary()
    gauge("clb_occupancy", "Resident CLB area (current).",
          agg.clb_occupancy.value)
    gauge("clb_occupancy_mean", "Time-weighted mean resident CLB area.",
          util["clb_occupancy_mean"])
    gauge("clb_occupancy_max", "Peak resident CLB area.",
          util["clb_occupancy_max"])
    gauge("config_port_busy_fraction",
          "Configuration-port busy share of the observed window.",
          util["port_busy_fraction"])
    gauge("resident_configurations_mean",
          "Time-weighted mean number of resident configurations.",
          util["residency_mean"])
    gauge("inflight_ops_mean",
          "Time-weighted mean number of in-flight FPGA operations.",
          util["inflight_mean"])
    gauge("queue_depth_mean",
          "Mean waiting-operation queue depth over the observed window.",
          util["queue_depth_mean"])
    gauge("queue_depth_max", "Peak waiting-operation queue depth.",
          util["queue_depth_max"])
    gauge("queue_wait_seconds_total", "Total fabric queueing seconds.",
          util["queue_wait_seconds"])

    if slo is not None:
        budget = f"{prefix}_slo_error_budget_remaining"
        lines.append(f"# HELP {budget} Error-budget fraction remaining "
                     f"per objective metric (negative = overspent).")
        lines.append(f"# TYPE {budget} gauge")
        breach_counts: Dict[str, int] = {}
        for row in slo.status():
            lines.append(
                f'{budget}{{objective="{row["objective"]}",'
                f'metric="{row["metric"]}"}} '
                f'{_prom_num(float(row["budget_remaining"]))}'
            )
        for b in slo.breaches:
            key = f'objective="{b.objective}",metric="{b.metric}"'
            breach_counts[key] = breach_counts.get(key, 0) + 1
        total_b = f"{prefix}_slo_breaches_total"
        lines.append(f"# HELP {total_b} SLO breach events published, "
                     f"by objective and metric.")
        lines.append(f"# TYPE {total_b} counter")
        for key, n in sorted(breach_counts.items()):
            lines.append(f"{total_b}{{{key}}} {n}")

    total = f"{prefix}_events_total"
    lines.append(f"# HELP {total} Telemetry events folded, by type.")
    lines.append(f"# TYPE {total} counter")
    for name, n in sorted(agg.counts.items()):
        lines.append(f'{total}{{event="{name}"}} {n}')

    return _write_text("\n".join(lines) + "\n", out)


def spans_to_csv(spans, out: Union[str, TextIO, None] = None) -> str:
    """Serialize spans (a :class:`~repro.telemetry.spans.SpanBuilder` or
    an iterable of :class:`~repro.telemetry.spans.Span`) as CSV, one row
    per operation, columns in :data:`~repro.telemetry.spans.SPAN_FIELDS`
    order.  Returns the text; also writes it to ``out`` when given."""
    import csv
    import io

    from .spans import SPAN_FIELDS

    rows = spans.spans if hasattr(spans, "spans") else list(spans)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(SPAN_FIELDS),
                            extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    for span in rows:
        writer.writerow(span.to_record())
    return _write_text(buf.getvalue(), out)


#: CSV column order of the per-source stage decomposition export.
STAGE_FIELDS = (
    "source", "ops", "duration",
    "queue", "queue_share", "queue_p99",
    "reconfig", "reconfig_share", "reconfig_p99",
    "service", "service_share", "service_p99",
    "unaccounted", "port_seconds", "port_ops",
    "sched_decisions", "preempts",
)


def stages_to_csv(decomp, out: Union[str, TextIO, None] = None) -> str:
    """Serialize a :class:`~repro.telemetry.slo.QueueingDecomposition`
    as CSV, one row per source, columns in :data:`STAGE_FIELDS` order.
    Returns the text; also writes it to ``out`` when given."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(STAGE_FIELDS),
                            extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    for row in decomp.rows():
        writer.writerow(row)
    return _write_text(buf.getvalue(), out)
