"""Unified telemetry spine: one typed event bus across every layer.

Every layer reports through one spine:

* layers **publish** frozen, typed events (:mod:`repro.telemetry.events`)
  into an :class:`EventBus` (:mod:`repro.telemetry.bus`);
* the one event log, :class:`EventLog`, and the service metrics
  (:class:`MetricsRecorder`) are **subscribers**
  (:mod:`repro.telemetry.recorders`); the kernel subscribes nothing
  itself, so a run records only what its caller attaches;
* exporters (:mod:`repro.telemetry.exporters`) turn a recorded stream
  into JSONL or a Chrome ``trace_event`` file (open in Perfetto) — and
  back (:func:`read_jsonl`), plus Prometheus text and per-span CSV;
* the :class:`Profiler` (:mod:`repro.telemetry.profiling`) adds the
  wall-clock dimension for machine-readable benchmark artifacts;
* the metrics layer (:mod:`repro.telemetry.metrics`) folds the stream
  into latency :class:`Histogram`\\ s (p50/p95/p99) and time-weighted
  utilization gauges (CLB occupancy, config-port busy, residency);
* the span layer (:mod:`repro.telemetry.spans`) pairs every
  ``FpgaRequest``/``FpgaComplete`` into a causal :class:`Span` with
  per-phase durations and preemption annotations;
* :mod:`repro.telemetry.report` renders both as the ``repro report``
  summary tables and the ``BENCH_*.json`` analytics block.

Every future policy gets instrumentation for free by composing the
charging primitives in :class:`repro.core.base.VfpgaServiceBase`.

On top of the passive stream, the audit layer makes it an active
watchdog:

* the :class:`Auditor` (:mod:`repro.telemetry.audit`) verifies the
  OS contract online — disjoint residency, serial config port, paired
  state save/restore versions, operation liveness, and a cross-check of
  stream-derived occupancy against the metrics gauge — publishing
  :class:`AuditViolation` events back onto the bus;
* the :class:`AnomalyDetector` (:mod:`repro.telemetry.anomaly`) adds
  rolling-window detectors (latency spikes, occupancy leaks,
  starvation) as warning-severity violations;
* :mod:`repro.telemetry.benchdiff` diffs two ``BENCH_*.json``
  artifacts and gates CI on wall-clock / event-count regressions;
* the SLO layer (:mod:`repro.telemetry.slo`) evaluates declarative
  per-source objectives (:class:`SloObjective`) with error budgets and
  burn-rate alerts — breaches come back as typed :class:`SloBreach`
  events — and decomposes every span into queue / reconfig / service
  stages per source (:class:`QueueingDecomposition`), so a p99
  regression is attributable instead of opaque.
"""

from .bus import EventBus, Subscription, make_source
from .events import (
    EVENT_TYPES,
    Admit,
    BoardDispatch,
    Compact,
    ConfigPortOp,
    DeadlineMiss,
    Dispatch,
    Evict,
    Exec,
    FpgaComplete,
    FpgaRequest,
    Hit,
    Load,
    Miss,
    OpStart,
    PageAccess,
    PageFault,
    PinWindow,
    Placement,
    PortTransfer,
    Preempt,
    Prefetch,
    QuantumExpired,
    Relocate,
    Repair,
    Rollback,
    SchedDecision,
    ScrubPass,
    SegmentFault,
    SimStep,
    StateRestore,
    StateSave,
    Suspend,
    TaskDone,
    TelemetryEvent,
    Upset,
    Wait,
    event_type,
    register_event_type,
    registered_event_types,
)
from .audit import INVARIANTS, AuditError, Auditor, AuditViolation, audit_events
from .anomaly import AnomalyDetector
from .benchdiff import BenchDiff, DiffRow, diff_benches, load_bench
from .exporters import (
    STAGE_FIELDS,
    JsonlExporter,
    from_record,
    read_jsonl,
    spans_to_csv,
    stages_to_csv,
    to_chrome_trace,
    to_jsonl,
    to_prometheus,
)
from .metrics import (
    LATENCY_BUCKETS,
    Histogram,
    MetricsAggregator,
    TimeWeightedGauge,
    aggregate_events,
    log_buckets,
)
from .profiling import Profiler
from .recorders import EventLog, MetricsRecorder, derive_metrics
from .report import render_report, run_summary
from .slo import (
    STAGES,
    QueueingDecomposition,
    SloBreach,
    SloEngine,
    SloObjective,
    decompose_events,
    evaluate_slo,
    parse_slo_spec,
)
from .spans import SPAN_FIELDS, Span, SpanBuilder, build_spans

__all__ = [
    "EVENT_TYPES",
    "INVARIANTS",
    "LATENCY_BUCKETS",
    "SPAN_FIELDS",
    "STAGE_FIELDS",
    "STAGES",
    "Admit",
    "AnomalyDetector",
    "AuditError",
    "AuditViolation",
    "Auditor",
    "BenchDiff",
    "BoardDispatch",
    "Compact",
    "ConfigPortOp",
    "DeadlineMiss",
    "DiffRow",
    "Dispatch",
    "EventBus",
    "EventLog",
    "Evict",
    "Exec",
    "FpgaComplete",
    "FpgaRequest",
    "Histogram",
    "Hit",
    "JsonlExporter",
    "Load",
    "MetricsAggregator",
    "MetricsRecorder",
    "Miss",
    "OpStart",
    "PageAccess",
    "PageFault",
    "PinWindow",
    "PortTransfer",
    "Preempt",
    "Prefetch",
    "Profiler",
    "QuantumExpired",
    "Placement",
    "QueueingDecomposition",
    "Relocate",
    "Repair",
    "Rollback",
    "SchedDecision",
    "ScrubPass",
    "SegmentFault",
    "SimStep",
    "SloBreach",
    "SloEngine",
    "SloObjective",
    "Span",
    "SpanBuilder",
    "StateRestore",
    "StateSave",
    "Subscription",
    "Suspend",
    "TaskDone",
    "TelemetryEvent",
    "TimeWeightedGauge",
    "Upset",
    "Wait",
    "aggregate_events",
    "audit_events",
    "build_spans",
    "decompose_events",
    "derive_metrics",
    "diff_benches",
    "evaluate_slo",
    "event_type",
    "from_record",
    "load_bench",
    "log_buckets",
    "make_source",
    "parse_slo_spec",
    "read_jsonl",
    "register_event_type",
    "registered_event_types",
    "render_report",
    "run_summary",
    "spans_to_csv",
    "stages_to_csv",
    "to_chrome_trace",
    "to_jsonl",
    "to_prometheus",
]
