"""Per-source SLO evaluation and queueing decomposition over the stream.

The metrics layer (PR 2) answers *what are the percentiles*; the audit
layer (PR 3) answers *was the contract honored*.  This module answers
the production questions in between: **is each tenant meeting its
objective**, **where does its latency come from**, and **how much error
budget is left** — all as pure functions of the event stream, so a
recorded JSONL evaluates exactly like the live run and attaching the
engine never perturbs the simulation it watches.

SLO engine
----------
:class:`SloObjective` declares one tenant's target set — a latency
percentile bound (``p99 <= 5 ms``), a deadline-miss-rate ceiling, an
availability floor — scoped by ``task``/``source`` glob selectors and
evaluated over a rolling simulation-time ``window`` (0 = cumulative).
:class:`SloEngine` subscribes to the bus and folds every closed causal
span (:mod:`repro.telemetry.spans`) into a completed-operation latency
attributed to the *serving source* — the span's first recorded source,
the same rule :class:`QueueingDecomposition` uses, so on a multi-board
stream each operation counts for the board that served it, not the
dispatcher that routed it — folds
:class:`~repro.telemetry.events.DeadlineMiss`/:class:`TaskDone` into a
miss rate, and republishes a typed :class:`SloBreach` event whenever an
objective crosses from met to violated (latched: one breach per
crossing, re-armed when the objective recovers).

Error budgets and burn rates follow the SRE convention: a ``pXX``
target allows a ``1 - XX`` fraction of bad operations; the budget
remaining is ``1 - bad/(allowed × total)``.  With ``burn_factor > 0``
the engine additionally runs the multi-window burn-rate alert — a
warning-severity :class:`SloBreach` (``metric="burn-rate"``) fires when
the budget is burning faster than ``burn_factor×`` over *both* the long
window (``window``) and the short window (``window / 12``), the
standard fast-burn page condition.

Queueing decomposition
----------------------
:class:`QueueingDecomposition` folds the causal spans
(:mod:`repro.telemetry.spans`) into per-source *stage* accounting —
where did each tenant's latency actually go:

* ``queue``    — fabric queueing (:class:`Wait`);
* ``reconfig`` — configuration-port traffic (loads, evictions, state
  save/restore: the virtualization tax);
* ``service``  — useful work (fabric execution + pin-mux I/O).

Each stage keeps a full latency :class:`~repro.telemetry.metrics.
Histogram` per source, so a p99 regression is attributable to a stage
rather than opaque; :class:`~repro.telemetry.events.ConfigPortOp` and
:class:`~repro.telemetry.events.SchedDecision` events supply the
device-port occupancy and priced-preemption counts per source as
supplementary columns.

Replay: :func:`evaluate_slo` and :func:`decompose_events` fold recorded
streams into fresh instances — live state must equal replayed state
exactly (the parity tests hold every policy to this).  Recorded
:class:`SloBreach` events are ignored on folding, so evaluating an
already-evaluated recording converges instead of echoing.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from fnmatch import fnmatchcase
from math import ceil
from typing import (
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .bus import EventBus
from .events import (
    ConfigPortOp,
    DeadlineMiss,
    FpgaRequest,
    SchedDecision,
    TaskDone,
    TelemetryEvent,
    register_event_type,
)
from .metrics import LATENCY_BUCKETS, Histogram
from .spans import Span, SpanBuilder

__all__ = [
    "SloBreach",
    "SloObjective",
    "SloEngine",
    "QueueingDecomposition",
    "STAGES",
    "evaluate_slo",
    "decompose_events",
    "parse_slo_spec",
]


@register_event_type
@dataclass(frozen=True)
class SloBreach(TelemetryEvent):
    """An objective crossed from met to violated (or burned too fast).

    Published back onto the bus by the :class:`SloEngine`, so breaches
    ride every existing export path (JSONL, Chrome trace, ``repro
    report``) with no extra plumbing.  ``severity`` is ``"error"`` for a
    violated objective and ``"warning"`` for a burn-rate alert;
    ``budget_remaining`` is the error-budget fraction left for the
    breached metric at the moment of the breach (negative = overspent).
    """

    objective: str = ""
    metric: str = ""            #: "p99" / "miss-rate" / "availability" / "burn-rate"
    threshold: float = 0.0
    observed: float = 0.0
    window: float = 0.0
    budget_remaining: float = 1.0
    severity: str = "error"     #: "error" | "warning"

    @property
    def detail(self) -> str:
        """One-line summary, as ``repro slo`` prints it."""
        return (f"{self.objective}: {self.metric} {self.observed:.4g} vs "
                f"{self.threshold:.4g}")


@dataclass(frozen=True)
class SloObjective:
    """One tenant's declarative service-level objective.

    Parameters
    ----------
    name:
        Objective identifier (appears in breach events and reports).
    task / source:
        Glob selectors (``fnmatch``) scoping which operations count:
        ``task`` matches the task name, ``source`` the serving service
        source.  ``"*"`` matches everything.
    latency:
        Latency bound in seconds at ``percentile`` over the window
        (``None`` = no latency objective).
    percentile:
        The bounded percentile as a fraction (0.99 = p99).  Also sets
        the error budget: a p99 target allows 1% bad operations.
    miss_rate:
        Maximum fraction of completed tasks that missed their declared
        deadline (``None`` = no deadline objective).
    availability:
        Minimum fraction of issued operations that completed by end of
        stream — evaluated once at :meth:`SloEngine.finish`, where
        "never completed" is decidable (``None`` = no objective).
    window:
        Rolling evaluation window in simulation seconds (0 =
        cumulative over the whole stream).
    min_samples:
        Completions required in the window before the latency/miss
        objectives are judged (early operations always look slow).
    burn_factor:
        Multi-window burn-rate alert threshold (0 = alerts off; needs
        ``window > 0`` and a latency objective).
    """

    name: str
    task: str = "*"
    source: str = "*"
    latency: Optional[float] = None
    percentile: float = 0.99
    miss_rate: Optional[float] = None
    availability: Optional[float] = None
    window: float = 0.0
    min_samples: int = 1
    burn_factor: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("objective needs a name")
        if not 0.0 < self.percentile < 1.0:
            raise ValueError("percentile must be in (0, 1)")
        if self.latency is not None and self.latency <= 0:
            raise ValueError("latency target must be positive")
        if self.miss_rate is not None and not 0.0 <= self.miss_rate < 1.0:
            raise ValueError("miss_rate must be in [0, 1)")
        if self.availability is not None and not 0.0 < self.availability <= 1.0:
            raise ValueError("availability must be in (0, 1]")
        if self.window < 0:
            raise ValueError("window must be non-negative")
        if self.min_samples < 1:
            raise ValueError("min_samples must be at least 1")
        if self.burn_factor < 0:
            raise ValueError("burn_factor must be non-negative")

    @property
    def latency_metric(self) -> str:
        """The latency metric label, e.g. ``"p99"`` (``"p99.5"`` style
        for fractional percentiles)."""
        pct = self.percentile * 100.0
        return f"p{pct:g}"

    def matches(self, task: str, source: str) -> bool:
        return fnmatchcase(task, self.task) and fnmatchcase(source, self.source)

    def describe(self) -> str:
        parts = []
        if self.latency is not None:
            parts.append(f"{self.latency_metric}<={self.latency:g}s")
        if self.miss_rate is not None:
            parts.append(f"miss-rate<={self.miss_rate:g}")
        if self.availability is not None:
            parts.append(f"availability>={self.availability:g}")
        return " ".join(parts) or "(no targets)"


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (exact, no
    interpolation — deterministic on any stream)."""
    rank = max(1, ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class _ObjectiveState:
    """Mutable evaluation state of one objective (engine-internal)."""

    __slots__ = (
        "completed", "bad_latency", "requests", "completions",
        "tasks_done", "tasks_missed", "window_lat", "window_sorted",
        "window_tasks", "burn_long", "burn_short", "latched", "observed",
    )

    def __init__(self) -> None:
        self.completed = 0        #: matching completed operations
        self.bad_latency = 0      #: completions over the latency target
        self.requests = 0         #: matching issued operations
        self.completions = 0      #: matching completions (availability)
        self.tasks_done = 0       #: matching TaskDone count
        self.tasks_missed = 0     #: matching DeadlineMiss count
        #: rolling window of (time, latency) plus a sorted mirror for
        #: exact percentile lookups without re-sorting per event.
        self.window_lat: Deque[Tuple[float, float]] = deque()
        self.window_sorted: List[float] = []
        #: rolling window of (time, missed) task completions.
        self.window_tasks: Deque[Tuple[float, int]] = deque()
        #: burn-rate windows of (time, bad) completions.
        self.burn_long: Deque[Tuple[float, int]] = deque()
        self.burn_short: Deque[Tuple[float, int]] = deque()
        #: metric -> currently latched breached state.
        self.latched: Dict[str, bool] = {}
        #: metric -> last observed value (report view).
        self.observed: Dict[str, float] = {}

    def snapshot(self) -> Dict[str, object]:
        return {
            "completed": self.completed,
            "bad_latency": self.bad_latency,
            "requests": self.requests,
            "completions": self.completions,
            "tasks_done": self.tasks_done,
            "tasks_missed": self.tasks_missed,
            "window_lat": list(self.window_lat),
            "window_tasks": list(self.window_tasks),
            "latched": dict(sorted(self.latched.items())),
            "observed": dict(sorted(self.observed.items())),
        }


class SloEngine:
    """Bus subscriber evaluating declarative per-source objectives.

    A pure fold over the stream: identical event sequences produce
    identical breach sequences and identical :meth:`snapshot` state,
    live or replayed (:func:`evaluate_slo`).  Recorded
    :class:`SloBreach` and audit events are ignored so re-evaluating an
    already-evaluated recording converges.

    Parameters
    ----------
    objectives:
        The :class:`SloObjective` set to evaluate.
    bus:
        Subscribe immediately when given; breaches are published back
        onto the same bus.
    """

    def __init__(
        self,
        objectives: Iterable[SloObjective],
        bus: Optional[EventBus] = None,
    ) -> None:
        self.objectives: Tuple[SloObjective, ...] = tuple(objectives)
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names in {names}")
        self.bus = bus
        self.breaches: List[SloBreach] = []
        self._states: Dict[str, _ObjectiveState] = {
            o.name: _ObjectiveState() for o in self.objectives
        }
        #: Pairs requests with completions and records serving sources;
        #: each closed span is folded, then dropped.
        self._spans = SpanBuilder()
        self.n_events = 0
        self.last_time: Optional[float] = None
        self._finished = False
        if bus is not None:
            bus.subscribe_all(self)

    # -- folding -------------------------------------------------------------
    def __call__(self, event: TelemetryEvent) -> None:
        cls = type(event)
        name = cls.__name__
        # Our own output (and the audit layer's) must not feed back in:
        # re-evaluating an evaluated recording has to converge.
        if name in ("SloBreach", "AuditViolation"):
            return
        self.n_events += 1
        self.last_time = event.time if self.last_time is None \
            else max(self.last_time, event.time)
        if cls is FpgaRequest:
            self._on_request(event)          # type: ignore[arg-type]
        elif cls is TaskDone:
            self._on_task_done(event)
        elif cls is DeadlineMiss:
            self._on_deadline_miss(event)
        self._spans(event)
        closed = self._spans.spans
        if closed:
            self._on_span(closed.pop())

    def _on_request(self, e: FpgaRequest) -> None:
        for obj in self.objectives:
            # Requests are counted against the *task* selector only: the
            # serving source is unknown until the service answers, and an
            # operation that is never served must still count as issued.
            if fnmatchcase(e.task, obj.task):
                self._states[obj.name].requests += 1

    def _on_span(self, span: Span) -> None:
        """One completed operation, credited to its serving source."""
        source = span.sources[0] if span.sources else ""
        latency = span.duration
        now = float(span.end)  # type: ignore[arg-type]
        for obj in self.objectives:
            if not obj.matches(span.task, source):
                continue
            st = self._states[obj.name]
            st.completions += 1
            st.completed += 1
            if obj.latency is None:
                continue
            bad = latency > obj.latency
            if bad:
                st.bad_latency += 1
            st.window_lat.append((now, latency))
            insort(st.window_sorted, latency)
            self._prune_latencies(obj, st, now)
            self._judge_latency(obj, st, now)
            if obj.burn_factor > 0 and obj.window > 0:
                st.burn_long.append((now, 1 if bad else 0))
                st.burn_short.append((now, 1 if bad else 0))
                self._judge_burn(obj, st, now)

    def _on_task_done(self, e: TelemetryEvent) -> None:
        for obj in self.objectives:
            if obj.miss_rate is None or not fnmatchcase(e.task, obj.task):
                continue
            st = self._states[obj.name]
            st.tasks_done += 1
            st.window_tasks.append((e.time, 0))
            self._judge_miss_rate(obj, st, e.time)

    def _on_deadline_miss(self, e: TelemetryEvent) -> None:
        for obj in self.objectives:
            if obj.miss_rate is None or not fnmatchcase(e.task, obj.task):
                continue
            st = self._states[obj.name]
            st.tasks_missed += 1
            st.window_tasks.append((e.time, 1))
            self._judge_miss_rate(obj, st, e.time)

    # -- window upkeep --------------------------------------------------------
    def _prune_latencies(self, obj: SloObjective, st: _ObjectiveState,
                         now: float) -> None:
        if obj.window <= 0:
            return
        horizon = now - obj.window
        while st.window_lat and st.window_lat[0][0] <= horizon:
            _t, lat = st.window_lat.popleft()
            # Remove one occurrence from the sorted mirror.
            idx = self._index_of(st.window_sorted, lat)
            st.window_sorted.pop(idx)
        while st.window_tasks and st.window_tasks[0][0] <= horizon:
            st.window_tasks.popleft()
        while st.burn_long and st.burn_long[0][0] <= horizon:
            st.burn_long.popleft()
        short_horizon = now - obj.window / 12.0
        while st.burn_short and st.burn_short[0][0] <= short_horizon:
            st.burn_short.popleft()

    @staticmethod
    def _index_of(ordered: List[float], value: float) -> int:
        from bisect import bisect_left

        idx = bisect_left(ordered, value)
        if idx >= len(ordered) or ordered[idx] != value:  # pragma: no cover
            raise RuntimeError("window bookkeeping out of sync")
        return idx

    # -- judging --------------------------------------------------------------
    def _budget(self, allowed: float, bad: int, total: int) -> float:
        """Error-budget fraction remaining (1 = untouched, <0 = overspent)."""
        if total <= 0 or allowed <= 0:
            return 1.0
        return 1.0 - (bad / total) / allowed

    def _transition(self, obj: SloObjective, metric: str, breached: bool,
                    observed: float, threshold: float, budget: float,
                    time: float, severity: str = "error") -> None:
        """Latch per metric: publish one breach per met→violated crossing."""
        st = self._states[obj.name]
        st.observed[metric] = observed
        was = st.latched.get(metric, False)
        st.latched[metric] = breached
        if breached and not was:
            self._emit(SloBreach(
                time, source="slo", objective=obj.name, metric=metric,
                threshold=threshold, observed=observed, window=obj.window,
                budget_remaining=budget, severity=severity,
            ))

    def _emit(self, breach: SloBreach) -> None:
        self.breaches.append(breach)
        if self.bus is not None:
            self.bus.publish(breach)

    def _judge_latency(self, obj: SloObjective, st: _ObjectiveState,
                       now: float) -> None:
        if obj.latency is None or len(st.window_sorted) < obj.min_samples:
            return
        observed = _percentile(st.window_sorted, obj.percentile)
        budget = self._budget(1.0 - obj.percentile, st.bad_latency,
                              st.completed)
        self._transition(obj, obj.latency_metric, observed > obj.latency,
                         observed, obj.latency, budget, now)

    def _judge_miss_rate(self, obj: SloObjective, st: _ObjectiveState,
                         now: float) -> None:
        if obj.window > 0:
            horizon = now - obj.window
            while st.window_tasks and st.window_tasks[0][0] <= horizon:
                st.window_tasks.popleft()
        total = len(st.window_tasks)
        if obj.miss_rate is None or total < obj.min_samples:
            return
        missed = sum(m for _t, m in st.window_tasks)
        observed = missed / total
        budget = self._budget(obj.miss_rate, st.tasks_missed,
                              st.tasks_done + st.tasks_missed) \
            if obj.miss_rate > 0 else (0.0 if st.tasks_missed else 1.0)
        self._transition(obj, "miss-rate", observed > obj.miss_rate,
                         observed, obj.miss_rate, budget, now)

    def _judge_burn(self, obj: SloObjective, st: _ObjectiveState,
                    now: float) -> None:
        allowed = 1.0 - obj.percentile
        if allowed <= 0 or len(st.burn_short) < obj.min_samples:
            return

        def burn(window: Deque[Tuple[float, int]]) -> float:
            total = len(window)
            if total == 0:
                return 0.0
            return (sum(b for _t, b in window) / total) / allowed

        long_burn, short_burn = burn(st.burn_long), burn(st.burn_short)
        breached = (long_burn > obj.burn_factor
                    and short_burn > obj.burn_factor)
        budget = self._budget(allowed, st.bad_latency, st.completed)
        self._transition(obj, "burn-rate", breached, short_burn,
                         obj.burn_factor, budget, now, severity="warning")

    # -- end of stream --------------------------------------------------------
    def finish(self) -> None:
        """End-of-stream evaluation: availability is decidable only once
        "never completed" is (operations still open count as failed).
        Idempotent."""
        if self._finished:
            return
        self._finished = True
        t = self.last_time if self.last_time is not None else 0.0
        for obj in self.objectives:
            if obj.availability is None:
                continue
            st = self._states[obj.name]
            if st.requests == 0:
                continue
            observed = st.completions / st.requests
            budget = self._budget(1.0 - obj.availability,
                                  st.requests - st.completions, st.requests) \
                if obj.availability < 1.0 \
                else (0.0 if st.completions < st.requests else 1.0)
            self._transition(obj, "availability",
                             observed < obj.availability, observed,
                             obj.availability, budget, t)

    # -- views ---------------------------------------------------------------
    @property
    def breached(self) -> bool:
        """Any error-severity breach so far (the CLI exit criterion)."""
        return any(b.severity == "error" for b in self.breaches)

    def status(self) -> List[Dict[str, object]]:
        """One report row per objective metric (current window view)."""
        rows: List[Dict[str, object]] = []
        for obj in self.objectives:
            st = self._states[obj.name]
            metrics: List[Tuple[str, Optional[float], str]] = []
            if obj.latency is not None:
                metrics.append((obj.latency_metric, obj.latency, "<="))
            if obj.miss_rate is not None:
                metrics.append(("miss-rate", obj.miss_rate, "<="))
            if obj.availability is not None:
                metrics.append(("availability", obj.availability, ">="))
            if obj.burn_factor > 0 and obj.window > 0:
                metrics.append(("burn-rate", obj.burn_factor, "<="))
            for metric, threshold, sense in metrics:
                budget = 1.0
                if metric in (obj.latency_metric, "burn-rate"):
                    budget = self._budget(1.0 - obj.percentile,
                                          st.bad_latency, st.completed)
                elif metric == "miss-rate" and obj.miss_rate:
                    budget = self._budget(obj.miss_rate, st.tasks_missed,
                                          st.tasks_done + st.tasks_missed)
                elif metric == "availability" and obj.availability is not None \
                        and obj.availability < 1.0:
                    budget = self._budget(1.0 - obj.availability,
                                          st.requests - st.completions,
                                          st.requests)
                rows.append({
                    "objective": obj.name,
                    "selector": f"task={obj.task} source={obj.source}",
                    "metric": metric,
                    "sense": sense,
                    "threshold": threshold,
                    "observed": st.observed.get(metric),
                    "samples": st.completed if metric != "miss-rate"
                    else st.tasks_done + st.tasks_missed,
                    "budget_remaining": budget,
                    "breached": st.latched.get(metric, False),
                })
        return rows

    def summary(self) -> Dict[str, object]:
        """JSON-ready view (what ``repro slo --json`` prints)."""
        return {
            "n_events": self.n_events,
            "n_breaches": len(self.breaches),
            "breached": self.breached,
            "objectives": self.status(),
            "breaches": [b.to_record() for b in self.breaches],
        }

    def snapshot(self) -> Dict[str, object]:
        """Exhaustive state for exact live-vs-replay parity comparison."""
        return {
            "n_events": self.n_events,
            "last_time": self.last_time,
            "finished": self._finished,
            "open": {task: [span.start, span.op_id, list(span.sources)]
                     for task, span in sorted(self._spans.open_spans.items())},
            "states": {name: st.snapshot()
                       for name, st in sorted(self._states.items())},
            "breaches": [b.to_record() for b in self.breaches],
        }


def evaluate_slo(
    events: Iterable[TelemetryEvent],
    objectives: Iterable[SloObjective],
    finish: bool = True,
) -> SloEngine:
    """Replay a recorded stream into a fresh engine — the parity
    primitive: live breaches and state must equal the replay's."""
    engine = SloEngine(objectives)
    for e in events:
        engine(e)
    if finish:
        engine.finish()
    return engine


# ---------------------------------------------------------------------------
# objective spec parsing (the CLI's declarative surface)
# ---------------------------------------------------------------------------

def parse_slo_spec(spec: str) -> SloObjective:
    """Parse one ``--slo`` objective spec into a :class:`SloObjective`.

    Comma-separated clauses; targets use comparison syntax, scoping uses
    ``key=value``::

        p99<=5e-3
        gold:p95<=2e-3,miss-rate<=0.01,window=0.05
        p99<=5e-3,availability>=0.999,task=tenant0*,source=svc*

    A leading ``NAME:`` names the objective (default: the spec itself).
    Recognized scope keys: ``task``, ``source``, ``window``,
    ``min-samples``, ``burn``.
    """
    text = spec.strip()
    if not text:
        raise ValueError("empty SLO spec")
    name = text
    head, sep, rest = text.partition(":")
    if sep and "=" not in head and "<" not in head and ">" not in head:
        name, text = head.strip(), rest.strip()
    kwargs: Dict[str, object] = {"name": name}
    for clause in text.split(","):
        clause = clause.strip()
        if not clause:
            continue
        if "<=" in clause:
            metric, _, value = clause.partition("<=")
            metric, value = metric.strip(), value.strip()
            if metric.startswith("p"):
                try:
                    pct = float(metric[1:])
                except ValueError:
                    raise ValueError(
                        f"bad latency percentile in {clause!r}") from None
                if not 0.0 < pct < 100.0:
                    raise ValueError(f"percentile out of range in {clause!r}")
                kwargs["percentile"] = pct / 100.0
                kwargs["latency"] = float(value)
            elif metric == "miss-rate":
                kwargs["miss_rate"] = float(value)
            else:
                raise ValueError(
                    f"unknown '<=' metric {metric!r} (have pXX, miss-rate)")
        elif ">=" in clause:
            metric, _, value = clause.partition(">=")
            if metric.strip() != "availability":
                raise ValueError(
                    f"unknown '>=' metric {metric.strip()!r} "
                    f"(have availability)")
            kwargs["availability"] = float(value)
        elif "=" in clause:
            key, _, value = clause.partition("=")
            key, value = key.strip(), value.strip()
            if key == "task":
                kwargs["task"] = value
            elif key == "source":
                kwargs["source"] = value
            elif key == "window":
                kwargs["window"] = float(value)
            elif key == "min-samples":
                kwargs["min_samples"] = int(value)
            elif key == "burn":
                kwargs["burn_factor"] = float(value)
            elif key == "name":
                kwargs["name"] = value
            else:
                raise ValueError(
                    f"unknown SLO scope key {key!r} (have task, source, "
                    f"window, min-samples, burn, name)")
        else:
            raise ValueError(
                f"cannot parse SLO clause {clause!r} (expected METRIC<=V, "
                f"availability>=V or key=value)")
    return SloObjective(**kwargs)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# queueing decomposition
# ---------------------------------------------------------------------------

#: The latency stages every operation decomposes into.
STAGES: Tuple[str, ...] = ("queue", "reconfig", "service")


class _SourceStages:
    """Per-source stage accounting (decomposition-internal)."""

    __slots__ = ("ops", "hists", "totals", "duration", "unaccounted",
                 "port_seconds", "port_ops", "sched_decisions", "preempts")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.ops = 0
        self.hists: Dict[str, Histogram] = {
            stage: Histogram(buckets) for stage in STAGES
        }
        self.totals: Dict[str, float] = {stage: 0.0 for stage in STAGES}
        self.duration = 0.0
        self.unaccounted = 0.0
        self.port_seconds = 0.0      #: raw device ConfigPortOp occupancy
        self.port_ops = 0
        self.sched_decisions = 0     #: priced preemption points
        self.preempts = 0            #: ...that chose to preempt


def _span_stages(span: Span) -> Dict[str, float]:
    """One span's stage durations: queue / reconfig / service."""
    return {
        "queue": span.wait_seconds,
        "reconfig": span.reconfig_seconds + span.state_seconds,
        "service": span.exec_seconds + span.io_seconds,
    }


class QueueingDecomposition:
    """Fold closed spans into per-source stage latency attribution.

    Wraps a :class:`~repro.telemetry.spans.SpanBuilder`; every span that
    closes is folded into its serving source's stage histograms (the
    span's first recorded service source; kernel-only spans fold under
    ``"kernel"``).  :class:`~repro.telemetry.events.ConfigPortOp` and
    :class:`~repro.telemetry.events.SchedDecision` events enrich each
    source with device-port occupancy and priced-preemption counts.

    A pure fold: :func:`decompose_events` over the recorded stream must
    equal the live subscriber's state exactly.
    """

    def __init__(self, bus: Optional[EventBus] = None,
                 buckets: Iterable[float] = LATENCY_BUCKETS) -> None:
        self._buckets = tuple(buckets)
        self._spans = SpanBuilder()
        self._n_folded = 0
        self.per_source: Dict[str, _SourceStages] = {}
        if bus is not None:
            bus.subscribe_all(self)

    @property
    def spans(self) -> SpanBuilder:
        return self._spans

    def _stats(self, source: str) -> _SourceStages:
        st = self.per_source.get(source)
        if st is None:
            st = self.per_source[source] = _SourceStages(self._buckets)
        return st

    def __call__(self, event: TelemetryEvent) -> None:
        cls = type(event)
        if cls is ConfigPortOp:
            st = self._stats(event.source or "device")
            st.port_seconds += event.seconds  # type: ignore[attr-defined]
            st.port_ops += 1
        elif cls is SchedDecision:
            st = self._stats(event.source or "kernel")
            st.sched_decisions += 1
            if event.preempt:  # type: ignore[attr-defined]
                st.preempts += 1
        self._spans(event)
        closed = self._spans.spans
        while self._n_folded < len(closed):
            self._fold(closed[self._n_folded])
            self._n_folded += 1

    def _fold(self, span: Span) -> None:
        source = span.sources[0] if span.sources else "kernel"
        st = self._stats(source)
        st.ops += 1
        st.duration += span.duration
        st.unaccounted += span.unaccounted_seconds
        for stage, seconds in _span_stages(span).items():
            st.totals[stage] += seconds
            st.hists[stage].observe(seconds)

    # -- views ---------------------------------------------------------------
    def stage_shares(self, source: Optional[str] = None) -> Dict[str, float]:
        """Each stage's share of total operation latency (one source, or
        all sources combined).  Shares are charge-site totals over
        turnaround and may sum past 1 when charges overlap in wall time
        (e.g. an operation billed queueing while its partition's port
        traffic is also charged to it); what matters for attribution is
        each stage's own trend."""
        stats = [self.per_source[source]] if source is not None \
            else list(self.per_source.values())
        duration = sum(s.duration for s in stats)
        if duration <= 0:
            return {stage: 0.0 for stage in STAGES}
        return {
            stage: sum(s.totals[stage] for s in stats) / duration
            for stage in STAGES
        }

    def rows(self) -> List[Dict[str, object]]:
        """One report row per source (the ``repro slo`` stage table)."""
        out: List[Dict[str, object]] = []
        for source in sorted(self.per_source):
            st = self.per_source[source]
            row: Dict[str, object] = {
                "source": source,
                "ops": st.ops,
                "duration": st.duration,
                "unaccounted": st.unaccounted,
                "port_seconds": st.port_seconds,
                "port_ops": st.port_ops,
                "sched_decisions": st.sched_decisions,
                "preempts": st.preempts,
            }
            for stage in STAGES:
                hist = st.hists[stage]
                row[stage] = st.totals[stage]
                row[f"{stage}_share"] = (
                    st.totals[stage] / st.duration if st.duration > 0 else 0.0
                )
                row[f"{stage}_p99"] = hist.quantile(0.99)
            out.append(row)
        return out

    def summary(self) -> Dict[str, object]:
        """JSON-ready reduction (embedded by ``repro slo --json``)."""
        return {
            "stages": list(STAGES),
            "share": self.stage_shares(),
            "per_source": self.rows(),
            "n_spans": len(self._spans.spans),
            "n_open": len(self._spans.open_spans),
        }

    def snapshot(self) -> Dict[str, object]:
        """Exhaustive state for exact parity comparison."""
        return {
            "per_source": {
                source: {
                    "ops": st.ops,
                    "duration": st.duration,
                    "unaccounted": st.unaccounted,
                    "totals": dict(st.totals),
                    "hists": {stage: st.hists[stage].snapshot()
                              for stage in STAGES},
                    "port_seconds": st.port_seconds,
                    "port_ops": st.port_ops,
                    "sched_decisions": st.sched_decisions,
                    "preempts": st.preempts,
                }
                for source, st in sorted(self.per_source.items())
            },
            "n_folded": self._n_folded,
            "n_open": len(self._spans.open_spans),
        }


def decompose_events(
    events: Iterable[TelemetryEvent],
    buckets: Iterable[float] = LATENCY_BUCKETS,
) -> QueueingDecomposition:
    """Replay a recorded stream into a fresh decomposition — the parity
    primitive for stage attribution."""
    decomp = QueueingDecomposition(buckets=buckets)
    for e in events:
        decomp(e)
    return decomp
