"""Streaming metric primitives and the bus-fed aggregation layer.

The event bus (PR 1) made every occurrence observable; this module turns
the stream into the *analytics* the paper's trade-offs are judged by:

* :class:`Histogram` — fixed-bucket latency histogram (Prometheus
  ``le`` semantics) with exact count/sum/min/max and interpolated
  p50/p95/p99.  O(#buckets) memory, no sample retention, no numpy.
* :class:`TimeWeightedGauge` — piecewise-constant value over simulation
  time with an exact integral (∫ value dt), time-weighted mean and max.
  Out-of-order updates (timestamps before the last observation) are
  applied *at* the last observation, so the integral is well defined on
  any stream ordering the bus can produce.
* :class:`MetricsAggregator` — one bus subscriber deriving the standard
  run analytics: reconfiguration/wait/exec/whole-operation latency
  histograms, CLB-occupancy / configuration-port-busy / residency /
  in-flight gauges, and per-event-type counters.
* :func:`aggregate_events` — the replay primitive: folding a recorded
  stream must yield *exactly* the live aggregator's state (the parity
  tests hold every management policy to this).

Everything here is deterministic: identical event streams fold to
bit-identical state, which is what makes exact-equality parity testing
possible.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Type

from .bus import EventBus
from .events import (
    Evict,
    Exec,
    FpgaComplete,
    FpgaRequest,
    Load,
    StateRestore,
    StateSave,
    TelemetryEvent,
    Wait,
    charge_interval,
)

__all__ = [
    "LATENCY_BUCKETS",
    "log_buckets",
    "Histogram",
    "TimeWeightedGauge",
    "MetricsAggregator",
    "aggregate_events",
]


def log_buckets(lo_exp: int = -7, hi_exp: int = 1,
                mantissas: Tuple[float, ...] = (1.0, 2.0, 5.0)) -> Tuple[float, ...]:
    """1-2-5 log-spaced bucket bounds covering ``10**lo_exp .. 10**hi_exp``."""
    if hi_exp <= lo_exp:
        raise ValueError("hi_exp must exceed lo_exp")
    out: List[float] = []
    for exp in range(lo_exp, hi_exp):
        for m in mantissas:
            out.append(m * 10.0 ** exp)
    out.append(10.0 ** hi_exp)
    return tuple(out)


#: Default latency bounds: 100 ns .. 10 s (covers a single CLB-row frame
#: download up to a full-serial boot of the largest family).
LATENCY_BUCKETS: Tuple[float, ...] = log_buckets(-7, 1)


class Histogram:
    """Fixed-bucket histogram with exact totals and estimated quantiles.

    ``bounds`` are inclusive upper bounds (Prometheus ``le`` semantics);
    an implicit overflow bucket catches everything above the last bound.
    Because the exact ``min``/``max`` are tracked alongside the buckets,
    quantile interpolation is clamped to the true value range — an
    empty, single-sample or all-equal stream yields *exact* quantiles.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, bounds: Iterable[float] = LATENCY_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return 0.0 if self.count == 0 else self.total / self.count

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile (``0 < q <= 1``); ``None`` if empty.

        Linear interpolation inside the bucket containing the target
        rank, with the bucket's range clamped to the observed
        ``[min, max]`` — so degenerate streams come out exact and the
        estimate never leaves the true value range.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if self.count == 0 or self.min is None or self.max is None:
            return None
        target = q * self.count
        cum = 0
        for i, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            if cum + n >= target:
                lo = self.min if i == 0 else max(self.bounds[i - 1], self.min)
                hi = self.max if i >= len(self.bounds) \
                    else min(self.bounds[i], self.max)
                lo = min(lo, hi)
                return lo + (hi - lo) * (target - cum) / n
            cum += n
        return self.max  # pragma: no cover - rounding guard

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary (what ``BENCH_*.json`` embeds)."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def snapshot(self) -> Dict[str, object]:
        """Full state (buckets included) for exact parity comparison."""
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }


class TimeWeightedGauge:
    """A piecewise-constant value over simulation time.

    Observations carry their own timestamps (the events' ``time``).  An
    update whose timestamp precedes the last observation is applied *at*
    the last observation time (``dt`` clamped to 0): deltas are never
    lost and the integral never runs backwards, so out-of-order
    interleavings (e.g. a ``Suspend`` published after the ``Dispatch``
    that follows it in wall order) stay well defined.
    """

    __slots__ = ("value", "integral", "first_time", "last_time", "max_value")

    def __init__(self, value: float = 0.0) -> None:
        self.value = value
        self.integral = 0.0
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None
        self.max_value = value

    def _advance(self, t: float) -> None:
        if self.first_time is None:
            self.first_time = self.last_time = t
            return
        dt = t - self.last_time
        if dt > 0:
            self.integral += self.value * dt
            self.last_time = t

    def set(self, t: float, value: float) -> None:
        self._advance(t)
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def add(self, t: float, delta: float) -> None:
        self.set(t, self.value + delta)

    def integral_at(self, t: Optional[float] = None) -> float:
        """∫ value dt from the first observation to ``t`` (default: the
        last observation) — non-mutating."""
        if self.last_time is None:
            return 0.0
        if t is None or t <= self.last_time:
            return self.integral
        return self.integral + self.value * (t - self.last_time)

    def mean(self, t: Optional[float] = None) -> float:
        """Time-weighted mean over the observed window."""
        if self.first_time is None:
            return 0.0
        end = self.last_time if t is None else max(t, self.last_time)
        elapsed = end - self.first_time
        return self.value if elapsed <= 0 else self.integral_at(end) / elapsed

    def snapshot(self) -> Dict[str, object]:
        return {
            "value": self.value,
            "integral": self.integral,
            "first_time": self.first_time,
            "last_time": self.last_time,
            "max": self.max_value,
        }


class MetricsAggregator:
    """Derive latency histograms and utilization gauges from the bus.

    Histograms
    ----------
    * ``reconfig_latency`` — per-download configuration-port time
      (:class:`Load` ``seconds``);
    * ``wait_latency`` — per-operation fabric queueing
      (:class:`Wait` ``seconds``);
    * ``exec_latency`` — per-execution useful fabric time
      (:class:`Exec` ``seconds``);
    * ``op_latency`` — whole-operation turnaround, paired from
      :class:`FpgaRequest`/:class:`FpgaComplete` via task + ``op_id``.

    Gauges (time-weighted over simulation time)
    -------------------------------------------
    * ``clb_occupancy`` — CLBs covered by resident configurations
      (service view: ``Load``/``Evict`` areas; an ``exclusive`` load
      resets it, mirroring the full-serial wipe);
    * ``residency`` — number of resident configurations;
    * ``inflight`` — FPGA operations issued but not completed.

    ``port_busy_seconds`` accumulates configuration-port occupancy
    (loads, evictions, state save/restore); ``port_busy_fraction`` is
    its share of the observed window.

    Parameters
    ----------
    bus:
        Subscribe immediately when given.
    source:
        Fold only service events from this ``source`` (``None`` = all).
        Kernel-attributed events (request/complete pairing) are always
        folded — they carry the per-board stream's task context.
    kernel_sources:
        The ``source`` strings that bypass the filter (default:
        ``("kernel",)``).
    buckets:
        Histogram bounds (default :data:`LATENCY_BUCKETS`).
    clb_capacity:
        Device CLB count; when given, occupancy is also reported as a
        fraction of the device.
    """

    def __init__(
        self,
        bus: Optional[EventBus] = None,
        source: Optional[str] = None,
        kernel_sources: Tuple[str, ...] = ("kernel",),
        buckets: Iterable[float] = LATENCY_BUCKETS,
        clb_capacity: Optional[int] = None,
    ) -> None:
        self.source = source
        self.kernel_sources = kernel_sources
        self.clb_capacity = clb_capacity
        bounds = tuple(buckets)
        self.reconfig_latency = Histogram(bounds)
        self.wait_latency = Histogram(bounds)
        self.exec_latency = Histogram(bounds)
        self.op_latency = Histogram(bounds)
        self.clb_occupancy = TimeWeightedGauge()
        self.residency = TimeWeightedGauge()
        self.inflight = TimeWeightedGauge()
        self.port_busy_seconds = 0.0
        #: total fabric queueing seconds (sum of Wait charges).
        self.queue_wait_seconds = 0.0
        #: endpoint deltas of every wait interval (+1 at its start, -1 at
        #: its end; see :func:`~repro.telemetry.events.charge_interval`).
        #: Kept raw and swept lazily (:meth:`queue_depth_summary`) —
        #: starts arrive out of order relative to already-folded events,
        #: so an online gauge would clamp overlap away; the lazy sweep
        #: is exact and still a pure function of the stream.
        self._queue_deltas: List[Tuple[float, int]] = []
        self.counts: Dict[str, int] = {}
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None
        #: handle -> (clbs, count) of the load that made it resident.
        self._resident: Dict[str, Tuple[int, int]] = {}
        #: task -> (request time, op_id) of the in-flight operation.
        self._open_ops: Dict[str, Tuple[float, int]] = {}
        self._handlers: Dict[Type[TelemetryEvent], Callable] = {
            Load: self._on_load,
            Evict: self._on_evict,
            StateSave: self._on_port_charge,
            StateRestore: self._on_port_charge,
            Wait: self._on_wait,
            Exec: self._on_exec,
            FpgaRequest: self._on_request,
            FpgaComplete: self._on_complete,
        }
        if bus is not None:
            bus.subscribe(self)

    # -- folding -------------------------------------------------------------
    def __call__(self, event: TelemetryEvent) -> None:
        if (
            self.source is not None
            and event.source != self.source
            and event.source not in self.kernel_sources
        ):
            return
        name = type(event).__name__
        self.counts[name] = self.counts.get(name, 0) + 1
        start, end = charge_interval(event)
        if self.first_time is None or start < self.first_time:
            self.first_time = start
        if self.last_time is None or end > self.last_time:
            self.last_time = end
        handler = self._handlers.get(type(event))
        if handler is not None:
            handler(event)

    def _on_load(self, e: Load) -> None:
        self.reconfig_latency.observe(e.seconds)
        self.port_busy_seconds += e.seconds
        if e.exclusive:
            # Full-device download: everything previously resident is gone.
            self._resident.clear()
            self._resident[e.handle] = (e.clbs, e.count)
            self.clb_occupancy.set(e.time, e.clbs)
            self.residency.set(e.time, e.count)
        else:
            self._resident[e.handle] = (e.clbs, e.count)
            self.clb_occupancy.add(e.time, e.clbs)
            self.residency.add(e.time, e.count)

    def _on_evict(self, e: Evict) -> None:
        self.port_busy_seconds += e.seconds
        clbs, count = self._resident.pop(e.handle, (e.clbs, 1))
        self.clb_occupancy.add(e.time, -clbs)
        self.residency.add(e.time, -count)

    def _on_port_charge(self, e) -> None:
        self.port_busy_seconds += e.seconds

    def _on_wait(self, e: Wait) -> None:
        self.wait_latency.observe(e.seconds)
        self.queue_wait_seconds += e.seconds
        start, end = charge_interval(e)
        self._queue_deltas.append((start, 1))
        self._queue_deltas.append((end, -1))

    def _on_exec(self, e: Exec) -> None:
        self.exec_latency.observe(e.seconds)

    def _on_request(self, e: FpgaRequest) -> None:
        self.inflight.add(e.time, 1)
        self._open_ops[e.task] = (e.time, e.op_id)

    def _on_complete(self, e: FpgaComplete) -> None:
        self.inflight.add(e.time, -1)
        started = self._open_ops.pop(e.task, None)
        if started is not None:
            self.op_latency.observe(e.time - started[0])

    # -- views ---------------------------------------------------------------
    @property
    def elapsed(self) -> float:
        """The observed simulation window, from the earliest start to the
        latest end of any event's :func:`~repro.telemetry.events.charge_interval`."""
        if self.first_time is None or self.last_time is None:
            return 0.0
        return self.last_time - self.first_time

    @property
    def port_busy_fraction(self) -> float:
        elapsed = self.elapsed
        return 0.0 if elapsed <= 0 else self.port_busy_seconds / elapsed

    def queue_depth_summary(self) -> Dict[str, object]:
        """Waiting-operation queue depth, derived from the wait
        intervals: the mean is exact (∑ wait seconds over the observed
        window) and the max is an exact sweep over interval endpoints
        (a wait ending exactly when another starts does not overlap
        it)."""
        depth = 0
        max_depth = 0
        for _t, delta in sorted(self._queue_deltas):
            depth += delta
            if depth > max_depth:
                max_depth = depth
        elapsed = self.elapsed
        return {
            "queue_wait_seconds": self.queue_wait_seconds,
            "queue_depth_max": max_depth,
            "queue_depth_mean": (
                0.0 if elapsed <= 0 else self.queue_wait_seconds / elapsed
            ),
        }

    def latency_summary(self) -> Dict[str, Dict[str, object]]:
        return {
            "reconfig": self.reconfig_latency.as_dict(),
            "wait": self.wait_latency.as_dict(),
            "exec": self.exec_latency.as_dict(),
            "op": self.op_latency.as_dict(),
        }

    def utilization_summary(self) -> Dict[str, object]:
        end = self.last_time
        out: Dict[str, object] = {
            "elapsed": self.elapsed,
            "clb_occupancy_mean": self.clb_occupancy.mean(end),
            "clb_occupancy_max": self.clb_occupancy.max_value,
            "clb_occupancy_integral": self.clb_occupancy.integral_at(end),
            "residency_mean": self.residency.mean(end),
            "residency_max": self.residency.max_value,
            "inflight_mean": self.inflight.mean(end),
            "inflight_max": self.inflight.max_value,
            "port_busy_seconds": self.port_busy_seconds,
            "port_busy_fraction": self.port_busy_fraction,
            **self.queue_depth_summary(),
        }
        if self.clb_capacity:
            out["clb_capacity"] = self.clb_capacity
            out["clb_occupancy_fraction_mean"] = (
                self.clb_occupancy.mean(end) / self.clb_capacity
            )
            out["clb_occupancy_fraction_max"] = (
                self.clb_occupancy.max_value / self.clb_capacity
            )
        return out

    def snapshot(self) -> Dict[str, object]:
        """Exhaustive state for exact parity comparison: histogram
        buckets, gauge integrals, counters — everything the stream
        determines."""
        return {
            "histograms": {
                "reconfig": self.reconfig_latency.snapshot(),
                "wait": self.wait_latency.snapshot(),
                "exec": self.exec_latency.snapshot(),
                "op": self.op_latency.snapshot(),
            },
            "gauges": {
                "clb_occupancy": self.clb_occupancy.snapshot(),
                "residency": self.residency.snapshot(),
                "inflight": self.inflight.snapshot(),
            },
            "port_busy_seconds": self.port_busy_seconds,
            "queue": {
                "deltas": list(self._queue_deltas),
                **self.queue_depth_summary(),
            },
            "counts": dict(sorted(self.counts.items())),
            "first_time": self.first_time,
            "last_time": self.last_time,
        }


def aggregate_events(
    events: Iterable[TelemetryEvent],
    source: Optional[str] = None,
    buckets: Iterable[float] = LATENCY_BUCKETS,
    clb_capacity: Optional[int] = None,
) -> MetricsAggregator:
    """Replay a recorded stream into a fresh aggregator — the parity
    primitive: a live aggregator's snapshot must equal the snapshot
    derived from the events it saw."""
    agg = MetricsAggregator(source=source, buckets=buckets,
                            clb_capacity=clb_capacity)
    for e in events:
        agg(e)
    return agg
