"""Unit tests for the streaming metric primitives.

Histogram quantiles must be *exact* on degenerate streams (empty, single
sample, all-equal, samples sitting on bucket bounds) — the min/max clamp
guarantees it.  Time-weighted gauges must keep a well-defined integral
under out-of-order interleavings (a ``Suspend`` timestamped before the
``Dispatch`` that already advanced the clock).
"""

import pytest

from repro.telemetry import (
    Dispatch,
    Evict,
    FpgaComplete,
    FpgaRequest,
    Histogram,
    Load,
    MetricsAggregator,
    Suspend,
    TimeWeightedGauge,
    Wait,
    aggregate_events,
    log_buckets,
)


class TestLogBuckets:
    def test_spacing_and_range(self):
        bounds = log_buckets(-2, 1)
        assert bounds[0] == pytest.approx(0.01)
        assert bounds[-1] == pytest.approx(10.0)
        assert list(bounds) == sorted(bounds)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            log_buckets(1, 1)


class TestHistogramEdgeCases:
    def test_empty_stream(self):
        h = Histogram()
        assert h.count == 0 and h.total == 0.0 and h.mean == 0.0
        assert h.quantile(0.5) is None
        d = h.as_dict()
        assert d["p50"] is None and d["min"] is None and d["max"] is None

    def test_single_sample_quantiles_exact(self):
        h = Histogram()
        h.observe(3.7e-3)
        for q in (0.01, 0.5, 0.95, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(3.7e-3)
        assert h.min == h.max == 3.7e-3

    def test_all_equal_values_exact(self):
        h = Histogram()
        for _ in range(100):
            h.observe(2e-4)
        for q in (0.5, 0.95, 0.99):
            assert h.quantile(q) == pytest.approx(2e-4)
        assert h.total == pytest.approx(100 * 2e-4)

    def test_sample_on_bucket_boundary(self):
        """``le`` semantics: a value equal to a bound lands in that
        bound's bucket (inclusive upper bound), and stays exact."""
        h = Histogram(bounds=(1.0, 2.0, 5.0))
        h.observe(2.0)
        assert h.bucket_counts == [0, 1, 0, 0]
        assert h.quantile(0.5) == pytest.approx(2.0)

    def test_overflow_bucket(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(100.0)
        assert h.bucket_counts == [0, 0, 1]
        assert h.quantile(0.99) == pytest.approx(100.0)

    def test_quantiles_monotone_and_in_range(self):
        h = Histogram()
        for i in range(1, 200):
            h.observe(i * 1e-4)
        qs = [h.quantile(q) for q in (0.1, 0.5, 0.9, 0.95, 0.99, 1.0)]
        assert qs == sorted(qs)
        assert all(h.min <= v <= h.max for v in qs)
        assert h.quantile(1.0) == pytest.approx(h.max)

    def test_interpolation_within_bucket(self):
        # 10 samples in (1, 2]: p50 interpolates inside that bucket.
        h = Histogram(bounds=(1.0, 2.0, 5.0))
        for i in range(10):
            h.observe(1.1 + i * 0.08)
        p50 = h.quantile(0.5)
        assert h.min <= p50 <= h.max
        assert 1.1 <= p50 <= 1.9

    def test_rejects_bad_q_and_bad_bounds(self):
        h = Histogram()
        with pytest.raises(ValueError):
            h.quantile(0.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))

    def test_snapshot_is_exhaustive(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        snap = h.snapshot()
        assert snap == {
            "bounds": [1.0, 2.0], "bucket_counts": [1, 1, 0],
            "count": 2, "sum": 2.0, "min": 0.5, "max": 1.5,
        }


class TestTimeWeightedGauge:
    def test_basic_integral(self):
        g = TimeWeightedGauge()
        g.set(0.0, 2.0)
        g.set(10.0, 4.0)   # 2.0 for 10 s
        g.set(20.0, 0.0)   # 4.0 for 10 s
        assert g.integral_at() == pytest.approx(60.0)
        assert g.mean() == pytest.approx(3.0)
        assert g.max_value == 4.0

    def test_add_matches_set(self):
        a, b = TimeWeightedGauge(), TimeWeightedGauge()
        a.set(0.0, 1.0)
        a.set(5.0, 3.0)
        b.set(0.0, 1.0)
        b.add(5.0, 2.0)
        assert a.snapshot() == b.snapshot()

    def test_integral_extends_to_query_time(self):
        g = TimeWeightedGauge()
        g.set(0.0, 5.0)
        assert g.integral_at(4.0) == pytest.approx(20.0)
        assert g.integral == 0.0  # non-mutating

    def test_out_of_order_update_clamped(self):
        """An update timestamped before the last observation applies at
        the last observation: the delta lands, time never runs back."""
        g = TimeWeightedGauge()
        g.set(0.0, 1.0)
        g.set(10.0, 2.0)
        g.add(4.0, -1.0)   # late-arriving decrement
        assert g.value == 1.0
        assert g.last_time == 10.0
        assert g.integral_at() == pytest.approx(10.0)  # never negative dt
        g.set(20.0, 0.0)
        assert g.integral_at() == pytest.approx(10.0 + 1.0 * 10.0)

    def test_empty_gauge(self):
        g = TimeWeightedGauge()
        assert g.integral_at() == 0.0
        assert g.mean() == 0.0
        assert g.first_time is None


class TestAggregatorUnits:
    """Feed hand-built streams; check the folds the policies rely on."""

    def test_exclusive_load_resets_occupancy(self):
        agg = aggregate_events([
            Load(0.0, "", source="s", handle="a", seconds=1.0, clbs=40),
            Load(2.0, "", source="s", handle="b", seconds=1.0, clbs=30),
            Load(4.0, "", source="s", handle="c", seconds=1.0, clbs=50,
                 exclusive=True),
        ])
        assert agg.clb_occupancy.value == 50  # a and b wiped
        assert agg.residency.value == 1
        assert agg.clb_occupancy.max_value == 70

    def test_evict_uses_load_area(self):
        """The evict may omit ``clbs``; the area comes from the load."""
        agg = aggregate_events([
            Load(0.0, "", source="s", handle="a", seconds=1.0, clbs=40),
            Evict(5.0, "", source="s", handle="a", seconds=1.0),
        ])
        assert agg.clb_occupancy.value == 0
        assert agg.clb_occupancy.integral_at() == pytest.approx(40 * 5.0)

    def test_op_latency_pairs_request_complete(self):
        agg = aggregate_events([
            FpgaRequest(1.0, "t", source="kernel", config="c", op_id=1),
            FpgaComplete(4.0, "t", source="kernel", config="c", op_id=1),
        ])
        assert agg.op_latency.count == 1
        assert agg.op_latency.total == pytest.approx(3.0)
        assert agg.inflight.value == 0 and agg.inflight.max_value == 1

    def test_unpaired_complete_ignored(self):
        agg = aggregate_events([
            FpgaComplete(4.0, "t", source="kernel", config="c", op_id=9),
        ])
        assert agg.op_latency.count == 0

    def test_source_filter_keeps_kernel_events(self):
        events = [
            FpgaRequest(0.0, "t", source="kernel", config="c", op_id=1),
            Load(0.1, "t", source="board0", handle="c", seconds=0.5),
            Load(0.2, "t", source="board1", handle="c", seconds=0.7),
            FpgaComplete(1.0, "t", source="kernel", config="c", op_id=1),
        ]
        agg = aggregate_events(events, source="board0")
        assert agg.reconfig_latency.count == 1
        assert agg.reconfig_latency.total == pytest.approx(0.5)
        assert agg.op_latency.count == 1  # kernel events bypass the filter

    def test_elapsed_covers_charge_durations(self):
        """``last_time`` is the charge *end*, not its start instant."""
        agg = aggregate_events([
            Load(0.0, "", source="s", handle="a", seconds=2.0, clbs=10),
        ])
        assert agg.elapsed == pytest.approx(2.0)
        assert agg.port_busy_fraction == pytest.approx(1.0)
        # A Wait is stamped at its *end*: its seconds lie behind it, so
        # it must not stretch the window past the run.
        agg = aggregate_events([
            FpgaRequest(0.0, "t", source="kernel", config="c", op_id=1),
            Wait(2.0, "t", source="s", seconds=2.0),
            FpgaComplete(2.5, "t", source="kernel", config="c", op_id=1),
        ])
        assert agg.elapsed == pytest.approx(2.5)
        assert agg.queue_depth_summary()["queue_depth_mean"] == pytest.approx(0.8)

    def test_gauge_integral_under_out_of_order_suspend(self):
        """A Suspend/Dispatch pair arriving out of order must not make
        any gauge integral ill-defined (counts still land)."""
        events = [
            FpgaRequest(0.0, "t", source="kernel", config="c", op_id=1),
            Dispatch(2.0, "t", source="kernel"),
            Suspend(1.0, "t", source="kernel"),  # published late
            FpgaComplete(3.0, "t", source="kernel", config="c", op_id=1),
        ]
        agg = aggregate_events(events)
        assert agg.counts["Suspend"] == 1
        assert agg.inflight.integral_at() == pytest.approx(3.0)
        assert agg.op_latency.total == pytest.approx(3.0)

    def test_streaming_equals_batch(self):
        events = [
            Load(0.0, "t", source="s", handle="a", seconds=1.0, clbs=8),
            Evict(3.0, "t", source="s", handle="a", seconds=0.5),
            Load(4.0, "t", source="s", handle="b", seconds=1.0, clbs=6),
        ]
        live = MetricsAggregator()
        for e in events:
            live(e)
        assert live.snapshot() == aggregate_events(events).snapshot()
