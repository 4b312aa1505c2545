"""EventBus, EventLog ring buffer, make_source."""

import pytest

from repro.telemetry import (
    Dispatch,
    EventBus,
    EventLog,
    Hit,
    Load,
    PageFault,
    SegmentFault,
    TaskDone,
    TelemetryEvent,
    event_type,
    make_source,
)


class TestEventBus:
    def test_typed_subscription_filters(self):
        bus = EventBus()
        got = []
        bus.subscribe(got.append, Load)
        bus.publish(Load(1.0, "t", handle="x"))
        bus.publish(Hit(2.0, "t", handle="x"))
        assert [type(e) for e in got] == [Load]

    def test_wildcard_gets_everything_in_order(self):
        bus = EventBus()
        got = []
        bus.subscribe(got.append)
        bus.publish(Dispatch(1.0, "a"))
        bus.publish(TaskDone(2.0, "a"))
        assert [type(e) for e in got] == [Dispatch, TaskDone]

    def test_base_class_expands_to_subtypes(self):
        """Subscribing to PageFault also delivers SegmentFault (exact-type
        dispatch never walks an MRO at publish time)."""
        bus = EventBus()
        got = []
        bus.subscribe(got.append, PageFault)
        bus.publish(PageFault(1.0, "t", unit="p0"))
        bus.publish(SegmentFault(2.0, "t", unit="s0"))
        assert [type(e) for e in got] == [PageFault, SegmentFault]

    def test_telemetry_event_base_means_everything(self):
        bus = EventBus()
        got = []
        bus.subscribe(got.append, TelemetryEvent)
        bus.publish(Load(1.0))
        bus.publish(Hit(2.0))
        assert len(got) == 2

    def test_subscriber_order_is_subscription_order(self):
        bus = EventBus()
        calls = []
        bus.subscribe(lambda e: calls.append("first"), Load)
        bus.subscribe(lambda e: calls.append("second"), Load)
        bus.publish(Load(0.0))
        assert calls == ["first", "second"]

    def test_unsubscribe(self):
        bus = EventBus()
        got = []
        sub = bus.subscribe(got.append, Load)
        bus.publish(Load(1.0))
        sub.close()
        bus.publish(Load(2.0))
        assert len(got) == 1
        assert bus.n_published == 2

    def test_subscription_context_manager(self):
        bus = EventBus()
        got = []
        with bus.subscribe(got.append):
            bus.publish(Hit(1.0))
        bus.publish(Hit(2.0))
        assert len(got) == 1

    def test_n_subscribers_dedupes(self):
        bus = EventBus()
        cb = lambda e: None
        bus.subscribe(cb, Load, Hit)
        assert bus.n_subscribers == 1

    def test_rejects_non_event_type(self):
        bus = EventBus()
        with pytest.raises(TypeError):
            bus.subscribe(lambda e: None, int)

    def test_event_type_lookup(self):
        assert event_type("Load") is Load
        with pytest.raises(KeyError):
            event_type("NotAnEvent")

    def test_subscribe_all_alias(self):
        bus = EventBus()
        got = []
        sub = bus.subscribe_all(got.append)
        bus.publish(Load(1.0))
        bus.publish(Hit(2.0))
        sub.close()
        bus.publish(Hit(3.0))
        assert [type(e) for e in got] == [Load, Hit]

    def test_base_subscriber_sees_audit_violations(self):
        """AuditViolation is a TelemetryEvent subtype registered *after*
        the core event module loaded: base-class subscribers must still
        receive it (the subclass-dispatch edge the audit layer leans on —
        traces/logs record the auditor's verdicts like any other event)."""
        from repro.telemetry import AuditViolation

        bus = EventBus()
        base_got, exact_got = [], []
        bus.subscribe(base_got.append, TelemetryEvent)
        bus.subscribe(exact_got.append, AuditViolation)
        v = AuditViolation(1.0, "t", invariant="double-allocation",
                           message="boom")
        bus.publish(v)
        assert base_got == [v] and exact_got == [v]

    def test_late_registered_subtype_reaches_base_subscriber(self):
        """A subtype minted after subscription (and even after the bus
        already dispatched its base) still reaches base subscribers —
        the publish cache must not freeze the type lattice."""
        from repro.telemetry import register_event_type

        bus = EventBus()
        got = []
        bus.subscribe(got.append, PageFault)
        bus.publish(PageFault(1.0, "t", unit="p0"))  # warms the cache

        from dataclasses import dataclass

        @register_event_type
        @dataclass(frozen=True)
        class LateFault(PageFault):
            pass

        bus.publish(LateFault(2.0, "t", unit="p1"))
        assert [type(e).__name__ for e in got] == ["PageFault", "LateFault"]

    def test_register_event_type_round_trips(self):
        """Late-registered types decode from their recorded name."""
        from repro.telemetry import register_event_type, registered_event_types

        from dataclasses import dataclass

        @register_event_type
        @dataclass(frozen=True)
        class CustomProbe(TelemetryEvent):
            payload: int = 0

        assert event_type("CustomProbe") is CustomProbe
        assert CustomProbe in registered_event_types()
        # Idempotent; a clashing name with a different class is rejected.
        assert register_event_type(CustomProbe) is CustomProbe

        @dataclass(frozen=True)
        class Impostor(TelemetryEvent):
            pass

        Impostor.__name__ = "CustomProbe"
        with pytest.raises(ValueError):
            register_event_type(Impostor)


class TestMakeSource:
    def test_unique_and_prefixed(self):
        a = make_source("Svc")
        b = make_source("Svc")
        assert a != b
        assert a.startswith("Svc#") and b.startswith("Svc#")


class TestEventLogRing:
    def test_unbounded_by_default(self):
        bus = EventBus()
        log = EventLog(bus)
        for i in range(100):
            bus.publish(Hit(float(i)))
        assert len(log) == 100
        assert log.dropped == 0

    def test_ring_keeps_most_recent(self):
        bus = EventBus()
        log = EventLog(bus, max_events=10)
        for i in range(25):
            bus.publish(Hit(float(i)))
        assert len(log) == 10
        assert log.dropped == 15
        assert [e.time for e in log.events] == [float(i) for i in range(15, 25)]

    def test_of_type_and_count(self):
        log = EventLog()
        log.record(Load(0.0))
        log.record(Hit(1.0))
        log.record(Hit(2.0))
        assert log.count(Hit) == 2
        assert [type(e) for e in log.of_type(Load)] == [Load]

    def test_clear(self):
        log = EventLog(max_events=2)
        for i in range(5):
            log.record(Hit(float(i)))
        log.clear()
        assert len(log) == 0 and log.dropped == 0

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            EventLog(max_events=0)
