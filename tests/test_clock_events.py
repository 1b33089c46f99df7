"""Unit tests for the clock and the event bus."""

from datetime import datetime, timezone

import pytest

from repro.clock import SimulatedClock, SystemClock
from repro.events import BatchingEventBus, Event, EventBus, EventRecorder


class TestSystemClock:
    def test_now_is_timezone_aware(self):
        assert SystemClock().now().tzinfo is not None

    def test_now_moves_forward(self):
        clock = SystemClock()
        assert clock.now() <= clock.now()


class TestSimulatedClock:
    def test_default_start(self):
        clock = SimulatedClock()
        assert clock.now().year == 2009

    def test_advance_days(self):
        clock = SimulatedClock()
        start = clock.now()
        clock.advance(days=3)
        assert (clock.now() - start).days == 3

    def test_advance_mixed_units(self):
        clock = SimulatedClock()
        start = clock.now()
        clock.advance(hours=12, minutes=30)
        assert (clock.now() - start).total_seconds() == 12.5 * 3600

    def test_advance_backwards_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(days=-1)

    def test_set_forward(self):
        clock = SimulatedClock()
        clock.set(datetime(2010, 1, 1, tzinfo=timezone.utc))
        assert clock.now().year == 2010

    def test_set_backwards_rejected(self):
        clock = SimulatedClock(datetime(2010, 1, 1, tzinfo=timezone.utc))
        with pytest.raises(ValueError):
            clock.set(datetime(2009, 1, 1, tzinfo=timezone.utc))

    def test_naive_start_becomes_utc(self):
        clock = SimulatedClock(datetime(2009, 5, 1))
        assert clock.now().tzinfo is not None

    def test_today(self):
        assert SimulatedClock().today().year == 2009


def _event(kind, subject="s1"):
    return Event(kind=kind, timestamp=SimulatedClock().now(), subject_id=subject)


class TestEventBus:
    def test_exact_subscription(self):
        bus = EventBus()
        seen = []
        bus.subscribe("instance.created", seen.append)
        bus.publish(_event("instance.created"))
        bus.publish(_event("instance.completed"))
        assert [e.kind for e in seen] == ["instance.created"]

    def test_prefix_subscription(self):
        bus = EventBus()
        seen = []
        bus.subscribe("action.", seen.append)
        bus.publish(_event("action.completed"))
        bus.publish(_event("instance.created"))
        assert len(seen) == 1

    def test_wildcard_subscription(self):
        bus = EventBus()
        recorder = EventRecorder(bus)
        bus.publish(_event("a"))
        bus.publish(_event("b"))
        assert recorder.kinds() == ["a", "b"]

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe("x", seen.append)
        bus.publish(_event("x"))
        unsubscribe()
        bus.publish(_event("x"))
        assert len(seen) == 1

    def test_failing_handler_does_not_block_others(self):
        bus = EventBus()
        seen = []

        def broken(event):
            raise RuntimeError("boom")

        bus.subscribe("x", broken)
        bus.subscribe("x", seen.append)
        bus.publish(_event("x"))
        assert len(seen) == 1

    def test_strict_bus_raises(self):
        bus = EventBus(strict=True)

        def broken(event):
            raise RuntimeError("boom")

        bus.subscribe("x", broken)
        with pytest.raises(RuntimeError):
            bus.publish(_event("x"))

    def test_published_count(self):
        bus = EventBus()
        bus.publish(_event("x"))
        bus.publish(_event("y"))
        assert bus.published_count == 2


@pytest.mark.parametrize("make_bus", [EventBus, BatchingEventBus],
                         ids=["sync", "batching"])
class TestSubscriberCache:
    """Matching is cached per kind; (un)subscribing after events flowed
    must still change who sees the next event, in registration order."""

    @staticmethod
    def publish(bus, kind):
        bus.publish(_event(kind))
        if isinstance(bus, BatchingEventBus):
            bus.flush()

    def test_late_subscriber_sees_the_next_event(self, make_bus):
        bus = make_bus()
        seen = []
        bus.subscribe("*", lambda event: seen.append(("all", event.kind)))
        self.publish(bus, "instance.created")
        bus.subscribe("instance.", lambda event: seen.append(("prefix", event.kind)))
        bus.subscribe("instance.created", lambda event: seen.append(("exact", event.kind)))
        self.publish(bus, "instance.created")
        self.publish(bus, "action.completed")
        assert seen == [("all", "instance.created"),
                        ("all", "instance.created"),
                        ("prefix", "instance.created"),
                        ("exact", "instance.created"),
                        ("all", "action.completed")]

    def test_unsubscribed_handler_misses_the_next_event(self, make_bus):
        bus = make_bus()
        seen = []
        unsubscribe = bus.subscribe("instance.", seen.append)
        keep = []
        bus.subscribe("instance.created", keep.append)
        self.publish(bus, "instance.created")
        unsubscribe()
        self.publish(bus, "instance.created")
        assert len(seen) == 1
        assert len(keep) == 2

    def test_handler_subscribing_during_delivery_starts_with_the_next_event(
            self, make_bus):
        bus = make_bus()
        late = []

        def subscribe_late(event):
            if not late:
                late.append("subscribed")
                bus.subscribe("x", late.append)

        bus.subscribe("x", subscribe_late)
        self.publish(bus, "x")
        assert late == ["subscribed"]
        self.publish(bus, "x")
        assert len(late) == 2 and late[1].kind == "x"


class TestEventRecorder:
    def test_of_kind_and_clear(self):
        bus = EventBus()
        recorder = EventRecorder(bus)
        bus.publish(_event("a"))
        bus.publish(_event("a"))
        bus.publish(_event("b"))
        assert len(recorder.of_kind("a")) == 2
        recorder.clear()
        assert recorder.events == []

    def test_pattern_filter(self):
        bus = EventBus()
        recorder = EventRecorder(bus, pattern="instance.")
        bus.publish(_event("instance.created"))
        bus.publish(_event("action.failed"))
        assert recorder.kinds() == ["instance.created"]
