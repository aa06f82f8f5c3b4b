"""Semantics of the cheap enabled telemetry path.

The event bus delivers through a per-topic route table, counters are
resolved once into bound handles, spans are slotted objects driven by a
slotted context manager, and the flight recorder keeps tuples.  Each of
those must behave exactly like the straightforward code it replaced;
these tests pin the behaviour that a cache could silently change.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro import observe
from repro.observe import EventBus, MetricsRegistry, Tracer
from repro.observe.flightrec import FlightRecorder
from repro.patterns.base import PatternStats


class TestTracerFinish:
    def test_double_finish_leaves_open_ancestors_alone(self):
        ticks = iter(range(1, 100))
        tracer = Tracer(now=lambda: float(next(ticks)))
        outer = tracer.start("outer")
        inner = tracer.start("inner")
        tracer.finish(inner)
        end = inner.end
        tracer.finish(inner)  # a second finish: not on the stack
        assert inner.end == end
        assert outer.end is None
        assert tracer._stack == [outer]
        child = tracer.start("child")
        assert child.parent_id == outer.span_id
        tracer.finish(child)
        tracer.finish(outer)
        assert tracer._stack == []
        assert outer.end is not None

    def test_finishing_a_foreign_span_sets_only_a_missing_end(self):
        tracer, other = Tracer(), Tracer()
        outer = tracer.start("outer")
        stray = other.start("stray")
        tracer.finish(stray, status="error")
        assert stray.end is not None and stray.status == "error"
        assert tracer._stack == [outer] and outer.end is None

    def test_finishing_a_parent_still_closes_open_children(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        inner = tracer.start("inner")
        tracer.finish(outer)
        assert inner.end is not None and outer.end is not None
        assert tracer._stack == []

    def test_span_context_is_lazy_and_reports_errors(self):
        tracer = Tracer()
        manager = tracer.span("later", k=1)
        assert tracer.spans == []  # opened on entry, not on creation
        with pytest.raises(KeyError):
            with manager as span:
                assert span.attrs == {"k": 1}
                raise KeyError("x")
        assert span.status == "error" and span.end is not None

    def test_spans_and_events_are_slotted(self):
        tel = observe.Telemetry()
        with tel.span("s") as span:
            event = tel.bus.publish("e", x=1)
        for obj in (span, event):
            assert not hasattr(obj, "__dict__")
        assert pickle.loads(pickle.dumps(event)) == event
        assert pickle.loads(pickle.dumps(span)) == span


class _LinearBus(EventBus):
    """The reference delivery rule: scan every subscription per event,
    over a snapshot of the subscription list taken at publication."""

    def publish(self, topic, **payload):
        event = observe.Event(topic, self._now(), self._seq, payload)
        self._seq += 1
        self.history.append(event)
        self.counts[topic] = self.counts.get(topic, 0) + 1
        self._deliver(event)
        return event

    def merge(self, snapshot):
        seq_base = self._seq
        for topic, time, seq, payload in snapshot["events"]:
            event = observe.Event(topic, time, seq + seq_base,
                                  dict(payload))
            self.history.append(event)
            self._deliver(event)
        self._seq += snapshot["published"]
        for topic, count in snapshot["counts"]:
            self.counts[topic] = self.counts.get(topic, 0) + count

    def _deliver(self, event):
        for subscription in tuple(self._subscriptions):
            if subscription.matches(event.topic):
                subscription.delivered += 1
                subscription.handler(event)


TOPICS = ("a.x", "a.y", "b.x", "b", "a")
PATTERNS = ("*", "a.*", "b.*", "a.x", "b", "a")


def _script(seed):
    """A seeded run of subscriptions, publications and handlers that
    subscribe or cancel while an event is being delivered."""
    rng = random.Random(seed)
    return [(rng.choice(("sub", "sub", "pub", "pub", "pub", "cancel")),
             rng.choice(PATTERNS), rng.choice(TOPICS), rng.random())
            for _ in range(60)]


def _play(bus, script, source=None):
    """Run ``script`` on ``bus``; returns the delivery log and the
    per-subscription tallies.  With ``source``, events are published
    there and folded into ``bus`` one snapshot at a time, so delivery
    goes through :meth:`EventBus.merge`."""
    log, subscriptions = [], []

    def handler(index, action):
        def handle(event):
            log.append((index, event.topic, event.seq))
            if action < 0.15:
                subscriptions.append(bus.subscribe(
                    PATTERNS[index % len(PATTERNS)],
                    handler(len(subscriptions), 1.0)))
            elif action < 0.3 and subscriptions:
                subscriptions[index // 2].cancel()
        return handle

    for op, pattern, topic, action in script:
        if op == "sub":
            subscriptions.append(bus.subscribe(
                pattern, handler(len(subscriptions), action)))
        elif op == "cancel" and subscriptions:
            subscriptions[int(action * len(subscriptions))].cancel()
        elif op == "pub" and source is None:
            bus.publish(topic, n=len(log))
        elif op == "pub":
            source.publish(topic, n=len(log))
            bus.merge(source.snapshot())
            source.history.clear()
    return log, [s.delivered for s in subscriptions]


class TestRouteTable:
    @pytest.mark.parametrize("seed", range(12))
    def test_publish_matches_linear_delivery(self, seed):
        expected = _play(_LinearBus(), _script(seed))
        assert _play(EventBus(), _script(seed)) == expected

    @pytest.mark.parametrize("seed", range(12))
    def test_merge_redelivery_matches_linear_delivery(self, seed):
        expected = _play(_LinearBus(), _script(seed), source=EventBus())
        assert _play(EventBus(), _script(seed), source=EventBus()) \
            == expected

    def test_order_is_subscription_order_across_wildcards(self):
        bus, seen = EventBus(), []
        for pattern in ("a.x", "*", "a.*", "a.x", "*"):
            bus.subscribe(pattern, lambda e, p=pattern: seen.append(p))
        bus.publish("a.x")
        assert seen == ["a.x", "*", "a.*", "a.x", "*"]

    def test_subscribe_during_publish_waits_for_the_next_event(self):
        bus, seen = EventBus(), []

        def late(event):
            seen.append(("late", event.seq))

        def first(event):
            seen.append(("first", event.seq))
            if event.seq == 0:
                bus.subscribe("t", late)

        bus.subscribe("t", first)
        bus.publish("t")
        bus.publish("t")
        assert seen == [("first", 0), ("first", 1), ("late", 1)]

    def test_cancel_during_publish_still_delivers_the_event_in_flight(self):
        bus, seen = EventBus(), []
        victim = None

        def killer(event):
            seen.append(("killer", event.seq))
            victim.cancel()

        bus.subscribe("*", killer)
        victim = bus.subscribe("t", lambda e: seen.append(("victim",
                                                          e.seq)))
        bus.publish("t")
        bus.publish("t")
        assert seen == [("killer", 0), ("victim", 0), ("killer", 1)]
        assert victim.delivered == 1

    def test_routes_are_rebuilt_after_cancel(self):
        bus, seen = EventBus(), []
        sub = bus.subscribe("a.*", seen.append)
        bus.publish("a.b")
        sub.cancel()
        sub.cancel()  # already detached: a no-op
        bus.publish("a.b")
        assert len(seen) == 1 and sub.delivered == 1


class TestBoundHandles:
    def test_equal_but_distinct_label_values_stay_distinct_series(self):
        registry = MetricsRegistry()
        for value in (1, 1.0, True, 1, 1.0, True):
            registry.inc("x", p=value)
        assert registry.as_dict() == {'x{p="1"}': 2.0, 'x{p="1.0"}': 2.0,
                                      'x{p="True"}': 2.0}

    def test_signed_zero_labels_stay_distinct_series(self):
        registry = MetricsRegistry()
        registry.inc("x", p=0.0)
        registry.inc("x", p=-0.0)
        assert registry.as_dict() == {'x{p="-0.0"}': 1.0,
                                      'x{p="0.0"}': 1.0}

    def test_unhashable_label_values_work(self):
        registry = MetricsRegistry()
        registry.inc("x", p=[1, 2])
        registry.inc("x", 2.0, p=[1, 2])
        assert registry.value("x", p=[1, 2]) == 3.0

    def test_label_order_does_not_split_a_series(self):
        registry = MetricsRegistry()
        registry.inc("x", a="1", b="2")
        registry.inc("x", b="2", a="1")
        assert registry.as_dict() == {'x{a="1",b="2"}': 2.0}
        assert registry.counter("x", b="2", a="1").value == 2.0

    def test_kind_conflict_still_raises(self):
        registry = MetricsRegistry()
        registry.set_gauge("g", 1.0)
        with pytest.raises(ValueError):
            registry.inc("g")

    def test_repointed_stats_never_touch_the_old_registry(self):
        stats = PatternStats(owner="p")
        with observe.session() as first:
            stats.inc("executions")
        with observe.session() as second:
            stats.inc("executions", 2)
        stats.inc("executions")  # disabled: field only
        key = 'repro_pattern_executions_total{pattern="p"}'
        assert first.metrics.as_dict() == {key: 1.0}
        assert second.metrics.as_dict() == {key: 2.0}
        assert stats.executions == 4

    def test_renamed_owner_rebinds_the_label(self):
        stats = PatternStats()
        with observe.session() as tel:
            stats.inc("rollbacks")
            stats.owner = "renamed"
            stats.inc("rollbacks")
        assert tel.metrics.as_dict() == {
            'repro_pattern_rollbacks_total{pattern="pattern"}': 1.0,
            'repro_pattern_rollbacks_total{pattern="renamed"}': 1.0}

    def test_stats_pickle_without_any_registry(self):
        stats = PatternStats(owner="p")
        with observe.session():
            stats.inc("executions")
            blob = pickle.dumps(stats)
        assert b"MetricsRegistry" not in blob and b"Counter" not in blob
        clone = pickle.loads(blob)
        assert clone == stats and clone.executions == 1
        with observe.session() as tel:
            clone.inc("executions")
        assert tel.metrics.value("repro_pattern_executions_total",
                                 pattern="p") == 1.0


class TestFlightRecorderCopies:
    def test_records_are_copied_at_record_time(self):
        recorder = FlightRecorder(capacity=8)
        tel = observe.Telemetry()
        recorder.attach(tel)
        event = tel.bus.publish("unit.outcome", ok=True)
        with tel.span("unit.run", cost=1.0) as span:
            pass
        event.payload["ok"] = False
        span.status = "error"
        window = recorder.window()
        assert window[0]["payload"] == {"ok": True}
        assert window[1]["payload"]["status"] == "ok"
        assert window[1]["payload"] == {**span.to_dict(), "status": "ok"}
        window[0]["payload"]["ok"] = "edited"
        assert recorder.window()[0]["payload"] == {"ok": True}
