"""Tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lte.sim import (SECOND_US, TTI_US, SimClock, milliseconds,
                           seconds, to_seconds)


class TestConversions:
    def test_seconds_round_trip(self):
        assert to_seconds(seconds(1.5)) == pytest.approx(1.5)

    def test_seconds_is_integer_microseconds(self):
        assert seconds(0.001) == 1_000
        assert seconds(1) == SECOND_US

    def test_milliseconds(self):
        assert milliseconds(1) == 1_000
        assert milliseconds(0.5) == 500

    def test_tti_is_one_millisecond(self):
        assert TTI_US == 1_000


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_us == 0

    def test_custom_start(self):
        assert SimClock(start_us=500).now_us == 500

    def test_schedule_and_step(self):
        clock = SimClock()
        fired = []
        clock.schedule(100, lambda: fired.append(clock.now_us))
        assert clock.step()
        assert fired == [100]
        assert clock.now_us == 100

    def test_step_on_empty_queue_returns_false(self):
        assert not SimClock().step()

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SimClock().schedule(-1, lambda: None)

    def test_events_fire_in_time_order(self):
        clock = SimClock()
        order = []
        clock.schedule(300, lambda: order.append(3))
        clock.schedule(100, lambda: order.append(1))
        clock.schedule(200, lambda: order.append(2))
        clock.run()
        assert order == [1, 2, 3]

    def test_same_time_events_fire_fifo(self):
        clock = SimClock()
        order = []
        for tag in range(5):
            clock.schedule(50, lambda t=tag: order.append(t))
        clock.run()
        assert order == [0, 1, 2, 3, 4]

    def test_cancelled_event_does_not_fire(self):
        clock = SimClock()
        fired = []
        handle = clock.schedule(10, lambda: fired.append(1))
        handle.cancel()
        clock.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        clock = SimClock()
        handle = clock.schedule(10, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_run_until_stops_at_boundary(self):
        clock = SimClock()
        fired = []
        clock.schedule(100, lambda: fired.append("a"))
        clock.schedule(200, lambda: fired.append("b"))
        clock.run_until(150)
        assert fired == ["a"]
        assert clock.now_us == 150

    def test_run_until_inclusive_of_boundary_event(self):
        clock = SimClock()
        fired = []
        clock.schedule(150, lambda: fired.append("x"))
        clock.run_until(150)
        assert fired == ["x"]

    def test_run_until_advances_clock_even_when_idle(self):
        clock = SimClock()
        clock.run_until(1_000)
        assert clock.now_us == 1_000

    def test_events_scheduled_during_run_fire(self):
        clock = SimClock()
        fired = []

        def chain():
            fired.append(clock.now_us)
            if len(fired) < 3:
                clock.schedule(10, chain)

        clock.schedule(10, chain)
        clock.run_until(1_000)
        assert fired == [10, 20, 30]

    def test_schedule_at_absolute_time(self):
        clock = SimClock()
        fired = []
        clock.schedule_at(500, lambda: fired.append(clock.now_us))
        clock.run()
        assert fired == [500]

    def test_pending_count_excludes_cancelled(self):
        clock = SimClock()
        clock.schedule(10, lambda: None)
        handle = clock.schedule(20, lambda: None)
        handle.cancel()
        assert clock.pending_count() == 1

    def test_peek_next_time_skips_cancelled(self):
        clock = SimClock()
        first = clock.schedule(10, lambda: None)
        clock.schedule(20, lambda: None)
        first.cancel()
        assert clock.peek_next_time() == 20

    def test_now_s_property(self):
        clock = SimClock(start_us=2_500_000)
        assert clock.now_s == pytest.approx(2.5)

    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=1, max_size=50))
    def test_property_fire_order_is_sorted(self, delays):
        clock = SimClock()
        fired = []
        for delay in delays:
            clock.schedule(delay, lambda d=delay: fired.append(d))
        clock.run()
        assert fired == sorted(delays)
        assert len(fired) == len(delays)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_property_run_until_clock_monotone(self, end):
        clock = SimClock()
        clock.run_until(end)
        assert clock.now_us == end


class _Own:
    """A callback that ``run_ahead`` is told to fire inline."""

    def __init__(self, log, tag):
        self.log, self.tag = log, tag

    def __call__(self):
        self.log.append(self.tag)


def _own(callback):
    return isinstance(callback, _Own)


class TestRunAhead:
    def test_refused_without_a_running_bound(self):
        clock = SimClock()
        results = []
        clock.schedule(10, lambda: results.append(
            clock.run_ahead(20, _own)))
        assert clock.step()
        assert results == [False]
        assert clock.now_us == 10

    def test_refused_past_the_bound(self):
        clock = SimClock()
        results = []

        def ahead():
            results.append(clock.run_ahead(30, _own))
            results.append(clock.now_us)
            results.append(clock.run_ahead(25, _own))
            results.append(clock.now_us)

        clock.schedule(10, ahead)
        clock.run_until(25)
        assert results == [False, 10, True, 25]

    def test_fires_own_events_in_heap_order_at_their_times(self):
        clock = SimClock()
        log = []
        clock.schedule(20, _Own(log, "b"))
        clock.schedule(15, _Own(log, "a"))
        clock.schedule(20, _Own(log, "c"))
        clock.schedule(21, _Own(log, "late"))
        cancelled = clock.schedule(18, _Own(log, "cancelled"))
        cancelled.cancel()
        clock.schedule(10, lambda: log.append(clock.run_ahead(20, _own)))
        clock.run()
        assert log == ["a", "b", "c", True, "late"]

    def test_stops_at_the_first_foreign_event(self):
        clock = SimClock()
        log = []
        clock.schedule(12, _Own(log, "own"))
        clock.schedule(15, lambda: log.append(("foreign", clock.now_us)))
        clock.schedule(18, _Own(log, "after"))

        def ahead():
            log.append(clock.run_ahead(20, _own))
            log.append(clock.now_us)

        clock.schedule(10, ahead)
        clock.run_until(100)
        assert log == ["own", False, 12, ("foreign", 15), "after"]

    @given(st.lists(st.integers(min_value=0, max_value=400), max_size=30),
           st.integers(min_value=0, max_value=500))
    def test_property_ticker_fires_what_per_tick_scheduling_fires(
            self, foreign, end):
        """A ticker that runs ahead logs what one scheduling each tick does."""

        def simulate(run_ahead):
            clock = SimClock()
            log = []
            for at in foreign:
                clock.schedule_at(at, lambda a=at: log.append(
                    ("foreign", a, clock.now_us)))
                if at % 3 == 0:
                    clock.schedule_at(at + 5, _Own(log, ("own", at + 5)))

            def tick():
                now = clock.now_us
                while True:
                    log.append(("tick", now))
                    if now >= 300:
                        return
                    now += 7
                    if not (run_ahead and clock.run_ahead(now, _own)):
                        clock.schedule_at(now, tick)
                        return

            clock.schedule_at(1, tick)
            clock.run_until(end)
            return log, clock.now_us

        assert simulate(True) == simulate(False)


class TestDefer:
    def test_called_at_once_without_a_running_call(self):
        clock = SimClock()
        log = []
        clock.defer(lambda: log.append("now"))
        assert log == ["now"]
        clock.schedule(10, lambda: clock.defer(
            lambda: log.append(("step", clock.now_us))))
        assert clock.step()
        assert log == ["now", ("step", 10)]

    def test_run_until_fires_once_in_order_at_its_end(self):
        clock = SimClock()
        log = []

        def at(time_us):
            log.append(("event", time_us))
            clock.defer(lambda: log.append(("deferred", time_us,
                                            clock.now_us)))

        clock.schedule(10, lambda: at(10))
        clock.schedule(20, lambda: at(20))
        clock.run_until(50)
        assert log == [("event", 10), ("event", 20),
                       ("deferred", 10, 50), ("deferred", 20, 50)]
        clock.run_until(60)
        assert len(log) == 4

    def test_run_fires_at_its_end(self):
        clock = SimClock()
        log = []
        clock.schedule(10, lambda: clock.defer(lambda: log.append("a")))
        clock.schedule(20, lambda: log.append("event"))
        clock.schedule(30, lambda: clock.defer(lambda: log.append("b")))
        clock.run()
        assert log == ["event", "a", "b"]

    def test_nested_run_until_fires_its_own_callbacks(self):
        clock = SimClock()
        log = []

        def outer():
            clock.defer(lambda: log.append("outer"))
            clock.run_until(40)
            log.append("nested returned")

        clock.schedule(10, outer)
        clock.schedule(30, lambda: clock.defer(lambda: log.append("inner")))
        clock.schedule(60, lambda: log.append("event"))
        clock.run_until(100)
        assert log == ["inner", "nested returned", "event", "outer"]

    def test_run_ahead_fires_no_deferred_callback(self):
        clock = SimClock()
        log = []
        clock.schedule(15, _Own(log, "own"))

        def ahead():
            clock.defer(lambda: log.append("deferred"))
            log.append(clock.run_ahead(20, _own))

        clock.schedule(10, ahead)
        clock.schedule(30, lambda: log.append("event"))
        clock.run_until(50)
        assert log == ["own", True, "event", "deferred"]

    def test_fires_when_the_running_call_raises(self):
        clock = SimClock()
        log = []

        def fail():
            clock.defer(lambda: log.append("deferred"))
            raise RuntimeError("boom")

        clock.schedule(10, fail)
        with pytest.raises(RuntimeError):
            clock.run_until(50)
        assert log == ["deferred"]
        clock.defer(lambda: log.append("after"))
        assert log == ["deferred", "after"]
