"""Unit tests for the discrete-event kernel."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ClockMonotonicityViolation
from repro.sim.kernel import EventLoop


class TestScheduling:
    def test_events_run_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(3.0, order.append, "c")
        loop.schedule(1.0, order.append, "a")
        loop.schedule(2.0, order.append, "b")
        loop.run()
        assert order == ["a", "b", "c"]
        assert loop.now == 3.0

    def test_fifo_ties(self):
        loop = EventLoop()
        order = []
        for name in "abc":
            loop.schedule(1.0, order.append, name)
        loop.run()
        assert order == ["a", "b", "c"]

    def test_at_absolute_time(self):
        loop = EventLoop()
        seen = []
        loop.at(5.0, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [5.0]

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(ClockMonotonicityViolation):
            loop.schedule(-1.0, lambda: None)

    def test_events_scheduled_during_run(self):
        loop = EventLoop()
        seen = []

        def chain(n):
            seen.append(loop.now)
            if n > 0:
                loop.schedule(1.0, chain, n - 1)

        loop.schedule(0.0, chain, 3)
        loop.run()
        assert seen == [0.0, 1.0, 2.0, 3.0]

    def test_step(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, seen.append, 1)
        assert loop.step()
        assert not loop.step()
        assert seen == [1]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        loop = EventLoop()
        seen = []
        event = loop.schedule(1.0, seen.append, "never")
        loop.schedule(2.0, seen.append, "yes")
        event.cancel()
        loop.run()
        assert seen == ["yes"]

    def test_pending_excludes_cancelled(self):
        loop = EventLoop()
        event = loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        event.cancel()
        assert loop.pending == 1


class TestBoundedRuns:
    def test_run_until_stops_before_later_events(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, seen.append, "early")
        loop.schedule(10.0, seen.append, "late")
        loop.run(until=5.0)
        assert seen == ["early"]
        assert loop.now == 5.0  # clock advanced to the horizon
        loop.run()
        assert seen == ["early", "late"]

    def test_run_until_advances_clock_when_idle(self):
        loop = EventLoop()
        loop.run(until=42.0)
        assert loop.now == 42.0

    def test_max_events(self):
        loop = EventLoop()
        seen = []
        for i in range(10):
            loop.schedule(float(i), seen.append, i)
        assert loop.run(max_events=3) == 3
        assert seen == [0, 1, 2]

    def test_events_processed_counter(self):
        loop = EventLoop()
        for i in range(5):
            loop.schedule(float(i), lambda: None)
        loop.run()
        assert loop.events_processed == 5

    def test_next_event_time(self):
        loop = EventLoop()
        assert loop.next_event_time() is None
        loop.schedule(4.0, lambda: None)
        assert loop.next_event_time() == 4.0

    def test_clock_callable(self):
        loop = EventLoop()
        snapshot = []
        loop.schedule(2.5, lambda: snapshot.append(loop.clock()))
        loop.run()
        assert snapshot == [2.5]


class TestJoin:
    """``join`` rides only on the most recent, unfired, equal-callback,
    equal-time event; every other case opens a new one."""

    @staticmethod
    def _recorder():
        waves = []
        return waves, lambda wave: waves.append(list(wave))

    def test_back_to_back_items_ride_on_one_event(self):
        loop = EventLoop()
        waves, fn = self._recorder()
        for item in "abc":
            loop.join(1.0, fn, [item])
        assert len(loop._heap) == 1
        assert loop.pending == 3
        assert loop.run() == 3
        assert waves == [["a", "b", "c"]]
        assert loop.events_processed == 3

    def test_equal_bound_methods_ride_together(self):
        # ``obj.method is obj.method`` is False — a fresh bound method per
        # attribute access — so riding must compare callbacks with ``==``.
        class Handler:
            def __init__(self):
                self.waves = []

            def on_wave(self, wave):
                self.waves.append(list(wave))

        loop, handler = EventLoop(), Handler()
        assert handler.on_wave is not handler.on_wave
        loop.join(1.0, handler.on_wave, [1])
        loop.join(1.0, handler.on_wave, [2])
        loop.run()
        assert handler.waves == [[1, 2]]

    def test_a_schedule_in_between_closes_the_open_event(self):
        loop = EventLoop()
        waves, fn = self._recorder()
        loop.join(1.0, fn, ["a"])
        loop.schedule(5.0, lambda: None)
        loop.join(1.0, fn, ["b"])
        loop.run()
        assert waves == [["a"], ["b"]]

    def test_a_different_time_opens_a_new_event(self):
        loop = EventLoop()
        waves, fn = self._recorder()
        loop.join(1.0, fn, ["a"])
        loop.join(2.0, fn, ["b"])
        loop.join(1.0, fn, ["c"])  # the 1.0 event is no longer the most recent
        loop.run()
        assert waves == [["a"], ["c"], ["b"]]

    def test_a_different_callback_opens_a_new_event(self):
        loop = EventLoop()
        waves, fn = self._recorder()
        other_waves, other = self._recorder()
        loop.join(1.0, fn, ["a"])
        loop.join(1.0, other, ["b"])
        loop.join(1.0, fn, ["c"])
        loop.run()
        assert waves == [["a"], ["c"]]
        assert other_waves == [["b"]]

    def test_a_fired_event_takes_no_riders(self):
        loop = EventLoop()
        waves = []

        def fn(wave):
            waves.append(list(wave))
            if wave == ["a"]:
                # Same callback, same fire time (now + 0) as the event
                # that is firing right now.
                loop.join(0.0, fn, ["b"])

        loop.join(1.0, fn, ["a"])
        loop.run()
        assert waves == [["a"], ["b"]]
        assert loop.now == 1.0

    def test_a_wave_rides_as_its_items_would_and_no_items_open_nothing(self):
        loop = EventLoop()
        waves, fn = self._recorder()
        loop.join(1.0, fn, [])
        assert loop._heap == []
        loop.join(1.0, fn, ["a", "b"])
        loop.join(1.0, fn, [])           # leaves the open event open
        loop.join(1.0, fn, iter("cd"))
        assert len(loop._heap) == 1 and loop.pending == 4
        loop.run()
        assert waves == [["a", "b", "c", "d"]]

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(ClockMonotonicityViolation):
            loop.join(-1e-9, lambda wave: None, ["x"])
        assert loop.pending == 0

    def test_fifo_ties_across_schedule_and_join(self):
        loop = EventLoop()
        order = []
        extend = order.extend
        loop.schedule(1.0, order.append, "s1")
        loop.join(1.0, extend, ["j1"])
        loop.join(1.0, extend, ["j2"])
        loop.schedule(1.0, order.append, "s2")
        loop.join(1.0, extend, ["j3"])
        loop.schedule(0.5, order.append, "early")
        loop.run()
        assert order == ["early", "s1", "j1", "j2", "s2", "j3"]

    def test_counts_are_per_item(self):
        loop = EventLoop()
        waves, fn = self._recorder()
        for item in range(5):
            loop.join(1.0, fn, [item])
        loop.schedule(2.0, lambda: None)
        assert loop.pending == 6
        assert loop.run(max_events=2) == 2     # a wave splits at the budget
        assert waves == [[0, 1]]
        assert loop.pending == 4
        assert loop.step()
        assert waves == [[0, 1], [2]]
        assert loop.run() == 3
        assert waves == [[0, 1], [2], [3, 4]]
        assert loop.events_processed == 6

    def test_cancel_applies_to_schedule_handles_only(self):
        loop = EventLoop()
        waves, fn = self._recorder()
        handle = loop.schedule(1.0, fn, ["never"])
        assert loop.join(1.0, fn, ["rider"]) is None
        handle.cancel()
        assert handle.cancelled
        assert loop.next_event_time() == 1.0
        assert loop.run() == 1
        assert waves == [["rider"]]

    def test_run_until_keeps_a_later_wave_whole(self):
        loop = EventLoop()
        waves, fn = self._recorder()
        loop.join(1.0, fn, ["a"])
        loop.join(1.0, fn, ["b"])
        loop.run(until=0.5)
        assert waves == [] and loop.now == 0.5
        loop.join(0.5, fn, ["c"])  # same fire time, and the event is still open
        loop.run()
        assert waves == [["a", "b", "c"]]


# A random program is a forest: each node fires at parent's fire time plus
# its delay, through ``join`` or ``schedule``, and launches its children
# when it fires.  A node marked ``together`` joins each run of its joined
# children that share a delay and a handler in one call, as the simulator
# joins a wave; the twin schedules every item on its own.  Delays come from
# a tiny set so ties are the common case.
_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0])
_NODE = st.recursive(
    st.tuples(st.booleans(), _DELAYS, st.integers(0, 1), st.just(False), st.just(())),
    lambda children: st.tuples(st.booleans(), _DELAYS, st.integers(0, 1), st.booleans(),
                               st.lists(children, max_size=4).map(tuple)),
    max_leaves=25,
)


def _fired_order(program, together: bool, use_join: bool) -> list[tuple]:
    loop = EventLoop()
    fired = []

    def launch(nodes, path, together):
        run, key = [], None  # joined items waiting to go in one call

        def flush():
            nonlocal run
            if run:
                loop.join(key[0], handlers[key[1]], run)
                run = []

        for index, (joined, delay, which, gather, children) in enumerate(nodes):
            item = (path + (index,), gather, children)
            if not (joined and use_join):
                flush()
                loop.schedule(delay, handlers[which], [item])
                continue
            if not together or key != (delay, which):
                flush()
            run.append(item)
            key = (delay, which)
        flush()

    def make(which):
        def handler(wave):
            for path, gather, children in wave:
                fired.append((loop.now, which, path))
                launch(children, path, gather)
        return handler

    handlers = [make(0), make(1)]
    launch(program, (), together)
    loop.run()
    assert loop.events_processed == len(fired)
    return fired


_LEAF = (True, 0.5, 0, False, ())


class TestJoinIsTheSameSchedule:
    @given(program=st.lists(_NODE, min_size=1, max_size=8), together=st.booleans())
    @example(program=[_LEAF, _LEAF, (True, 0.0, 1, True, (_LEAF, _LEAF, (False, 0.5, 0, False, ()),
                                                          _LEAF)), _LEAF],
             together=True)
    @settings(max_examples=200, deadline=None)
    def test_join_fires_items_in_the_order_schedule_would(self, program, together):
        assert _fired_order(program, together, use_join=True) == \
            _fired_order(program, together, use_join=False)
