"""The ``Wakeup`` contract, on its C-lock latch.

Every check is a count or a bounded wait:

* a ``set`` before ``wait`` latches, and is consumed once;
* a ``set_at`` already past fires at once;
* three future schedules give three wakes;
* a sooner schedule re-times a blocked waiter without ending its wait;
* a timeout returns ``False``;
* racing ``set``/``wait`` rounds with the interpreter switching threads
  every microsecond lose no signal.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.transport.wakeup import Wakeup

WAIT = 30.0
ROUNDS = 10_000


class TestLatch:
    def test_a_set_before_wait_latches_once(self):
        wakeup = Wakeup()
        wakeup.set()
        wakeup.set()  # already latched: nothing more to consume
        assert wakeup.wait(WAIT) is True
        assert wakeup.wait(0.0) is False

    def test_a_past_set_at_fires_at_once(self):
        wakeup = Wakeup()
        wakeup.set_at(time.monotonic() - 1.0)
        assert wakeup.wait(0.0) is True

    def test_a_timeout_returns_false(self):
        wakeup = Wakeup()
        started = time.monotonic()
        assert wakeup.wait(0.01) is False
        assert time.monotonic() - started >= 0.01


class TestSchedules:
    def test_three_future_schedules_give_three_wakes(self, clock):
        wakeup = Wakeup(clock=clock)
        for when in (3.0, 1.0, 2.0):
            wakeup.set_at(when)
        wakes = 0
        for _ in range(5):  # to 0.5, 1.5, 2.5, 3.5 and 4.5
            clock.advance(1.0 if clock.now else 0.5)
            wakes += wakeup.wait(0.0)
        assert wakes == 3

    def test_a_sooner_schedule_retimes_the_waiter_without_waking_it(self):
        looked = threading.Event()
        reads = []

        def watched_clock():
            if threading.current_thread().name == "waiter":
                reads.append(None)
                looked.set()  # the pass that goes on to block
            return time.monotonic()

        wakeup = Wakeup(clock=watched_clock)
        wakeup.set_at(time.monotonic() + 10 * WAIT)
        outcome = {}

        def waiter():
            outcome["woke"] = wakeup.wait(WAIT)
            outcome["at"] = time.monotonic()

        thread = threading.Thread(target=waiter, name="waiter")
        thread.start()
        assert looked.wait(WAIT)
        # The waiter holds the wakeup's lock from that read until it
        # blocks: this schedule re-times a blocked wait.
        sooner = time.monotonic() + 0.05
        wakeup.set_at(sooner)
        thread.join(WAIT)
        assert not thread.is_alive()
        assert outcome["woke"] is True
        assert outcome["at"] >= sooner
        assert len(reads) >= 2  # the re-time made it look again


class TestRacing:
    def test_racing_set_and_wait_rounds_lose_no_signal(self):
        ping, pong = Wakeup(), Wakeup()
        misses = []

        def responder():
            for i in range(ROUNDS):
                if not ping.wait(WAIT):
                    misses.append(i)
                    return
                pong.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        thread = threading.Thread(target=responder, name="responder")
        try:
            thread.start()
            for i in range(ROUNDS):
                ping.set()
                if not pong.wait(WAIT):
                    misses.append(("pong", i))
                    break
        finally:
            sys.setswitchinterval(interval)
            if misses:
                ping.set()  # free a responder still waiting
            thread.join(WAIT)
        assert misses == []
        assert ping.wait(0.0) is False and pong.wait(0.0) is False
