"""The discrete-event kernel: a time-ordered callback scheduler.

Design notes (guided by the profiling-first idiom of the HPC guides):
simulations here execute millions of *logical* events — a
131,072-container weak scaling run fires 5.3M — so the hot path is
deliberately small.  A heap entry is one list ``[time, seq, fn, args,
wave]`` that ``heapq`` orders in C (``seq`` is unique, so a comparison
never reaches ``fn``); it doubles as the cancellation handle, so an event
costs one allocation beyond its arguments.  Callers whose events come in
runs — the same callback at the same instant, scheduled back to back —
:meth:`EventLoop.join` them into one heap entry, handing over a whole
wave's items in one call, so the heap and the scheduling calls are both
paid per wave, not per event: the weak-scaling run above does ~100k pushes
and as many calls.
"""

from __future__ import annotations

import heapq
import itertools
from math import inf
from typing import Any, Callable, Iterable

from repro.errors import ClockMonotonicityViolation


class Event(list):
    """A scheduled callback: the heap entry ``[time, seq, fn, args, wave]``.

    ``wave`` is the item list of a :meth:`EventLoop.join` event (``args``
    is then ``(wave,)``) and ``None`` for a :meth:`EventLoop.schedule`
    one.  Cancel by calling :meth:`cancel`.
    """

    __slots__ = ()

    def cancel(self) -> None:
        self[2] = None

    @property
    def cancelled(self) -> bool:
        return self[2] is None


class EventLoop:
    """A minimal, fast discrete-event loop.

    The loop's :attr:`now` is the simulation clock; pass ``loop.clock`` to
    any time-agnostic component (queues, heartbeat trackers, warm pools)
    to run it in simulated time.
    """

    def __init__(self):
        self._heap: list[Event] = []
        self._seq = itertools.count()
        # The most recently scheduled event while it may still take riders.
        # The loop is one thread: callbacks only run inside ``run``.
        self._open: Event | None = None  # thread-confined: sim-loop
        self.now = 0.0
        self.events_processed = 0

    # ------------------------------------------------------------------
    def clock(self) -> float:
        """Injectable time source (bound method, cheap to call)."""
        return self.now

    def _in_the_past(self, delay: float) -> ClockMonotonicityViolation:
        return ClockMonotonicityViolation(
            f"cannot schedule {delay:.6f}s in the past at t={self.now:.6f}"
        )

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise self._in_the_past(delay)
        event = Event((self.now + delay, next(self._seq), fn, args, None))
        self._open = None
        heapq.heappush(self._heap, event)
        return event

    def join(self, delay: float, fn: Callable[[list], Any], items: Iterable[Any]) -> None:
        """Run ``fn([..., *items, ...])`` after ``delay`` simulated seconds.

        ``fn`` takes a list of items and must treat ``fn([a, b])`` as
        ``fn([a]); fn([b])``.  The items ride on the most recently
        scheduled event iff that event has not fired and has an equal
        callback and an equal fire time; otherwise they open one new
        event (none if there are no items).  Nothing can sort between two
        adjacent ``seq`` values at one time, so riding is the same
        schedule as one event per item — the heap just sees one entry,
        and the caller pays one call per wave.  Each item counts as one
        processed event.
        """
        if delay < 0:
            raise self._in_the_past(delay)
        time = self.now + delay
        event = self._open
        if event is not None and event[0] == time and event[2] == fn:
            event[4].extend(items)
            return
        wave = list(items)
        if wave:
            self._open = event = Event((time, next(self._seq), fn, (wave,), wave))
            heapq.heappush(self._heap, event)

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        return self.schedule(time - self.now, fn, *args)

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next event; returns False when the heap is empty."""
        return self.run(max_events=1) == 1

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Drain events (optionally bounded by time/horizon or count).

        Returns the number of events processed by this call, one per
        item for :meth:`join` events.  With ``until``, the clock is
        advanced to exactly ``until`` even if the heap empties earlier.
        """
        horizon = inf if until is None else until
        budget = inf if max_events is None else max_events
        processed = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap and processed < budget:
                event = heap[0]
                time, _, fn, args, wave = event
                if fn is None:
                    pop(heap)
                    continue
                if time > horizon:
                    break
                if wave is None:
                    count = 1
                    pop(heap)
                else:
                    if event is self._open:
                        self._open = None
                    count = len(wave)
                    if count > budget - processed:
                        # Fire only what the budget allows; the rest of
                        # the wave keeps its place at the top of the heap.
                        count = budget - processed
                        args = (wave[:count],)
                        del wave[:count]
                    else:
                        pop(heap)
                self.now = time
                fn(*args)
                processed += count
        finally:
            self.events_processed += processed
        if until is not None and self.now < until:
            self.now = until
        return processed

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Events yet to fire, one per item for :meth:`join` events."""
        return sum(1 if e[4] is None else len(e[4])
                   for e in self._heap if e[2] is not None)

    def next_event_time(self) -> float | None:
        """Time of the next live event (cancelled heads are pruned)."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
        return heap[0][0] if heap else None
