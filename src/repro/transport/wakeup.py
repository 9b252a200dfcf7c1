"""Wakeup: the event-driven replacement for sleep-polling loops.

A :class:`Wakeup` lets the forwarder, agent, and manager loops block
until something actually happens instead of sleeping a poll interval
that would quantize every hop's latency: channels fire :meth:`set_at`
with each transfer's delivery time (messages ripen *later* than they
arrive, so the waiter must wake when the message becomes receivable,
not when it was enqueued), queues and worker pools fire :meth:`set` the
moment an item is available.  :func:`run_loop` is the one loop body all
four loop roles (forwarder, agent, manager, result stream) run on their
threads: one step per wake-up.  A step that cuts its own work short (a
drain stopped at its cap, a wave stopped at its per-step bound with
credit left) re-arms its own wakeup there; the timeout on :meth:`wait`
is only a liveness/heartbeat fallback.

The internal condition is a *leaf* lock: nothing else is ever acquired
while it is held, so wiring wakeups across components cannot create
lock-order cycles.
"""

from __future__ import annotations

import heapq
import logging
import threading
import time
from typing import Callable

_logger = logging.getLogger(__name__)

#: Liveness fallback for loops that have no heartbeat of their own to
#: keep (result stream, executor batcher): half the default heartbeat
#: period, what an idle forwarder, agent or manager wakes at.
IDLE_FALLBACK = 0.25


class Wakeup:
    """A latching alarm clock for event-driven loops.

    ``set()`` wakes the waiter immediately; ``set_at(when)`` schedules a
    wake for ``when``.  Every scheduled time is retained (a heap, not
    just the earliest): with several transfers in flight the waiter must
    wake once per ripen time, not only at the first — dropping the later
    schedules would leave ripe messages sitting until the fallback poll.
    Both latch: a signal raised while nobody is waiting is consumed by
    the next :meth:`wait`, so a delivery racing the loop between
    ``step()`` and ``wait()`` is never lost.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock or time.monotonic  # clock-domain: monotonic
        self._lock = threading.Condition()
        self._fired = False            # guarded-by: self._lock
        self._wake_heap: list[float] = []  # guarded-by: self._lock

    def set(self) -> None:
        """Signal an immediate wakeup (item ready right now)."""
        with self._lock:
            self._fired = True
            self._lock.notify_all()

    def set_at(self, when: float) -> None:
        """Schedule a wakeup for ``when`` (a message's delivery time)."""
        with self._lock:
            if when <= self._clock():
                self._fired = True
            else:
                heapq.heappush(self._wake_heap, when)
            self._lock.notify_all()

    def wait(self, timeout: float) -> bool:
        """Block until a signal ripens or ``timeout`` elapses.

        Returns ``True`` when woken by a signal, ``False`` on the
        fallback timeout.  Ripened schedules are consumed; schedules
        still in the future survive for later waits.
        """
        deadline = self._clock() + timeout
        with self._lock:
            while True:
                now = self._clock()
                while self._wake_heap and self._wake_heap[0] <= now:
                    heapq.heappop(self._wake_heap)
                    self._fired = True
                if self._fired:
                    self._fired = False
                    return True
                remaining = deadline - now
                if remaining <= 0:
                    return False
                if self._wake_heap:
                    remaining = min(remaining, self._wake_heap[0] - now)
                self._lock.wait(remaining)


def run_loop(
    name: str,
    step: Callable[[], object],
    stop: threading.Event,
    wakeup: Wakeup,
    fallback: float,
) -> None:
    """Step a component until ``stop`` is set: one step per wake-up.

    After each step the loop waits on ``wakeup`` for at most
    ``fallback`` seconds; whatever arrived meanwhile has latched it.
    What ``step`` returns is ignored: a step that deliberately leaves
    work behind re-arms ``wakeup`` itself.  A raising step is logged
    under the component's ``name``: one bad message must not silently
    kill the thread that serves every later one.
    """
    while not stop.is_set():
        try:
            step()
        except Exception:
            _logger.exception("%s: step failed; continuing", name)
        wakeup.wait(fallback)


def join_thread(thread: threading.Thread, timeout: float) -> None:
    """Join ``thread`` for at most ``timeout`` seconds.  A thread that
    outlives the join is logged as a warning naming it, so a stop that
    timed out is never silent."""
    thread.join(timeout)
    if thread.is_alive():
        _logger.warning("%s still alive %g s after stop", thread.name,
                        timeout)
