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

A waiter blocks on a C ``Lock`` that a signal releases, never in a
``threading.Condition``'s Python frames.  The state lock is a *leaf*
(the latch is taken under it only without blocking), and a component
fires its wakeup after releasing its own lock, so wiring wakeups across
components nests no two locks.
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
    ``step()`` and ``wait()`` is never lost.  A ``set_at`` that becomes
    the earliest schedule re-times a blocked wait without ending it.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock or time.monotonic  # clock-domain: monotonic
        self._lock = threading.Lock()
        self._latch = threading.Lock()
        self._latch.acquire()
        self._open = False             # guarded-by: self._lock
        self._fired = False            # guarded-by: self._lock
        self._wake_heap: list[float] = []  # guarded-by: self._lock

    def set(self) -> None:
        """Signal an immediate wakeup (item ready right now)."""
        with self._lock:
            self._fired = True
            if not self._open:
                self._open = True
                self._latch.release()

    def set_at(self, when: float) -> None:
        """Schedule a wakeup for ``when`` (a message's delivery time)."""
        with self._lock:
            if when <= self._clock():
                self._fired = True
            else:
                heapq.heappush(self._wake_heap, when)
                if self._wake_heap[0] != when:
                    return  # an earlier schedule already times the wait
            if not self._open:
                self._open = True
                self._latch.release()

    def wait(self, timeout: float) -> bool:
        """Block until a signal ripens or ``timeout`` elapses.

        Returns ``True`` when woken by a signal, ``False`` on the
        fallback timeout.  Ripened schedules are consumed; schedules
        still in the future survive for later waits.
        """
        deadline = None  # read at the first block: a latched wait reads none
        while True:
            with self._lock:
                if self._open:  # released since the last look: hold it again
                    self._open = False
                    self._latch.acquire(False)
                heap = self._wake_heap
                now = self._clock() if heap or not self._fired else 0.0
                while heap and heap[0] <= now:
                    heapq.heappop(heap)
                    self._fired = True
                if self._fired:
                    self._fired = False
                    return True
                if deadline is None:
                    deadline = now + timeout
                remaining = deadline - now
                if remaining <= 0:
                    return False
                if heap:
                    remaining = min(remaining, heap[0] - now)
            self._latch.acquire(True, remaining)


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
