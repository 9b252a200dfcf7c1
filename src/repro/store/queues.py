"""Reliable FIFO queues with lease/ack semantics.

The hierarchical queueing architecture (paper section 4.1, figure 3) needs
queues that "reliably store and track tasks": a forwarder pops tasks only
while its endpoint is connected, and returns outstanding tasks to the queue
when the endpoint disconnects, giving *at-least-once* delivery.

:class:`ReliableQueue` implements that contract directly:

* ``put`` enqueues an item.  An item sits in its queue at most once
  (the service's items are task ids), so a lease is named by its item.
* ``lease`` dequeues the oldest item under a revocable lease.
* ``ack`` completes the lease; the item is gone for good.
* ``requeue`` returns leased items to the *front* of the queue so
  redelivery preserves age order; ``leased(due=now)`` reads which
  leases have outlived their visibility timeout.

:class:`FairReliableQueue` keeps the same contract but partitions the
ready backlog into per-tenant *lanes* and dequeues with deficit round
robin, so one aggressive tenant cannot starve the others sharing an
endpoint queue.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.observability.events import EventSpine

# Ready-backlog entry: (item, enqueued_at, prior deliveries, lane).
_Entry = tuple[Any, float, int, str]


@dataclass
class Lease:
    """An in-flight item handed to a consumer but not yet acknowledged."""

    item: Any
    deadline: float | None
    enqueued_at: float = 0.0
    deliveries: int = 1
    lane: str = ""

    @property
    def lease_id(self) -> Any:
        """The key ``ack`` and ``requeue`` take: the item itself."""
        return self.item


class ReliableQueue:
    """FIFO queue with at-least-once delivery.

    Parameters
    ----------
    name:
        Diagnostic label (e.g. ``"tasks:<endpoint-id>"``).
    clock:
        Injectable time source; defaults to :func:`time.monotonic`.
    events:
        The deployment's event spine: every mutation emits a
        ``queue.*`` event carrying a conservation snapshot, under the
        queue lock.
    """

    # All queue state moves together under the queue's lock — the
    # conservation invariant (enqueued = acked + in_flight + ready) only
    # holds if no counter is ever torn from the containers.  Enforced by
    # `repro lint` (guarded-by).
    _GUARDED = {
        "_items": "_lock",
        "_leases": "_lock",
        "total_enqueued": "_lock",
        "total_acked": "_lock",
        "total_redelivered": "_lock",
        "_high_watermark": "_lock",
    }

    def __init__(
        self,
        name: str = "queue",
        clock: Callable[[], float] | None = None,
        events: EventSpine | None = None,
    ):
        self.name = name
        self._events = events
        self._clock = clock or time.monotonic  # clock-domain: monotonic
        self._lock = threading.Lock()
        self._items: deque[_Entry] = deque()
        self._leases: dict[Any, Lease] = {}  # item -> its open lease
        # counters for metrics
        self.total_enqueued = 0
        self.total_acked = 0
        self.total_redelivered = 0
        # Deepest the ready backlog has ever been: with credit-based
        # backpressure shedding load into this queue, the watermark is
        # the observable record of how far producers outran consumers.
        self._high_watermark = 0
        # Wakeup hook: fired (outside the queue lock) whenever items
        # become available — put or requeue.  Event-driven consumers
        # point this at Wakeup.set so they block instead of sleep-polling.
        self.wakeup: Callable[[], None] | None = None

    # -- ready-backlog storage ------------------------------------------------
    # All access to the ready backlog goes through these four hooks so a
    # subclass can change the *dequeue discipline* (e.g. DRR fairness)
    # without touching the lease/ack conservation machinery.

    def _ready_push(self, entry: _Entry, front: bool = False) -> None:  # guarded-by: self._lock
        if front:
            self._items.appendleft(entry)
        else:
            self._items.append(entry)

    def _ready_pop(self) -> _Entry:  # guarded-by: self._lock
        return self._items.popleft()

    def _ready_len(self) -> int:  # guarded-by: self._lock
        return len(self._items)

    def _ready_entries(self) -> list[_Entry]:  # guarded-by: self._lock
        return list(self._items)

    def _fire_wakeup(self) -> None:
        """Notify the event-driven consumer; never called under the lock."""
        wakeup = self.wakeup
        if wakeup is not None:
            wakeup()

    def _note_depth(self) -> None:  # guarded-by: self._lock
        """Track the ready-backlog high watermark (caller holds lock)."""
        depth = self._ready_len()
        if depth > self._high_watermark:
            self._high_watermark = depth

    # -- observation ---------------------------------------------------------
    def _snapshot(self, **fields: Any) -> dict[str, Any]:  # guarded-by: self._lock
        """A ``queue.*`` event's fields: the conservation counts."""
        return {"queue": self.name, "enqueued": self.total_enqueued,
                "acked": self.total_acked, "in_flight": len(self._leases),
                "ready": self._ready_len(), **fields}

    def conservation_delta(self) -> int:
        """``total_enqueued - total_acked - in_flight - ready``.

        Every ``put`` adds one item; ``lease`` moves it to the lease table;
        ``ack`` retires it; ``requeue`` moves it back.  The delta is
        therefore zero at all times — the queue-conservation invariant.
        """
        with self._lock:
            return (
                self.total_enqueued
                - self.total_acked
                - len(self._leases)
                - self._ready_len()
            )

    def snapshot_items(self) -> tuple[list[Any], list[Any]]:
        """(waiting items, leased items) — chaos accounting introspection."""
        with self._lock:
            return (
                [item for (item, _enq, _d, _lane) in self._ready_entries()],
                [lease.item for lease in self._leases.values()],
            )

    # -- producer side -------------------------------------------------------
    def put(self, item: Any, lane: str = "") -> None:
        self.put_many((item,), lane)

    def put_many(self, items: Iterable[Any], lane: str = "") -> int:
        """Enqueue a wave under one lock hold and fire one wake-up;
        returns the number enqueued.  A subscriber still sees one
        ``queue.put`` snapshot per item."""
        count = 0
        events = self._events
        with self._lock:
            now = self._clock()
            for item in items:
                self._ready_push((item, now, 0, lane))
                self.total_enqueued += 1
                count += 1
                if events:
                    events.emit("queue", "queue.put", self._snapshot())
            if count:
                self._note_depth()
        if count:
            self._fire_wakeup()
        return count

    # -- consumer side ---------------------------------------------------------
    def lease_many(self, max_items: int, lease_timeout: float | None = None) -> list[Lease]:
        """Dequeue up to ``max_items`` of the oldest items, each under a
        lease; an empty list when the ready backlog is empty.  It never
        blocks: a consumer that wants to sleep until there is work points
        :attr:`wakeup` at its own event.  With ``lease_timeout`` a lease
        falls due that many seconds on (see :meth:`leased`); without, it
        never does."""
        leases: list[Lease] = []
        with self._lock:
            now = self._clock()
            deadline = None if lease_timeout is None else now + lease_timeout
            for _ in range(max_items):
                if not self._ready_len():
                    break
                item, enqueued_at, deliveries, lane = self._ready_pop()
                lease = self._leases[item] = Lease(
                    item, deadline, enqueued_at, deliveries + 1, lane)
                leases.append(lease)
                if deliveries:
                    self.total_redelivered += 1
            if leases and self._events:
                self._events.emit("queue", "queue.lease_many",
                                  self._snapshot(count=len(leases)))
        return leases

    def ack(self, lease_id: Any) -> bool:
        """Complete a lease; the item will never be redelivered."""
        return self.ack_many((lease_id,)) == 1

    def ack_many(self, lease_ids: Iterable[Any]) -> int:
        """Complete a wave of leases under one lock hold; returns how
        many were still open.  A subscriber still sees one ``queue.ack``
        (or ``queue.ack_rejected``) snapshot per lease."""
        acked = 0
        events = self._events
        with self._lock:
            for lease_id in lease_ids:
                if self._leases.pop(lease_id, None) is None:
                    if events:
                        events.emit("queue", "queue.ack_rejected",
                                    self._snapshot(lease_id=lease_id))
                    continue
                self.total_acked += 1
                acked += 1
                if events:
                    events.emit("queue", "queue.ack", self._snapshot())
        return acked

    def requeue(
        self,
        items: Iterable[Any],
        keep: Callable[[Any], bool] | None = None,
        wake: bool = True,
    ) -> tuple[list[Any], list[Any]]:
        """Return the leases of ``items`` to the front of their lanes under
        one lock hold, oldest in front, so redelivery keeps age order; an
        item not under lease is skipped.  ``keep(item)``, called under the
        same hold, may refuse an item: its lease stays open for the caller
        to ack.  Returns ``(requeued, refused)``; ``wake=False`` for a
        consumer handing back its own failed pass."""
        events = self._events
        with self._lock:
            leased = [lease for lease in map(self._leases.get, dict.fromkeys(items))
                      if lease is not None]
            back = sorted((lease for lease in leased
                           if keep is None or keep(lease.item)),
                          key=lambda lease: lease.enqueued_at, reverse=True)
            for lease in back:
                del self._leases[lease.item]
                self._ready_push(
                    (lease.item, lease.enqueued_at, lease.deliveries, lease.lane),
                    front=True)
                if events:
                    events.emit("queue", "queue.nack", self._snapshot())
            if back:
                self._note_depth()
            refused = [lease.item for lease in leased if lease.item in self._leases]
        if back and wake:
            self._fire_wakeup()
        return [lease.item for lease in back], refused

    def holding(self, items: Iterable[Any],
                fn: Callable[[list[Any]], None]) -> None:
        """Call ``fn`` with those of ``items`` still under lease, under
        the queue lock: no requeue interleaves, so nothing ``fn`` marks
        in flight is ready again."""
        with self._lock:
            fn([item for item in items if item in self._leases])

    # -- introspection -------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return self._ready_len()

    @property
    def depth(self) -> int:
        """Ready (not-yet-leased) backlog depth."""
        with self._lock:
            return self._ready_len()

    @property
    def high_watermark(self) -> int:
        """Deepest the ready backlog has ever been."""
        with self._lock:
            return self._high_watermark

    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._leases)

    def leased(self, due: float | None = None) -> list[Any]:
        """The items under lease; with ``due``, only those whose
        visibility deadline is at or before it."""
        with self._lock:
            if due is None:
                return list(self._leases)
            return [item for item, lease in self._leases.items()
                    if lease.deadline is not None and lease.deadline <= due]


class FairReliableQueue(ReliableQueue):
    """Reliable queue with deficit-round-robin fair dequeue across lanes.

    Producers tag each item with a *lane* (the tenant id); the consumer
    side is unchanged — ``lease``/``lease_many`` transparently pick the
    next item under DRR, so a tenant pushing 10× the traffic still only
    gets its weighted share of dispatch slots while other lanes are
    backlogged.  Within a lane, FIFO age order (and front-of-lane
    redelivery on requeue) is preserved, so the at-least-once conservation
    machinery of the base class applies untouched.

    Weights come from ``weight_for(lane)``; each round a backlogged lane
    earns ``quantum * weight`` deficit and spends 1 per item served.
    Empty lanes are retired immediately so idle tenants accumulate no
    credit (standard DRR, Shreedhar & Varghese).
    """

    # The DRR lane state is only touched from the base class's locked
    # push/lease/ack hooks, whose callers (producer and consumer
    # threads) the role graph attributes to the base class — it sees no
    # role here, but the inherited lock is load-bearing.
    _GUARDED = {
        **ReliableQueue._GUARDED,
        "_lanes": "_lock",  # lint: ignore[threadroles]
        "_active": "_lock",  # lint: ignore[threadroles]
        "_deficit": "_lock",  # lint: ignore[threadroles]
        "_ready_count": "_lock",  # lint: ignore[threadroles]
    }

    #: Deficit cost of serving one item.
    _COST = 1.0

    def __init__(
        self,
        name: str = "queue",
        clock: Callable[[], float] | None = None,
        quantum: float = 1.0,
        weight_for: Callable[[str], float] | None = None,
        events: EventSpine | None = None,
    ):
        super().__init__(name=name, clock=clock, events=events)
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self._quantum = quantum
        self._weight_for = weight_for or (lambda lane: 1.0)
        self._lanes: dict[str, deque[_Entry]] = {}
        self._active: deque[str] = deque()  # round-robin order of backlogged lanes
        self._deficit: dict[str, float] = {}
        self._ready_count = 0

    def _ready_push(self, entry: _Entry, front: bool = False) -> None:  # guarded-by: self._lock
        lane = entry[3]
        bucket = self._lanes.get(lane)
        if bucket is None:
            bucket = self._lanes[lane] = deque()
            self._deficit[lane] = 0.0
            # A redelivered item reactivates its lane at the head of the
            # round so age order degrades as little as possible.
            if front:
                self._active.appendleft(lane)
            else:
                self._active.append(lane)
        if front:
            bucket.appendleft(entry)
        else:
            bucket.append(entry)
        self._ready_count += 1

    def _ready_pop(self) -> _Entry:  # guarded-by: self._lock
        if not self._ready_count:
            raise IndexError("pop from an empty queue")
        while True:
            lane = self._active[0]
            bucket = self._lanes[lane]
            weight = max(self._weight_for(lane), 1e-9)
            if self._deficit[lane] < self._COST:
                # Lane hasn't earned a slot yet: top up and move on.  With
                # at least one backlogged lane, every full rotation adds
                # quantum*weight to each, so the loop terminates.
                self._deficit[lane] += self._quantum * weight
                self._active.rotate(-1)
                continue
            self._deficit[lane] -= self._COST
            entry = bucket.popleft()
            self._ready_count -= 1
            if not bucket:
                # Retire the drained lane: DRR forfeits leftover deficit
                # so idle tenants cannot bank credit for a later burst.
                self._active.popleft()
                del self._lanes[lane]
                del self._deficit[lane]
            return entry

    def _ready_len(self) -> int:  # guarded-by: self._lock
        return self._ready_count

    def _ready_entries(self) -> list[_Entry]:  # guarded-by: self._lock
        entries: list[_Entry] = []
        for lane in self._active:
            entries.extend(self._lanes[lane])
        return entries
