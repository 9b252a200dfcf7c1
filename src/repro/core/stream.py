"""Push-based result delivery: the service-side subscription channel.

The paper-era SDK retrieves results by polling ``GET /tasks/<id>`` — the
journal follow-up (funcX: Federated Function *as a Service* for Science)
replaced that with a subscription stream the ``FuncXExecutor`` resolves
futures from.  This module is the service side of that stream:

* A client opens a :class:`ResultSubscription` and *watches* task ids.
  A watch is what a client future is: a waiter on the task record
  (:meth:`~repro.core.shard.ServiceShard.watch`), plus one on the
  record's ``readers`` count.  The wave that completes the task hands
  the subscription its tasks once, so each watched result is queued
  exactly once, by construction.
* Each subscription keeps one ready deque and one map of delivered-
  unacked batches under its own lock.  The window is ``window`` minus
  what that map holds: a slow or stalled client bounds its own
  delivered-unacked population at the window while the backlog waits
  in the deque (bounded by the number of watched tasks).
* One delivery thread per service serves a *ready set*: a result, an
  attach, a recover and an ack that leaves a backlog behind mark their
  own subscription and wake the thread; a pass visits only the marked
  subscriptions and coalesces each one's ready results into one
  :class:`~repro.transport.messages.ResultBatchMessage`.  Delivery is
  at-least-once: a batch the client never acks is redelivered, in its
  original order, after :meth:`ResultSubscription.recover`.
* A result rides its batch inline, whatever its size: the message
  carries the record's own buffer, nothing is copied or staged.
* The ack is where result bytes leave the service: it takes the
  subscription off each record's ``readers``, and the ack that brings
  the count to 0 releases the buffer (a redelivery before that reads
  it again from the record).  A watched result whose bytes or record
  are gone is delivered as a ``purged`` result.

Consumers are plain callables (in-process stand-ins for a client's
WebSocket); one that raises is detached and its batch is requeued for
redelivery after a reconnect — exactly the disconnect path.
"""

from __future__ import annotations

import logging
import threading
import time
import uuid
from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable

from repro.core.tasks import TaskState, uuid4_hex
from repro.errors import TaskNotFound
from repro.metrics.registry import COUNT_BUCKETS
from repro.transport.messages import ResultBatchMessage, ResultMessage
from repro.transport.wakeup import (
    IDLE_FALLBACK,
    Wakeup,
    join_thread,
    run_loop,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.service import FuncXService
    from repro.core.shard import ServiceShard
    from repro.core.tasks import Task

logger = logging.getLogger(__name__)

#: Default per-subscriber window (delivered-unacked results).
DEFAULT_WINDOW = 64

#: Hard cap on results coalesced into one ResultBatchMessage.
MAX_BATCH = 256

Consumer = Callable[[ResultBatchMessage], None]
Router = Callable[[list[str]], "list[tuple[ServiceShard, list[str]]]"]


class ResultSubscription:
    """One client's result stream: watched tasks, ready deque, window."""

    def __init__(
        self,
        server: "ResultStreamServer",
        subscriber_id: str,
        window: int,
        route: Router,
    ):
        self.subscriber_id = subscriber_id
        self.window = window
        self._server = server
        self._route = route
        self._lock = threading.Lock()
        # task id -> the shard its watch routed to, from watch() to the
        # ack (or close); delivery and release go through that shard.
        self._watched: dict[str, "ServiceShard"] = {}  # guarded-by: self._lock
        # Finished, undelivered task ids, in completion order.
        self._ready: deque[str] = deque()             # guarded-by: self._lock
        # delivery id -> its task ids, until the client acks the batch.
        self._unacked: dict[str, list[str]] = {}      # guarded-by: self._lock
        self._consumer: Consumer | None = None       # guarded-by: self._lock
        self._closed = False                         # guarded-by: self._lock

    # -- client side ---------------------------------------------------------
    def watch(self, task_id: str) -> None:
        """Register interest in ``task_id``; delivery follows completion."""
        self.watch_many((task_id,))

    def watch_many(self, task_ids: Iterable[str]) -> None:
        """Register interest in a wave of tasks: one shard call per
        shard.  An id this subscription already holds registers nothing.

        Watching an already-terminal task (memo hits complete before the
        watch lands), or a minted id whose record has left, queues it at
        once.  An id this plane never minted raises
        :class:`~repro.errors.TaskNotFound`; ids the call routed to
        other shards before it stay watched.
        """
        routed = self._route(list(task_ids))
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    f"subscription {self.subscriber_id} is closed")
            # Held before the shard call: the completing wave may call
            # tasks_ready before the call returns.
            watched = self._watched
            fresh = []
            for shard, ids in routed:
                ids = [task_id for task_id in dict.fromkeys(ids)
                       if task_id not in watched]
                watched.update(dict.fromkeys(ids, shard))
                fresh.append((shard, ids))
        for index, (shard, ids) in enumerate(fresh):
            try:
                ready = shard.watch(ids, self.tasks_ready) if ids else []
            except TaskNotFound:
                with self._lock:  # nothing registered from here on
                    for _shard, unwatched in fresh[index:]:
                        for task_id in unwatched:
                            del watched[task_id]
                raise
            if ready:
                self._queue(ready)

    def attach(self, consumer: Consumer) -> None:
        """Connect the client's delivery callback (or reconnect it)."""
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    f"subscription {self.subscriber_id} is closed")
            self._consumer = consumer
        self._server.mark(self)

    def detach(self) -> None:
        """Disconnect the consumer; delivery pauses, backlog accumulates."""
        with self._lock:
            self._consumer = None

    @property
    def consumer(self) -> Consumer | None:
        with self._lock:
            return self._consumer

    def ack(self, delivery_id: str) -> int:
        """Acknowledge a delivered batch; returns results retired.

        Forgets the batch's task ids (a long-lived subscription does not
        grow with the tasks it has seen), opens the window for the next
        wave and takes this reader off each record, releasing the result
        bytes of those it was the last reader of.
        """
        with self._lock:
            task_ids = self._unacked.pop(delivery_id, None)
            if task_ids is None:
                return 0
            watched = self._watched
            routed = _by_shard((task_id, watched.pop(task_id))
                               for task_id in task_ids)
            backlog = bool(self._ready)
        for shard, ids in routed.items():
            shard.unwatch(ids, release=True)
        if backlog:
            # An empty backlog needs no pass: the next result marks us.
            self._server.mark(self)
        return len(task_ids)

    def recover(self) -> int:
        """Requeue every delivered-unacked batch (reconnect path).

        A client that lost batches in flight calls this after
        re-attaching; the results redeliver, in their original order,
        under fresh delivery ids.  Returns the number requeued.
        """
        count = self.requeue()
        if count:
            self._server.mark(self)
        return count

    # -- server side ---------------------------------------------------------
    def tasks_ready(self, tasks: list["Task"]) -> None:
        """The waiter the watch left on each record: the wave that
        completed these watched tasks calls it once."""
        self._queue([task.task_id for task in tasks])

    def _queue(self, task_ids: list[str]) -> None:
        with self._lock:
            if self._closed:
                return
            self._ready.extend(task_ids)
        self._server.mark(self)

    def take(self, delivery_id: str, limit: int) -> tuple[
            Consumer | None, dict["ServiceShard", list[str]], bool]:
        """Move up to ``limit`` ready results — no more than the window
        has room for — into the unacked map under ``delivery_id``.
        Returns the consumer, the results by shard, and whether a
        backlog is left behind."""
        with self._lock:
            consumer = self._consumer
            ready = self._ready
            if consumer is None or not ready:
                return None, {}, False
            room = self.window - sum(map(len, self._unacked.values()))
            task_ids = [ready.popleft()
                        for _ in range(min(room, limit, len(ready)))]
            if task_ids:
                self._unacked[delivery_id] = task_ids
            watched = self._watched
            return consumer, _by_shard((task_id, watched[task_id])
                                       for task_id in task_ids), bool(ready)

    def requeue(self, delivery_id: str | None = None) -> int:
        """Put one delivered-unacked batch (or, for ``None``, all of
        them) back at the front of the ready deque, in delivery order,
        without a wake-up."""
        with self._lock:
            if delivery_id is None:
                batches = list(self._unacked.values())
                self._unacked.clear()
            else:
                batch = self._unacked.pop(delivery_id, None)
                batches = [] if batch is None else [batch]
            task_ids = [task_id for batch in batches for task_id in batch]
            self._ready.extendleft(reversed(task_ids))
        self._server.requeued(len(task_ids))
        return len(task_ids)

    # -- introspection -------------------------------------------------------
    @property
    def unacked_results(self) -> int:
        """Delivered-unacked results (bounded by ``window``)."""
        with self._lock:
            return sum(map(len, self._unacked.values()))

    @property
    def backlog(self) -> int:
        """Ready-but-undelivered results."""
        with self._lock:
            return len(self._ready)

    @property
    def watched(self) -> int:
        with self._lock:
            return len(self._watched)

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Stop the stream: every record this subscription still holds
        loses its reader, releasing nothing — what was never acked stays
        on the record for ``get_result`` until it expires.  Waiters left
        on unfinished records find the subscription closed and do
        nothing."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._consumer = None
            self._unacked.clear()
            self._ready.clear()
            routed = _by_shard(self._watched.items())
            self._watched = {}
        for shard, ids in routed.items():
            shard.unwatch(ids, release=False)
        self._server.forget(self)


def _by_shard(
    pairs: Iterable[tuple[str, "ServiceShard"]]
) -> dict["ServiceShard", list[str]]:
    """``(task id, shard)`` pairs as task ids grouped by shard."""
    routed: dict["ServiceShard", list[str]] = {}
    for task_id, shard in pairs:
        routed.setdefault(shard, []).append(task_id)
    return routed


class ResultStreamServer:
    """Streams ResultBatchMessages to subscribed clients, window-bounded.

    One per :class:`~repro.core.service.FuncXService`, over every shard.
    It keeps only the subscriptions and the ready set of marked ones:
    what a subscription watches, and which shard each task lives on,
    its own books hold.  The delivery thread starts lazily with the
    first subscription and is shut down by :meth:`close` (wired into
    the deployment's shutdown).
    """

    def __init__(
        self,
        service: "FuncXService",
        clock: Callable[[], float] | None = None,
    ):
        self._service = service
        self._clock = clock or time.monotonic  # clock-domain: monotonic
        self._wakeup = Wakeup(clock=self._clock)
        self._lock = threading.Lock()
        self._subs: dict[str, ResultSubscription] = {}  # guarded-by: self._lock
        # Subscriptions with something to deliver, in marking order: the
        # only ones a pass visits.
        self._ready: dict[ResultSubscription, None] = {}  # guarded-by: self._lock
        # subscribe()/close() race from *multiple* client threads that
        # all classify as role "main"; the lock is load-bearing even
        # though role inference sees a single role.
        self._thread: threading.Thread | None = None    # guarded-by: self._lock  # lint: ignore[threadroles]
        self._closed = False                            # guarded-by: self._lock  # lint: ignore[threadroles]
        self._stop = threading.Event()
        # Tells this service's delivery thread apart by name from the
        # other deployments' in one process.
        self._tag = uuid.uuid4().hex[:8]
        metrics = service.metrics
        self._h_batch = metrics.histogram(
            "stream.batch_size", buckets=COUNT_BUCKETS)
        self._h_delivery = metrics.histogram("stream.delivery_seconds")
        self._c_delivered = metrics.counter("stream.results_delivered")
        self._c_batches = metrics.counter("stream.batches_delivered")
        self._c_redelivered = metrics.counter("stream.redeliveries")
        self._c_consumer_errors = metrics.counter("stream.consumer_errors")
        self._c_credit_stalls = metrics.counter("stream.credit_stalls")
        metrics.gauge("stream.subscriptions").set_function(
            self.subscription_count)

    # -- subscriptions -------------------------------------------------------
    def subscribe(
        self,
        window: int = DEFAULT_WINDOW,
        subscriber_id: str | None = None,
        auto_deliver: bool = True,
    ) -> ResultSubscription:
        """Open a subscription holding at most ``window`` delivered-
        unacked results.

        ``auto_deliver=False`` skips the delivery thread; the caller
        drives :meth:`step` explicitly (deterministic tests).
        """
        if window < 1:
            raise ValueError("window must be positive")
        sub = ResultSubscription(
            self, subscriber_id or uuid.uuid4().hex[:12], window,
            self._service.route)
        with self._lock:
            if self._closed:
                raise RuntimeError("result stream is closed")
            self._subs[sub.subscriber_id] = sub
        if auto_deliver:
            self._ensure_thread()
        return sub

    def forget(self, sub: ResultSubscription) -> None:
        """Drop a closed subscription."""
        with self._lock:
            self._subs.pop(sub.subscriber_id, None)
            self._ready.pop(sub, None)

    def subscription_count(self) -> int:
        with self._lock:
            return len(self._subs)

    def mark(self, sub: ResultSubscription) -> None:
        """``sub`` may have something to deliver (results ready, a
        consumer attached, room freed over a backlog): put it in the
        next pass and wake the delivery thread."""
        with self._lock:
            self._ready[sub] = None
        self._wakeup.set()

    # -- delivery ------------------------------------------------------------
    def step(self) -> int:
        """One delivery pass over the marked subscriptions; returns
        results sent."""
        with self._lock:
            ready, self._ready = self._ready, {}
        total = 0
        failure: Exception | None = None
        for sub in ready:
            try:
                total += self._deliver(sub)
            except Exception as exc:
                # The others still get their turn; this one keeps its mark
                # but wakes nobody, so the idle fallback paces the retry.
                with self._lock:
                    self._ready[sub] = None
                failure = failure or exc
        if failure is not None:
            raise failure
        return total

    def _deliver(self, sub: ResultSubscription) -> int:
        delivery_id = uuid4_hex()
        consumer, by_shard, backlog = sub.take(delivery_id, MAX_BATCH)
        if not by_shard:
            if backlog:
                self._c_credit_stalls.inc()
            return 0
        if backlog:
            # Stopped at MAX_BATCH or the window, not at an empty deque.
            self.mark(sub)
        now = self._clock()
        # One table read per shard, through the shard the watch resolved.
        results: list[ResultMessage] = []
        try:
            for shard, task_ids in by_shard.items():
                for task_id, task in zip(task_ids, shard.get_tasks(task_ids)):
                    results.append(
                        _purged_message(task_id, now) if task is None
                        else self._result_message(task, now))
        except Exception:
            # Hand the results back in order, unannounced (``step``
            # re-marks).
            sub.requeue(delivery_id)
            raise
        batch = ResultBatchMessage(
            sender="result-stream",
            results=tuple(results),
            delivery_id=delivery_id,
            subscriber_id=sub.subscriber_id,
        )
        self._h_batch.observe(float(len(results)))
        try:
            consumer(batch)
        except Exception:
            # Treat an erroring consumer as disconnected: detach it and
            # requeue the batch for redelivery after a reconnect.
            self._c_consumer_errors.inc()
            logger.exception(
                "result-stream consumer failed; detaching subscriber %s",
                sub.subscriber_id)
            sub.detach()
            sub.requeue(delivery_id)
            return 0
        self._c_batches.inc()
        self._c_delivered.inc(len(results))
        self._h_delivery.observe_many(
            max(0.0, now - message.completed_at) for message in results)
        return len(results)

    @staticmethod
    def _result_message(task: "Task", now: float) -> ResultMessage:
        buffer = task.result_buffer  # read once: an ack may release it
        return ResultMessage(
            sender="result-stream",
            task_id=task.task_id,
            success=task.state is TaskState.SUCCESS,
            result_buffer=buffer or b"",
            execution_time=float(task.metadata.get("execution_time", 0.0)),
            completed_at=task.state_times.get(task.state.value, now),
            cancelled=task.state is TaskState.CANCELLED,
            exception_text=task.exception_text or "",
            purged=buffer is None and task.result_size > 0,
        )

    def requeued(self, count: int) -> None:
        """A subscription put delivered results back for redelivery."""
        self._c_redelivered.inc(count)

    # -- delivery thread -----------------------------------------------------
    def _ensure_thread(self) -> None:
        with self._lock:
            if self._thread is not None or self._closed:
                return
            thread = threading.Thread(
                target=run_loop, name=f"result-stream-{self._tag}",
                daemon=True,
                args=("result-stream", self.step, self._stop,
                      self._wakeup, IDLE_FALLBACK))
            self._thread = thread
        thread.start()

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
            self._subs.clear()
            self._ready.clear()
        self._stop.set()
        self._wakeup.set()
        if thread is not None:
            join_thread(thread, 5.0)


def _purged_message(task_id: str, now: float) -> ResultMessage:
    """The result of a watched task whose record left the table."""
    return ResultMessage(sender="result-stream", task_id=task_id,
                         success=False, completed_at=now, purged=True)
