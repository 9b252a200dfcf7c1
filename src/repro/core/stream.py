"""Push-based result delivery: the service-side subscription channel.

The paper-era SDK retrieves results by polling ``GET /tasks/<id>`` — the
journal follow-up (funcX: Federated Function *as a Service* for Science)
replaced that with a subscription stream the ``FuncXExecutor`` resolves
futures from.  This module is the service side of that stream:

* A client opens a :class:`ResultSubscription` and *watches* task ids.
  When a watched task reaches a terminal state the id is enqueued on the
  subscription's own :class:`~repro.store.queues.ReliableQueue` — the
  same lease/ack machinery the dispatch path uses, so delivery is
  at-least-once and a dropped batch is redelivered without bookkeeping
  of its own.
* One delivery thread per service serves a *ready set*: a queue put,
  an attach, a recover and an ack that leaves a backlog behind mark
  their own subscription and wake the thread; a pass visits only the
  marked subscriptions and coalesces each one's ready results into one
  :class:`~repro.transport.messages.ResultBatchMessage`.
* Each subscription carries a :class:`~repro.core.flowcontrol.
  CreditLedger` window: a credit is consumed per delivered-unacked
  result, whichever shard it came from, and released on the client's
  ack, so a slow or stalled client bounds its own delivered-unacked
  population at the window while the backlog sheds into the
  subscription queue (observable, bounded by the number of watched
  tasks) instead of ballooning delivery buffers.
* Results at or above ``spill_threshold`` bytes are spilled to a
  ``repro.staging`` store and delivered as a ``DataRef`` record, so one
  huge payload cannot head-of-line-block a batch; the spilled object is
  deleted when the batch is acked.
* The ack is where result bytes leave the service: the server keeps,
  per task, its shard and the subscriptions that still owe an ack, and
  the ack that empties the set releases the buffer on the task record
  (a redelivery before that re-spills from it).  A task watched after
  its release is delivered as a ``purged`` result.

Consumers are plain callables (in-process stand-ins for a client's
WebSocket); one that raises is detached and its batch is nacked for
redelivery after a reconnect — exactly the disconnect path.
"""

from __future__ import annotations

import logging
import threading
import time
import uuid
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.core.flowcontrol import CreditLedger
from repro.core.tasks import TaskState, uuid4_hex
from repro.metrics.registry import COUNT_BUCKETS
from repro.staging.transfer import DataStore, register_store, unregister_store
from repro.store.queues import Lease, ReliableQueue
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

#: Result payloads at or above this size (bytes) ship as staged DataRefs
#: instead of in-band buffers.
DEFAULT_SPILL_THRESHOLD = 64 * 1024

#: Default per-subscriber credit window (delivered-unacked results).
DEFAULT_WINDOW = 64

#: Hard cap on results coalesced into one ResultBatchMessage.
MAX_BATCH = 256

Consumer = Callable[[ResultBatchMessage], None]


class ResultSubscription:
    """One client's result stream: watched tasks, ready queue, credits."""

    def __init__(
        self,
        server: "ResultStreamServer",
        subscriber_id: str,
        window: int,
        clock: Callable[[], float],
    ):
        self.subscriber_id = subscriber_id
        self.window = window
        self._server = server
        #: Delivered-unacked budget; consumed per result on delivery,
        #: released on ack (or nack/recover).
        self.credits = CreditLedger(granted=window)
        #: Ready-to-deliver task ids; at-least-once via lease/ack.
        self.queue = ReliableQueue(
            name=f"stream:{subscriber_id}", clock=clock)
        self._lock = threading.Lock()
        self._watched: set[str] = set()              # guarded-by: self._lock
        # watch()/offer() race from multiple client/shard threads that
        # all classify as role "main"; the lock is load-bearing even
        # though role inference sees a single role.
        self._enqueued: set[str] = set()             # guarded-by: self._lock  # lint: ignore[threadroles]
        self._consumer: Consumer | None = None       # guarded-by: self._lock
        self._unacked: dict[str, list[Lease]] = {}   # guarded-by: self._lock
        self._closed = False                         # guarded-by: self._lock

    # -- client side ---------------------------------------------------------
    def watch(self, task_id: str) -> None:
        """Register interest in ``task_id``; delivery follows completion."""
        self.watch_many((task_id,))

    def watch_many(self, task_ids: Iterable[str]) -> None:
        """Register interest in a wave of tasks under one lock hold.

        Watching an already-terminal task (memo hits complete before the
        watch lands) enqueues it immediately.
        """
        task_ids = list(task_ids)
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    f"subscription {self.subscriber_id} is closed")
            self._watched.update(task_ids)
        self._server.register_interest(self, task_ids)

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

        Retires the queue leases, forgets the batch's task ids (a
        long-lived subscription does not grow with the tasks it has
        seen), releases the batch's credits (opening the window for the
        next wave), deletes any payloads spilled for the batch and
        releases the result bytes of tasks this was the last watcher of.
        """
        with self._lock:
            leases = self._unacked.pop(delivery_id, None)
        if leases is None:
            return 0
        self.retire(leases)
        self.credits.release(len(leases))
        if self.queue.depth:
            # An empty backlog needs no pass: the next put marks us itself.
            self._server.mark(self)
        return len(leases)

    def recover(self) -> int:
        """Requeue every delivered-unacked batch (reconnect path).

        A client that lost batches in flight calls this after
        re-attaching; the results redeliver under fresh delivery ids.
        Returns the number of results requeued.
        """
        with self._lock:
            unacked = list(self._unacked.values())
            self._unacked.clear()
        count = 0
        for leases in unacked:
            for lease in leases:
                self.queue.nack(lease.lease_id)
                # The redelivery re-spills from the task record; keeping
                # the old object would leak it if the client never asks.
                self._server.drop_spill(self.subscriber_id, lease.item)
                count += 1
            self.credits.release(len(leases))
        if count:  # the nacks' marks may be spent on a still-closed window
            self._server.mark(self)
        return count

    # -- server side ---------------------------------------------------------
    def tasks_ready(self, task_ids: Iterable[str]) -> None:
        """Watched tasks reached a terminal state; enqueue each once."""
        with self._lock:
            if self._closed:
                return
            fresh = [task_id for task_id in task_ids
                     if task_id in self._watched
                     and task_id not in self._enqueued]
            self._enqueued.update(fresh)
        self.queue.put_many(fresh)

    def retire(self, leases: list[Lease]) -> None:
        """Finish with delivered (or undeliverable) results for good:
        ack their leases, drop their spills, forget their ids and tell
        the server this reader is done with them.  Until then
        ``_enqueued`` keeps a second terminal notification from queueing
        a result twice."""
        self.queue.ack_many(lease.lease_id for lease in leases)
        with self._lock:
            for lease in leases:
                self._watched.discard(lease.item)
                self._enqueued.discard(lease.item)
        self._server.reader_done(
            self.subscriber_id, [lease.item for lease in leases])

    def note_delivered(self, delivery_id: str, leases: list[Lease]) -> None:
        """Record an in-flight batch awaiting the client's ack."""
        with self._lock:
            self._unacked[delivery_id] = leases

    def recover_delivery(self, delivery_id: str) -> int:
        """Requeue one delivered batch (consumer raised mid-delivery).

        The erroring-consumer detach path: credits come back to the
        window and any payload spilled for the batch is deleted — the
        redelivery re-spills from the task record, so an undelivered
        DataRef must not outlive its batch.
        """
        with self._lock:
            leases = self._unacked.pop(delivery_id, None)
        if leases is None:
            return 0
        for lease in leases:
            self.queue.nack(lease.lease_id)
            self._server.drop_spill(self.subscriber_id, lease.item)
        self.credits.release(len(leases))
        return len(leases)

    # -- introspection -------------------------------------------------------
    @property
    def unacked_results(self) -> int:
        """Delivered-unacked results (bounded by ``window``)."""
        with self._lock:
            return sum(len(leases) for leases in self._unacked.values())

    @property
    def backlog(self) -> int:
        """Ready-but-undelivered results shed into the queue."""
        return self.queue.depth

    @property
    def watched(self) -> int:
        with self._lock:
            return len(self._watched)

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._consumer = None
            unacked = list(self._unacked.values())
            self._unacked.clear()
        # Delivered-unacked batches die with the subscription: give their
        # credits back (balanced books for the protocol sanitizer) and
        # delete their spilled payloads — nobody can ack them now.
        for leases in unacked:
            for lease in leases:
                self._server.drop_spill(self.subscriber_id, lease.item)
            self.credits.release(len(leases))
        self.queue.close()
        self._server.forget(self)


class ResultStreamServer:
    """Streams ResultBatchMessages to subscribed clients, credit-bounded.

    One per :class:`~repro.core.service.FuncXService`, over every shard:
    a watch resolves each task id to its shard once and keeps the shard
    on the task's interest entry, which delivery reads records through
    and the last ack releases bytes through.  The service notifies
    :meth:`on_tasks_terminal` from its completion path.  The delivery
    thread starts lazily with the first subscription and is shut down by
    :meth:`close` (wired into the deployment's shutdown).
    """

    def __init__(
        self,
        service: "FuncXService",
        clock: Callable[[], float] | None = None,
        spill_threshold: int = DEFAULT_SPILL_THRESHOLD,
    ):
        self._service = service
        self._clock = clock or time.monotonic  # clock-domain: monotonic
        self.spill_threshold = spill_threshold
        self._wakeup = Wakeup(clock=self._clock)
        self._lock = threading.Lock()
        self._subs: dict[str, ResultSubscription] = {}  # guarded-by: self._lock
        # Subscriptions with something to deliver, in marking order: the
        # only ones a pass visits.
        self._ready: dict[ResultSubscription, None] = {}  # guarded-by: self._lock
        # task id -> (its shard, subscriptions that still owe an ack for
        # it), from watch() to retire(); the retire that empties the set
        # releases the task's result bytes on that shard.
        self._interest: dict[str, tuple["ServiceShard", set[str]]] = {}  # guarded-by: self._lock
        # subscribe()/close() race from *multiple* client threads that
        # all classify as role "main"; the lock is load-bearing even
        # though role inference sees a single role.
        self._thread: threading.Thread | None = None    # guarded-by: self._lock  # lint: ignore[threadroles]
        self._closed = False                            # guarded-by: self._lock  # lint: ignore[threadroles]
        self._stop = threading.Event()
        # Spill store for oversized payloads and the delivery thread's
        # name; uniquely tagged so parallel deployments in one process
        # never collide in the global registry.
        self._tag = uuid.uuid4().hex[:8]
        self.spill = DataStore(f"result-spill-{self._tag}")
        register_store(self.spill)
        metrics = service.metrics
        self._h_batch = metrics.histogram(
            "stream.batch_size", buckets=COUNT_BUCKETS)
        self._h_delivery = metrics.histogram("stream.delivery_seconds")
        self._c_delivered = metrics.counter("stream.results_delivered")
        self._c_batches = metrics.counter("stream.batches_delivered")
        self._c_spilled = metrics.counter("stream.results_spilled")
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
        """Open a subscription with a ``window``-result credit budget.

        ``auto_deliver=False`` skips the delivery thread; the caller
        drives :meth:`step` explicitly (deterministic tests).
        """
        if window < 1:
            raise ValueError("window must be positive")
        sub = ResultSubscription(
            self, subscriber_id or uuid.uuid4().hex[:12], window, self._clock)
        sub.queue.wakeup = partial(self.mark, sub)
        with self._lock:
            if self._closed:
                raise RuntimeError("result stream is closed")
            self._subs[sub.subscriber_id] = sub
        if auto_deliver:
            self._ensure_thread()
        return sub

    def forget(self, sub: ResultSubscription) -> None:
        """Drop a closed subscription and its interest entries.  What it
        never acked stays on the record for ``get_result`` until the
        record expires."""
        with self._lock:
            self._subs.pop(sub.subscriber_id, None)
            self._ready.pop(sub, None)
            for task_id, (_shard, watchers) in list(self._interest.items()):
                watchers.discard(sub.subscriber_id)
                if not watchers:
                    del self._interest[task_id]

    def register_interest(self, sub: ResultSubscription,
                          task_ids: list[str]) -> None:
        """Bind ``task_ids`` to ``sub``, each with its shard; fast-path
        already-terminal tasks."""
        routed = self._service.route(task_ids)
        with self._lock:
            interest = self._interest
            for shard, ids in routed:
                for task_id in ids:
                    entry = interest.get(task_id)
                    if entry is None:
                        entry = interest[task_id] = (shard, set())
                    entry[1].add(sub.subscriber_id)
        ready = [task.task_id for shard, ids in routed
                 for task in shard.get_tasks(ids)
                 if task is not None and task.state.terminal]
        if ready:
            sub.tasks_ready(ready)

    def subscription_count(self) -> int:
        with self._lock:
            return len(self._subs)

    def mark(self, sub: ResultSubscription) -> None:
        """``sub`` may have something to deliver (results queued, a
        consumer attached, credits freed over a backlog): put it in the
        next pass and wake the delivery thread."""
        with self._lock:
            self._ready[sub] = None
        self._wakeup.set()

    # -- service side --------------------------------------------------------
    def on_tasks_terminal(self, tasks: list["Task"]) -> None:
        """Completion-path hook: fan a wave of terminal tasks to their
        watchers — one enqueue (and one wake-up) per subscription."""
        ready: dict[ResultSubscription, list[str]] = {}
        with self._lock:
            for task in tasks:
                entry = self._interest.get(task.task_id)
                for subscriber_id in entry[1] if entry else ():
                    sub = self._subs.get(subscriber_id)
                    if sub is not None:
                        ready.setdefault(sub, []).append(task.task_id)
        for sub, task_ids in ready.items():
            sub.tasks_ready(task_ids)

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
        consumer = sub.consumer
        if consumer is None:
            return 0
        budget = min(sub.credits.available, MAX_BATCH)
        if budget <= 0:
            if sub.backlog > 0:
                self._c_credit_stalls.inc()
            return 0
        leases = sub.queue.lease_many(budget)
        if not leases:
            return 0
        if len(leases) == budget and sub.backlog:
            # Stopped at MAX_BATCH or the window, not at an empty queue.
            self.mark(sub)
        now = self._clock()
        # One table read per shard, through the shard the watch resolved.
        by_shard: dict["ServiceShard | None", list[Lease]] = {}
        with self._lock:
            interest = self._interest
            for lease in leases:
                entry = interest.get(lease.item)
                by_shard.setdefault(entry[0] if entry else None,
                                    []).append(lease)
        results: list[ResultMessage] = []
        kept: list[Lease] = []
        vanished: list[Lease] = []
        try:
            for shard, group in by_shard.items():
                tasks = (shard.get_tasks([lease.item for lease in group])
                         if shard else [None] * len(group))
                for lease, task in zip(group, tasks):
                    if task is None or not task.state.terminal:
                        # Task record (or interest) vanished: nothing to
                        # deliver.  (Only terminal ids enqueue; the state
                        # test is defensive.)
                        vanished.append(lease)
                        continue
                    if lease.deliveries > 1:
                        self._c_redelivered.inc()
                    results.append(self._result_message(sub, task, now))
                    kept.append(lease)
        except Exception:
            # No credit consumed, nothing recorded yet: hand the leases back
            # in order, unannounced (``step`` re-marks), and drop their spills.
            for lease in reversed(leases):
                sub.queue.nack(lease.lease_id, wake=False)
                self.drop_spill(sub.subscriber_id, lease.item)
            raise
        if vanished:
            sub.retire(vanished)
        if not results:
            return 0
        sub.credits.consume(len(kept))
        delivery_id = uuid4_hex()
        batch = ResultBatchMessage(
            sender="result-stream",
            results=tuple(results),
            delivery_id=delivery_id,
            subscriber_id=sub.subscriber_id,
        )
        sub.note_delivered(delivery_id, kept)
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
            sub.recover_delivery(delivery_id)
            return 0
        self._c_batches.inc()
        self._c_delivered.inc(len(results))
        self._h_delivery.observe_many(
            max(0.0, now - message.completed_at) for message in results)
        return len(results)

    def _result_message(
        self, sub: ResultSubscription, task: "Task", now: float
    ) -> ResultMessage:
        buffer = task.result_buffer  # read once: an ack may release it
        purged = buffer is None and task.result_size > 0
        buffer = buffer or b""
        ref: dict | None = None
        if len(buffer) >= self.spill_threshold:
            data_ref = self.spill.put(
                buffer, key=f"{sub.subscriber_id}:{task.task_id}")
            ref = data_ref.as_argument()
            buffer = b""
            self._c_spilled.inc()
        return ResultMessage(
            sender="result-stream",
            task_id=task.task_id,
            success=task.state is TaskState.SUCCESS,
            result_buffer=buffer,
            execution_time=float(task.metadata.get("execution_time", 0.0)),
            completed_at=task.state_times.get(task.state.value, now),
            result_ref=ref,
            cancelled=task.state is TaskState.CANCELLED,
            exception_text=task.exception_text or "",
            purged=purged,
        )

    def drop_spill(self, subscriber_id: str, task_id: str) -> None:
        """Delete a spilled payload once its batch is acked."""
        self.spill.delete(f"{subscriber_id}:{task_id}")

    def reader_done(self, subscriber_id: str, task_ids: list[str]) -> None:
        """A subscription retired these results: drop what was spilled
        for it and release the bytes of tasks it was the last watcher of."""
        last: dict["ServiceShard", list[str]] = {}
        with self._lock:
            for task_id in task_ids:
                entry = self._interest.get(task_id)
                if entry is not None:
                    shard, watchers = entry
                    watchers.discard(subscriber_id)
                    if not watchers:
                        del self._interest[task_id]
                        last.setdefault(shard, []).append(task_id)
        for task_id in task_ids:
            self.drop_spill(subscriber_id, task_id)
        for shard, ids in last.items():
            shard.release_results(ids)

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
            subs = list(self._subs.values())
            self._subs.clear()
            self._ready.clear()
            self._interest.clear()
        self._stop.set()
        self._wakeup.set()
        if thread is not None:
            join_thread(thread, 5.0)
        for sub in subs:
            sub.queue.close()
        unregister_store(self.spill.name)

