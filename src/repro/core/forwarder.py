"""Per-endpoint forwarders (paper section 4.1, figure 3).

"When an endpoint registers with the funcX service a unique forwarder
process is created for each endpoint.  Endpoints establish ZeroMQ
connections with their forwarder to receive tasks, return results, and
perform heartbeats. ... The forwarder dispatches tasks to the agent only
when an agent is connected.  The forwarder uses heartbeats to detect if
an agent is disconnected and then returns outstanding tasks back into the
task queue."

The forwarder here is a state machine advanced by :meth:`step`, runnable
either on its own thread (:meth:`start`/:meth:`stop`, the live fabric) or
stepped manually under test control.
"""

from __future__ import annotations

import logging
import threading
from typing import Callable

from repro.core.service import FuncXService
from repro.core.shard import ServiceShard
from repro.core.tasks import Task, hop_stamps
from repro.metrics.registry import COUNT_BUCKETS
from repro.serialize import FuncXSerializer, RemoteExceptionWrapper
from repro.store.queues import Lease, ReliableQueue
from repro.transport.channel import ChannelEnd
from repro.transport.heartbeat import HeartbeatTracker
from repro.transport.messages import (
    Heartbeat,
    Registration,
    ResultBatchMessage,
    ResultMessage,
    TaskBatchMessage,
    TaskMessage,
)
from repro.transport.wakeup import Wakeup, join_thread, run_loop

_logger = logging.getLogger(__name__)


class Forwarder:
    """Routes tasks service→agent and results agent→service for one endpoint.

    Parameters
    ----------
    service:
        The funcX web service (owns the queues and task records).
    endpoint_id:
        The endpoint this forwarder serves.
    channel_end:
        The service side of the ZeroMQ-substitute channel to the agent.
    heartbeat_period / heartbeat_grace:
        Agent-liveness parameters; an agent silent for
        ``period × grace`` seconds is declared disconnected and its
        outstanding tasks are requeued (at-least-once semantics).
    max_dispatch_per_step:
        Dispatch batch bound per step (keeps step latency bounded).
    lease_timeout:
        Optional visibility timeout (seconds) on dispatched tasks.  On a
        *lossy but live* channel (messages dropped without a disconnect),
        heartbeats alone never trigger redelivery; with a lease timeout
        the forwarder re-dispatches any task whose result hasn't arrived
        in time.  Duplicated execution is safe: the service keeps the
        first completion (at-least-once semantics).  ``None`` disables.

    A wave leaves as soon as the link toward the agent is free (Nagle's
    rule): on an idle link at once, on a busy one at the instant its
    last transfer ends (:attr:`ChannelEnd.link_free_at`, woken through
    the :class:`Wakeup`, no polling), carrying whatever gathered
    meanwhile.  Every wave ships as one :class:`TaskBatchMessage`
    carrying, once, the body of each function its tasks name, capped by
    the endpoint's credit window from the agent's heartbeats: overload
    sheds into the service-side queue — bounded and observable — instead
    of ballooning agent/manager in-flight tables.  A window of ``-1``
    (not reported by this peer) is unlimited.
    """

    def __init__(
        self,
        service: FuncXService,
        endpoint_id: str,
        channel_end: ChannelEnd,
        heartbeat_period: float = 1.0,
        heartbeat_grace: int = 3,
        max_dispatch_per_step: int = 1024,
        lease_timeout: float | None = None,
        clock: Callable[[], float] | None = None,
    ):
        self.service = service
        self.endpoint_id = endpoint_id
        # The service shard this endpoint's queues live on (consistent-hash
        # placement, fixed for the endpoint's lifetime).  One forwarder loop
        # drains one shard's queue, so dispatch parallelism scales with the
        # shard count.
        self._shard: ServiceShard = service.shard_for_endpoint(endpoint_id)
        self._queue: ReliableQueue = service.task_queue(endpoint_id)
        self._sender = f"forwarder:{endpoint_id}"
        self._events = service.events
        self._serializer = FuncXSerializer()   # failure path only
        self.channel = channel_end
        self._clock = clock or service.now  # clock-domain: monotonic
        self.heartbeats = HeartbeatTracker(
            period=heartbeat_period, grace_periods=heartbeat_grace, clock=self._clock
        )
        self._heartbeat_period = heartbeat_period
        self.max_dispatch_per_step = max_dispatch_per_step
        self.lease_timeout = lease_timeout
        # When the wave now gathering first found the link busy (None:
        # it has not waited).
        self._held_since: float | None = None  # thread-confined: forwarder-loop
        self._wakeup = Wakeup(clock=self._clock)
        self._agent_connected = False     # guarded-by: self._lock
        self._agent_name: str | None = None  # guarded-by: self._lock
        # The endpoint's advertised credit window (from the latest agent
        # heartbeat); -1 = not yet reported = unlimited.  Enforced locally
        # against the queue's lease table, so dispatch never overshoots
        # even when heartbeats are dropped or reordered.
        self._credit_window = -1          # guarded-by: self._lock
        self._lock = threading.RLock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        # counters live in the deployment-wide registry, labelled by endpoint
        metrics = service.metrics
        self._c_forwarded = metrics.counter(
            "forwarder.tasks_forwarded", endpoint=endpoint_id)
        self._c_results = metrics.counter(
            "forwarder.results_returned", endpoint=endpoint_id)
        self._c_requeues = metrics.counter(
            "forwarder.requeue_events", endpoint=endpoint_id)
        self._c_duplicates = metrics.counter(
            "forwarder.duplicate_results", endpoint=endpoint_id)
        self._c_orphans = metrics.counter(
            "forwarder.orphan_leases", endpoint=endpoint_id)
        self._c_stale_beats = metrics.counter(
            "forwarder.stale_beats", endpoint=endpoint_id)
        self._c_coalesced = metrics.counter(
            "channel.coalesced_messages", component="forwarder",
            endpoint=endpoint_id)
        self._c_credit_stalls = metrics.counter(
            "forwarder.credit_stalls", endpoint=endpoint_id)
        self._h_batch_size = metrics.histogram(
            "dispatch.batch_size", buckets=COUNT_BUCKETS,
            component="forwarder", endpoint=endpoint_id)
        self._h_wave_hold = metrics.histogram(
            "dispatch.wave_hold_seconds",
            component="forwarder", endpoint=endpoint_id)
        metrics.gauge("forwarder.outstanding_leases",
                      endpoint=endpoint_id).set_function(lambda: self.outstanding)
        metrics.gauge("forwarder.credit_window",
                      endpoint=endpoint_id).set_function(
            lambda: self.credit_window)
        task_queue = self._queue
        metrics.gauge("queue.depth", queue=task_queue.name).set_function(
            lambda: task_queue.depth)
        metrics.gauge("queue.high_watermark",
                      queue=task_queue.name).set_function(
            lambda: task_queue.high_watermark)
        # Agent-liveness incarnation: bumped on every (re-)registration so
        # liveness transitions can be attributed to one agent lifetime.
        # Registration handling runs on the forwarder loop once start()
        # is called; direct register calls only happen before that.
        self.incarnation = 0  # thread-confined: forwarder-loop
        # The agent-supplied incarnation from the latest accepted
        # registration; heartbeats tagged with an older one are from a
        # prior agent lifetime and must not revive the connection.
        self._registered_incarnation = 0  # thread-confined: forwarder-loop
        # The agent's last accepted beat or registration: the liveness
        # check is due a deadline past it.
        self._agent_beat = -float("inf")  # thread-confined: forwarder-loop

    # -- registry-backed counters (compat with the former int attributes) ----
    @property
    def tasks_forwarded(self) -> int:
        return int(self._c_forwarded.value)

    @property
    def results_returned(self) -> int:
        return int(self._c_results.value)

    @property
    def requeue_events(self) -> int:
        return int(self._c_requeues.value)

    @property
    def duplicate_results(self) -> int:
        return int(self._c_duplicates.value)

    @property
    def orphan_leases(self) -> int:
        return int(self._c_orphans.value)

    @property
    def stale_beats(self) -> int:
        return int(self._c_stale_beats.value)

    @property
    def credit_stalls(self) -> int:
        return int(self._c_credit_stalls.value)

    @property
    def credit_window(self) -> int:
        """The endpoint's advertised credit window (-1 = unlimited)."""
        with self._lock:
            return self._credit_window

    # ------------------------------------------------------------------
    @property
    def agent_connected(self) -> bool:
        with self._lock:
            return self._agent_connected

    @property
    def outstanding(self) -> int:
        """Tasks under a lease of this endpoint's queue: in flight."""
        return self._queue.in_flight

    # ------------------------------------------------------------------
    def step(self) -> int:
        """One forwarder iteration: drain agent messages, check liveness
        once the agent's deadline has passed, dispatch queued tasks.
        Returns the number of events processed."""
        events = self._drain_agent_messages()
        if self._clock() - self._agent_beat > self.heartbeats.deadline:
            self._check_agent_liveness()
        if self.lease_timeout is not None:
            # Lossy links: roll back tasks whose dispatch lease timed out.
            expired = self._queue.leased(due=self._clock())
            if expired:
                self._requeue(expired, "lease timeout")
            events += len(expired)
        if self.agent_connected:
            events += self._dispatch_tasks()
        return events

    def _requeue(self, task_ids: list[str], reason: str,
                 wake: bool = True) -> None:
        """Hand leased tasks back through the service's one requeue call."""
        self._c_requeues.inc(len(self.service.requeue_tasks(
            self.endpoint_id, task_ids, reason, wake)))

    # -- inbound ------------------------------------------------------------
    def _drain_agent_messages(self) -> int:
        count = 0
        for message in self.channel.recv_all_ready():
            count += 1
            if isinstance(message, Registration):
                self._on_agent_registered(message)
            elif isinstance(message, Heartbeat):
                self._on_heartbeat(message)
            elif isinstance(message, ResultBatchMessage):
                self._on_results(message.results)
        return count

    def _on_agent_registered(self, message: Registration) -> None:
        if (message.incarnation
                and message.incarnation < self._registered_incarnation):
            # A delayed registration from an agent lifetime we have
            # already superseded — accepting it would roll liveness back.
            self._c_stale_beats.inc()
            if self._events:
                self._events.emit("forwarder", "liveness.stale_registration", {
                    "endpoint_id": self.endpoint_id, "component": message.sender,
                    "incarnation": message.incarnation,
                    "registered": self._registered_incarnation})
            return
        with self._lock:
            was_connected = self._agent_connected
            self._agent_name = message.sender
            self._agent_connected = True
        self.incarnation += 1
        self._registered_incarnation = message.incarnation
        self.heartbeats.beat(message.sender)
        self._agent_beat = self.heartbeats.last_seen(message.sender)
        self.service.endpoints.set_connected(self.endpoint_id, True, self._clock())
        if self._events:
            self._events.emit("forwarder", "liveness.registered", {
                "endpoint_id": self.endpoint_id, "component": message.sender,
                "incarnation": self.incarnation})
        if not was_connected and self._events:
            self._events.emit("forwarder", "liveness.transition", {
                "endpoint_id": self.endpoint_id, "component": message.sender,
                "alive": True, "incarnation": self.incarnation, "via": "registration"})

    def _on_heartbeat(self, message: Heartbeat) -> None:
        with self._lock:
            agent_name = self._agent_name
        if (message.sender == agent_name
                and message.incarnation
                and message.incarnation < self._registered_incarnation):
            # A late beat from a dead incarnation must not feed the
            # liveness tracker: it would revive a connection whose tasks
            # were already requeued, double-executing them against a
            # departed agent.
            self._c_stale_beats.inc()
            if self._events:
                self._events.emit("forwarder", "liveness.stale_beat", {
                    "endpoint_id": self.endpoint_id, "component": message.sender,
                    "incarnation": message.incarnation,
                    "registered": self._registered_incarnation})
            return
        self.heartbeats.beat(message.sender)
        if message.sender == agent_name:
            self._agent_beat = self.heartbeats.last_seen(message.sender)
            with self._lock:
                was_connected = self._agent_connected
                self._agent_connected = True
                if message.credit != self._credit_window:
                    self._credit_window = message.credit
                    window_changed = True
                else:
                    window_changed = False
            if window_changed and self._events:
                self._events.emit("forwarder", "flow.window", {
                    "endpoint_id": self.endpoint_id, "window": message.credit})
            self.service.endpoint_heartbeat(self.endpoint_id)
            self.service.endpoints.set_connected(self.endpoint_id, True, self._clock())
            if self._events:
                self._events.emit("forwarder", "liveness.beat", {
                    "endpoint_id": self.endpoint_id, "component": message.sender,
                    "timestamp": message.timestamp, "incarnation": self.incarnation})
            if not was_connected and self._events:
                self._events.emit("forwarder", "liveness.transition", {
                    "endpoint_id": self.endpoint_id, "component": message.sender,
                    "alive": True, "incarnation": self.incarnation, "via": "heartbeat"})

    def _on_results(self, results: tuple[ResultMessage, ...]) -> None:
        """Retire one result envelope: its leases in one ``ack_many``,
        its outcomes in one ``complete_tasks`` on this endpoint's shard."""
        self._queue.ack_many(message.task_id for message in results)
        outcomes = [(
            message.task_id, message.success, message.result_buffer,
            None if message.success else self._failure_text(message),
            message.execution_time, hop_stamps(message))
            for message in results]
        verdicts = self.service.complete_tasks(self._shard, outcomes)
        self._c_results.inc(verdicts.count(True))
        for message, applied in zip(results, verdicts):
            if applied:
                continue
            if applied is None:
                # The task record was administratively purged while the
                # result was in flight; its lease (if any) is acked above.
                self._c_orphans.inc()
                if self._events:
                    self._events.emit("forwarder", "forwarder.orphan_result", {
                        "endpoint_id": self.endpoint_id, "task_id": message.task_id})
            else:
                self._c_duplicates.inc()
                if self._events:
                    self._events.emit("forwarder", "forwarder.duplicate_result", {
                        "endpoint_id": self.endpoint_id, "task_id": message.task_id,
                        "success": message.success})

    def _failure_text(self, message: ResultMessage) -> str:
        try:
            obj = self._serializer.deserialize(message.result_buffer)
        except Exception as exc:
            # Keep the fallback text: raising here would strand the rest
            # of the wave's acks.  But say which task lost its traceback.
            _logger.warning(
                "forwarder %s: failure buffer of task %s is undecodable (%s)",
                self.endpoint_id, message.task_id, type(exc).__name__)
            return "remote execution failed"
        if isinstance(obj, RemoteExceptionWrapper):
            return obj.format()
        return "remote execution failed"

    # -- liveness ---------------------------------------------------------------
    def _check_agent_liveness(self) -> None:
        with self._lock:
            connected = self._agent_connected
            agent_name = self._agent_name
        if not connected or agent_name is None:
            return
        if self.heartbeats.is_alive(agent_name):
            return
        # Agent lost: return outstanding tasks to the task queue ("the
        # forwarder ... returns outstanding tasks back into the task
        # queue", §4.1) and mark the endpoint disconnected.
        with self._lock:
            self._agent_connected = False
        self.service.endpoints.set_connected(self.endpoint_id, False)
        if self._events:
            self._events.emit("forwarder", "liveness.transition", {
                "endpoint_id": self.endpoint_id, "component": agent_name,
                "alive": False, "incarnation": self.incarnation,
                "via": "heartbeat-timeout"})
        self._requeue(self._queue.leased(), "agent heartbeat lost")

    # -- outbound -------------------------------------------------------------------
    def _wave_budget(self, depth: int) -> tuple[int, int, int]:
        """``(budget, window, in_flight)`` for the next dispatch wave
        over a ready backlog of ``depth``.

        The budget is the per-step bound capped by the remaining credit
        (``window - in_flight``); a zero-credit truncation with backlog
        waiting is counted, logged, and emitted so backlog growth under
        a stalled endpoint is visible long before memory pressure.
        """
        budget = self.max_dispatch_per_step
        with self._lock:
            window = self._credit_window
        in_flight = self._queue.in_flight
        if window >= 0:
            budget = min(budget, max(0, window - in_flight))
            if budget == 0:
                self._c_credit_stalls.inc()
                _logger.debug(
                    "forwarder %s: wave truncated by zero credit "
                    "(window=%d in_flight=%d backlog=%d)",
                    self.endpoint_id, window, in_flight, depth)
                if self._events:
                    self._events.emit("forwarder", "flow.credit_exhausted", {
                        "endpoint_id": self.endpoint_id, "window": window,
                        "in_flight": in_flight, "depth": depth})
        return budget, window, in_flight

    def _dispatch_tasks(self) -> int:
        """Dispatch leased tasks to the agent; every lease is disposed.

        Each lease obtained from the queue ends this method either acked
        (orphaned/terminal task), requeued (send failure, or a wave that
        blows up), or open in the queue awaiting its result.  Without
        that discipline a single bad queue entry — e.g. a task id whose
        record was purged — would strand every lease behind it until the
        visibility timeout, or forever when leases don't expire.

        The wave is capped by the endpoint's remaining credit.  While the
        link toward the agent is still carrying the last transfer, the
        wave gathers: the step returns and the ``Wakeup`` is set for the
        instant the link frees.  ``dispatch.wave_hold_seconds`` records
        that wait per wave (0 on an idle link).
        """
        queue = self._queue
        depth = queue.depth
        if not depth:
            return 0  # no ready backlog: no wave to size
        budget, window, in_flight = self._wave_budget(depth)
        if budget <= 0:
            return 0
        free_at = self.channel.link_free_at
        if free_at:
            now = self._clock()
            if free_at > now:
                if self._held_since is None:
                    self._held_since = now
                self._wakeup.set_at(free_at)
                return 0
        held_since = self._held_since
        self._held_since = None
        self._h_wave_hold.observe(
            0.0 if held_since is None else self._clock() - held_since)
        pending = queue.lease_many(budget, lease_timeout=self.lease_timeout)
        if not pending:
            return 0
        dispatched = self._dispatch_batch(queue, pending)
        if dispatched and queue.depth and (
                window < 0 or in_flight + dispatched < window):
            # Stopped at the per-step bound with backlog and credit left.
            self._wakeup.set()
        if dispatched > 0 and self._events:
            # The count actually sent (orphans acked in passing are not
            # in flight) beside the values the budget was computed from,
            # so the bounded-in-flight invariant can re-check
            # ``size <= window - in_flight`` exactly as the forwarder saw it.
            self._events.emit("forwarder", "flow.wave", {
                "endpoint_id": self.endpoint_id, "size": dispatched,
                "in_flight": in_flight, "window": window})
        return dispatched

    def _dispatch_batch(self, queue: ReliableQueue,
                        leases: list[Lease]) -> int:
        """Coalesce one ``lease_many`` batch into a single envelope.

        Every lease is disposed on every path: acked by ``_prepare_task``
        (orphan/terminal), requeued in one call on send failure or a
        mid-batch exception, or left open in the queue by
        ``_commit_batch``.
        """
        ship: dict[str, bytes] = {}
        prepared: list[tuple[TaskMessage, Task]] = []
        try:
            # One table read for the wave; each record rides along from
            # here, so no later step looks its task up again.
            tasks = self._shard.get_tasks([lease.item for lease in leases])
            for lease, task in zip(leases, tasks):
                entry = self._prepare_task(queue, lease, task, ship)
                if entry is not None:
                    prepared.append(entry)
            if not prepared:
                return 0
            batch = TaskBatchMessage(
                sender=self._sender,
                tasks=tuple(message for message, _task in prepared),
                function_buffers=ship,
            )
            if not self.channel.send(batch):
                # Transfer dropped (peer down mid-step).  Nothing was
                # marked dispatched, so the leases just go back — quietly:
                # waking this loop would lease them straight into the same
                # dead link.  The next put, delivery or fallback retries.
                self._requeue([task.task_id for _message, task in prepared],
                              "send failed", wake=False)
                return 0
            return self._commit_batch(prepared)
        except Exception:
            self._requeue([lease.item for lease in leases], "dispatch failed")
            raise

    def _prepare_task(self, queue: ReliableQueue, lease: Lease,
                      task: Task | None, ship: dict[str, bytes]):
        """Resolve one lease into a stripped task message for the batch.

        Returns ``(message, task)`` or ``None`` when the lease
        was disposed here (``task`` is ``None``: its record was purged;
        or it went terminal while queued).  The task's function body is
        added to ``ship``, the wave's envelope table, if not already there.
        """
        if task is None:
            queue.ack(lease.lease_id)
            self._c_orphans.inc()
            if self._events:
                self._events.emit("forwarder", "forwarder.orphan_lease", {
                    "endpoint_id": self.endpoint_id, "task_id": lease.item})
            return None
        if task.state.terminal:
            queue.ack(lease.lease_id)  # cancelled/failed while queued
            return None
        function_id = task.function_id
        if function_id not in ship:
            ship[function_id] = self.service.function_buffer(function_id)
        message = TaskMessage(
            sender=self._sender,
            task_id=task.task_id,
            function_id=function_id,
            function_buffer=b"",  # the body rides the envelope
            payload_buffer=task.payload_buffer,
            container_image=self._site_container(task.container_image),
            submitted_at=task.state_times.get("received", self._clock()),
        )
        return message, task

    def _commit_batch(self, prepared: list[tuple[TaskMessage, Task]]) -> int:
        """Post-send bookkeeping for a delivered batch envelope.

        Only the tasks whose id the queue still leases are marked, under
        its lock: one a shard kill requeued mid-send stays QUEUED, never
        DISPATCHED while its id is ready.
        """
        tasks = {task.task_id: task for _message, task in prepared}
        self._queue.holding(tasks, lambda held: self.service.tasks_dispatched(
            [tasks[task_id] for task_id in held]))
        self._c_forwarded.inc(len(prepared))
        self._h_batch_size.observe(float(len(prepared)))
        if len(prepared) > 1:
            self._c_coalesced.inc(len(prepared))
        return len(prepared)

    def _site_container(self, container_image: str | None) -> str | None:
        """Convert a container key to the endpoint's site technology.

        Functions are registered with a common representation (a Docker
        image key like ``docker:repo/img``); "it is easy to convert from a
        common representation ... to both formats" (§4.2).  An endpoint
        that declares ``container_technology`` in its registration
        metadata receives keys rewritten to its format; the image name is
        unchanged.
        """
        if not container_image or ":" not in container_image:
            return container_image
        record = self.service.endpoints.get(self.endpoint_id)
        site_tech = record.metadata.get("container_technology")
        if not site_tech:
            return container_image
        current_tech, _, image = container_image.partition(":")
        if current_tech == site_tech:
            return container_image
        return f"{site_tech}:{image}"

    # ------------------------------------------------------------------
    # threaded operation (live fabric)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Run the forwarder loop on a thread.

        The loop blocks on a wakeup fed by agent-channel deliveries and
        task-queue puts; half the heartbeat period is only the
        liveness/lease-reclaim fallback.
        """
        if self._thread is not None:
            raise RuntimeError("forwarder already started")
        self._stop.clear()
        self.channel.wakeup = self._wakeup.set_at
        self.service.task_queue(self.endpoint_id).wakeup = self._wakeup.set
        self._thread = threading.Thread(
            target=run_loop, name=f"forwarder-{self.endpoint_id[:8]}",
            daemon=True,
            args=(f"forwarder:{self.endpoint_id}", self.step, self._stop,
                  self._wakeup, max(0.001, 0.5 * self._heartbeat_period)),
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._wakeup.set()  # unblock an idle loop promptly
        join_thread(self._thread, timeout)
        self._thread = None
