"""The funcX agent (interchange): the endpoint's persistent brain (§4.3).

"The funcX agent is a software agent that is deployed by a user on a
compute resource ... It registers with the funcX service and acts as a
conduit for routing tasks and results between the service and workers."

Responsibilities implemented here:

* register with the forwarder and heartbeat to it;
* queue tasks arriving from the forwarder;
* route tasks to managers via the pluggable scheduling policy
  (randomized greedy with container affinity by default);
* track distributed tasks and *re-execute* those lost to manager
  failures (watchdog + heartbeat detection);
* forward results back to the forwarder;
* scale managers through a provider (suspend/shutdown hooks).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

from repro.endpoint.config import EndpointConfig
from repro.endpoint.scheduling import ManagerView, SchedulingPolicy, scheduler_by_name
from repro.metrics.registry import COUNT_BUCKETS, MetricsRegistry
from repro.serialize import FuncXSerializer
from repro.serialize.traceback import RemoteExceptionWrapper
from repro.transport.channel import ChannelEnd
from repro.transport.heartbeat import HeartbeatTracker
from repro.transport.messages import (
    Advertisement,
    CommandMessage,
    Heartbeat,
    Registration,
    ResultBatchMessage,
    ResultMessage,
    TaskBatchMessage,
    TaskMessage,
)
from repro.transport.wakeup import Wakeup, join_thread, run_loop


class FuncXAgent:
    """The endpoint-side interchange.

    Parameters
    ----------
    endpoint_id:
        The registered endpoint this agent serves.
    forwarder_channel:
        Agent side of the channel to the service's forwarder.
    config:
        Endpoint configuration.
    scheduler:
        Manager-selection policy; defaults to the configured policy name.
    metrics:
        The deployment's shared metrics registry (a private one is
        created when not provided).
    """

    # Shared mutable state: touched by the agent loop, manager receive
    # paths, and chaos hooks.  Enforced by `repro lint` (guarded-by).
    _GUARDED = {
        "_manager_channels": "_lock",
        "_views": "_lock",
        "_suspended": "_lock",
        "_pending": "_lock",
        "_assigned": "_lock",
        "_buffers": "_lock",
        "_window_version": "_lock",
    }

    #: Per-step bound on messages drained from any one channel so a
    #: flooded link cannot starve heartbeats and the watchdog.
    MAX_DRAIN = 256

    def __init__(
        self,
        endpoint_id: str,
        forwarder_channel: ChannelEnd,
        config: EndpointConfig | None = None,
        scheduler: SchedulingPolicy | None = None,
        clock: Callable[[], float] | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.endpoint_id = endpoint_id
        self.forwarder = forwarder_channel
        self.config = config or EndpointConfig()
        self._clock = clock or time.monotonic  # clock-domain: monotonic
        self.scheduler = scheduler or scheduler_by_name(
            self.config.scheduler_policy, seed=self.config.seed
        )
        self.heartbeats = HeartbeatTracker(
            period=self.config.heartbeat_period,
            grace_periods=self.config.heartbeat_grace,
            clock=self._clock,
        )
        self._manager_channels: dict[str, ChannelEnd] = {}
        self._views: dict[str, ManagerView] = {}
        self._suspended: set[str] = set()
        # Each task waiting for a manager with the time it reached the agent.
        self._pending: deque[tuple[TaskMessage, float]] = deque()
        # task_id -> (manager_id, message, agent-side attempt count)
        self._assigned: dict[str, tuple[str, TaskMessage, int]] = {}
        # Function-buffer table for the tasks this agent holds: bodies
        # arrive in their tasks' envelopes and ride on in each envelope
        # sent to a manager.
        self._buffers: dict[str, bytes] = {}
        # Bumped when an input of credit_window() changes (a manager
        # registers, re-advertises, is lost, detached or suspended).
        self._window_version = 0
        self._lock = threading.RLock()
        self._wakeup = Wakeup(clock=self._clock)
        forwarder_channel.wakeup = self._wakeup.set_at
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        # register_with_forwarder() touches these before the loop thread
        # exists (publish-before-start); afterwards only the loop does.
        self._last_heartbeat = -float("inf")  # thread-confined: agent-loop
        # The _window_version the last sent beat's credit reflects.
        self._window_seen = -1  # thread-confined: agent-loop
        # No manager is lost while ``now - _oldest_beat <= deadline``.
        self._oldest_beat = -float("inf")  # thread-confined: agent-loop
        self._serializer = FuncXSerializer()
        # counters live in the shared registry, labelled by endpoint
        self.metrics = metrics or MetricsRegistry(clock=self._clock)
        self._c_received = self.metrics.counter(
            "agent.tasks_received", endpoint=endpoint_id)
        self._c_dispatched = self.metrics.counter(
            "agent.tasks_dispatched", endpoint=endpoint_id)
        self._c_results = self.metrics.counter(
            "agent.results_forwarded", endpoint=endpoint_id)
        self._c_reexecuted = self.metrics.counter(
            "agent.tasks_reexecuted", endpoint=endpoint_id)
        self._c_buffer_miss = self.metrics.counter(
            "agent.buffer_misses", endpoint=endpoint_id)
        self._c_coalesced = self.metrics.counter(
            "channel.coalesced_messages", component="agent", endpoint=endpoint_id)
        self._h_dispatch_batch = self.metrics.histogram(
            "dispatch.batch_size", buckets=COUNT_BUCKETS,
            component="agent", endpoint=endpoint_id)
        self._h_result_batch = self.metrics.histogram(
            "result.batch_size", buckets=COUNT_BUCKETS,
            component="agent", endpoint=endpoint_id)
        self.metrics.gauge("agent.pending_tasks",
                           endpoint=endpoint_id).set_function(self.pending_count)
        self.metrics.gauge("agent.credit_window",
                           endpoint=endpoint_id).set_function(self.credit_window)
        # The credit window carried by the most recent heartbeat; a
        # change (manager membership / suspension) triggers an immediate
        # beat so the forwarder's window tracks capacity without waiting
        # out a full heartbeat period.
        self._last_credit_sent: int | None = None  # thread-confined: agent-loop
        # Lifetime counter: each (re-)registration starts a new incarnation
        # whose heartbeats carry the tag, letting the forwarder discard
        # beats from lifetimes it has already superseded.
        self.incarnation = 0
        # Fault injection: extra seconds added to the effective heartbeat
        # period (clock-skewed heartbeats; a large skew silences the agent
        # until the forwarder declares it lost).
        self.heartbeat_skew = 0.0

    # -- registry-backed counters (compat with the former int attributes) ----
    @property
    def tasks_received(self) -> int:
        return int(self._c_received.value)

    @property
    def tasks_dispatched(self) -> int:
        return int(self._c_dispatched.value)

    @property
    def results_forwarded(self) -> int:
        return int(self._c_results.value)

    @property
    def tasks_reexecuted(self) -> int:
        return int(self._c_reexecuted.value)

    @property
    def name(self) -> str:
        return f"agent:{self.endpoint_id}"

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def register_with_forwarder(self) -> None:
        """(Re-)register with the forwarder — also the recovery path:
        "when the funcX agent recovers, it repeats the registration
        process ... and continue[s] receiving tasks" (§4.3)."""
        self.incarnation += 1
        self.forwarder.send(
            Registration(
                sender=self.name,
                component_type="endpoint",
                capacity=self.total_capacity(),
                container_types=(),
                metadata={"endpoint_id": self.endpoint_id},
                incarnation=self.incarnation,
            )
        )
        self._last_heartbeat = self._clock()
        # Force a fresh credit report right after (re-)registration: the
        # forwarder may hold a stale window from a previous lifetime.
        self._last_credit_sent = None
        self._window_seen = -1

    def attach_manager(self, manager_id: str, channel: ChannelEnd) -> None:
        """Attach the agent side of a manager's channel."""
        channel.wakeup = self._wakeup.set_at
        with self._lock:
            self._manager_channels[manager_id] = channel

    def detach_manager(self, manager_id: str) -> None:
        """Clean removal (scale-in): forget the manager entirely.

        Tasks still tracked against the departing manager are returned to
        the pending queue for re-execution — a graceful drain may still
        complete them first, in which case the duplicate completion is
        ignored by the service (at-least-once semantics).
        """
        with self._lock:
            self._manager_channels.pop(manager_id, None)
            self._views.pop(manager_id, None)
            self._suspended.discard(manager_id)
            self._window_version += 1
            orphaned = [
                (task_id, message)
                for task_id, (mid, message, _a) in self._assigned.items()
                if mid == manager_id
            ]
            now = self._clock()
            for task_id, message in orphaned:
                del self._assigned[task_id]
                self._pending.appendleft((message, now))
                self._c_reexecuted.inc()
        self.heartbeats.forget(manager_id)

    def suspend_manager(self, manager_id: str) -> None:
        """Stop scheduling to a manager without killing it (§4.3)."""
        with self._lock:
            channel = self._manager_channels.get(manager_id)
            self._suspended.add(manager_id)
            self._window_version += 1
        if channel is not None:
            channel.send(CommandMessage(sender=self.name, command="suspend", target=manager_id))

    def shutdown_manager(self, manager_id: str) -> None:
        """Release a manager's resources (§4.3)."""
        with self._lock:
            channel = self._manager_channels.get(manager_id)
        if channel is not None:
            channel.send(CommandMessage(sender=self.name, command="shutdown", target=manager_id))
        self.detach_manager(manager_id)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def total_capacity(self) -> int:
        with self._lock:
            return sum(v.capacity for v in self._views.values())

    def credit_window(self) -> int:
        """Aggregate credit window over live, unsuspended managers.

        This is the endpoint-wide in-flight bound the agent forwards
        upstream on its heartbeats: the forwarder keeps at most this
        many tasks leased against the endpoint.  The value is *absolute*,
        not a running remainder, so a lost or reordered heartbeat can
        never corrupt the books — the next beat re-states the truth.

        The window is the sum of the live managers' windows *plus an
        agent-side buffer* of ``pipeline_depth`` node-windows (the
        agent's own pending queue is a bounded holder too).  The buffer
        keeps the forwarder→agent pipe full across the link round trip
        — capping in-flight at exactly worker capacity would throttle
        throughput to ``capacity / RTT`` on a long link even with every
        worker idle (a bandwidth-delay allowance, the same role §4.7
        gives manager prefetch one hop down).  It also covers elastic
        scale-from-zero: with no live manager the window is the buffer
        alone rather than zero, so demand still lands agent-side where
        an elasticity controller can observe it, bounded, ready for the
        first manager that registers.
        """
        prefetch = (self.config.prefetch_capacity
                    if self.config.internal_batching else 1)
        node_window = self.config.workers_per_node + prefetch
        agent_buffer = self.config.pipeline_depth * node_window
        with self._lock:
            views = [
                (mid, v.window)
                for mid, v in self._views.items()
                if mid not in self._suspended
            ]
        return agent_buffer + sum(window for mid, window in views
                                  if self.heartbeats.is_alive(mid))

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def outstanding_count(self) -> int:
        with self._lock:
            return len(self._assigned)

    def manager_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._manager_channels)

    def tracked_task_ids(self) -> list[str]:
        """Ids of tasks the agent still holds (pending + assigned)."""
        with self._lock:
            pending = [m.task_id for m, _arrived in self._pending]
            return pending + list(self._assigned)

    # ------------------------------------------------------------------
    # the agent loop
    # ------------------------------------------------------------------
    def step(self) -> int:
        events = self._drain_forwarder()
        events += self._drain_managers()
        self._watchdog()
        events += self._dispatch()
        self._maybe_heartbeat()
        return events

    def _drain_forwarder(self) -> int:
        messages = self.forwarder.recv_all_ready(self.MAX_DRAIN)
        if len(messages) == self.MAX_DRAIN:
            self._wakeup.set()  # cut off at the cap: the rest is next pass's
        for message in messages:
            if isinstance(message, TaskBatchMessage):
                self._admit(message)
            elif isinstance(message, CommandMessage) and message.command == "shutdown":
                self._stop.set()
        return len(messages)

    def _admit(self, batch: TaskBatchMessage) -> None:
        """Queue one envelope's tasks.  A task whose body its envelope
        lacks is a sender bug: it is failed here, never queued."""
        bodies = batch.function_buffers
        arrived = self._clock()
        queued = [(task, arrived) for task in batch.tasks
                  if task.function_id in bodies]
        with self._lock:
            self._buffers.update(bodies)
            self._pending.extend(queued)
        self._c_received.inc(len(queued))
        for task in batch.tasks:
            if task.function_id not in bodies:
                self._c_buffer_miss.inc()
                self._fail_task(task, f"function body {task.function_id} "
                                      f"unavailable on {self.name}")

    def _drain_managers(self) -> int:
        count = 0
        results: list[ResultMessage] = []
        with self._lock:
            channels = list(self._manager_channels.items())
        for manager_id, channel in channels:
            messages = channel.recv_all_ready(self.MAX_DRAIN)
            if len(messages) == self.MAX_DRAIN:
                self._wakeup.set()  # cut off at the cap: the rest is next pass's
            count += len(messages)
            for message in messages:
                if isinstance(message, Registration):
                    self._on_manager_registered(manager_id, message)
                elif isinstance(message, Advertisement):
                    self._on_advertisement(manager_id, message)
                elif isinstance(message, Heartbeat):
                    self.heartbeats.beat(manager_id)
                elif isinstance(message, ResultBatchMessage):
                    for result in message.results:
                        self._record_result(manager_id, result)
                        results.append(result)
        if results:
            self._forward_results(results)
        return count

    def _on_manager_registered(self, manager_id: str, message: Registration) -> None:
        with self._lock:
            self._views[manager_id] = ManagerView(
                manager_id=manager_id,
                capacity=message.capacity,
                deployed_containers=frozenset(message.container_types),
                # Conservative placeholder: the registration carries only
                # the worker count; the advertisement that follows it
                # carries the real window (workers + prefetch).
                window=max(0, message.capacity),
            )
            self._window_version += 1
        self.heartbeats.beat(manager_id)

    def _on_advertisement(self, manager_id: str, message: Advertisement) -> None:
        with self._lock:
            view = self._views.get(manager_id)
            if view is None:
                view = ManagerView(manager_id=manager_id, capacity=0)
                self._views[manager_id] = view
                self._window_version += 1
            # A fresh advertisement reflects everything the manager has
            # received so far; reset the in-flight estimate.
            view.capacity = 0 if manager_id in self._suspended else message.total_request
            view.deployed_containers = frozenset(message.deployed_containers)
            view.outstanding = 0
            if message.credit_window >= 0 and message.credit_window != view.window:
                view.window = message.credit_window
                self._window_version += 1
        self.heartbeats.beat(manager_id)

    def _record_result(self, manager_id: str, message: ResultMessage) -> None:
        """Bookkeeping for one completed task (forwarding happens later)."""
        with self._lock:
            self._assigned.pop(message.task_id, None)
            view = self._views.get(manager_id)
            if view is not None and view.outstanding > 0:
                view.outstanding -= 1

    def _forward_results(self, results: list[ResultMessage]) -> None:
        """Ship a step's worth of results upstream as one transfer."""
        self.forwarder.send(
            ResultBatchMessage(sender=self.name, results=tuple(results)))
        if len(results) > 1:
            self._c_coalesced.inc(len(results))
        self._h_result_batch.observe(float(len(results)))
        self._c_results.inc(len(results))

    # -- failure handling -------------------------------------------------------
    def _watchdog(self) -> None:
        """Detect lost managers and re-execute their tasks (§4.3).

        Scans only past the oldest beat's deadline: still the first step
        at or after a manager's.  An off-loop ``forget`` makes it early.
        """
        now = self._clock()
        if now - self._oldest_beat <= self.heartbeats.deadline:
            return
        for manager_id in self.heartbeats.lost_components():
            with self._lock:
                known = manager_id in self._manager_channels
                self._window_version += 1
            if not known:
                self.heartbeats.forget(manager_id)
                continue
            self._on_manager_lost(manager_id)
        # Every beat still to come is stamped at or after ``now``.
        self._oldest_beat = self.heartbeats.oldest_beat(default=now)

    def _on_manager_lost(self, manager_id: str) -> None:
        with self._lock:
            self._views.pop(manager_id, None)
            lost = [
                (task_id, message, attempts)
                for task_id, (mid, message, attempts) in self._assigned.items()
                if mid == manager_id
            ]
            for task_id, _, _ in lost:
                del self._assigned[task_id]
        self.heartbeats.forget(manager_id)
        for task_id, message, attempts in lost:
            if attempts <= self.config.max_retries_on_loss:
                with self._lock:
                    self._pending.appendleft((message, self._clock()))
                self._c_reexecuted.inc()
            else:
                self._fail_task(message, f"manager {manager_id} lost; retries exhausted")

    def _fail_task(self, message: TaskMessage, reason: str) -> None:
        wrapper = RemoteExceptionWrapper(RuntimeError(reason))
        buffer = self._serializer.serialize(wrapper, routing_tag=message.task_id)
        self._forward_results([
            ResultMessage(
                sender=self.name,
                task_id=message.task_id,
                success=False,
                result_buffer=buffer,
            )
        ])

    # -- dispatch -------------------------------------------------------------
    def _dispatch(self) -> int:
        """Route pending tasks to managers.

        Phase 1 runs the scheduling policy per task (taking the lock per
        iteration so receive paths interleave); phase 2 ships each
        manager's share as one :class:`TaskBatchMessage`.
        """
        assignments: dict[str, list[tuple[TaskMessage, float]]] = {}
        channels: dict[str, ChannelEnd] = {}
        dispatched = 0
        while True:
            with self._lock:
                if not self._pending:
                    break
                entry = self._pending[0]
                message = entry[0]
                views = [
                    v
                    for mid, v in self._views.items()
                    if mid not in self._suspended and self.heartbeats.is_alive(mid)
                ]
                chosen = self.scheduler.select(views, message.container_image)
                if chosen is None:
                    break
                self._pending.popleft()
                channel = self._manager_channels.get(chosen.manager_id)
                if channel is None:
                    # stale view; drop it and retry this task next iteration
                    self._views.pop(chosen.manager_id, None)
                    self._window_version += 1
                    self._pending.appendleft(entry)
                    continue
                attempts = self._assigned.get(message.task_id, ("", message, 0))[2]
                self._assigned[message.task_id] = (chosen.manager_id, message, attempts + 1)
                chosen.outstanding += 1
            assignments.setdefault(chosen.manager_id, []).append(entry)
            channels[chosen.manager_id] = channel
        for manager_id, entries in assignments.items():
            dispatched += self._send_task_batch(channels[manager_id], entries)
        return dispatched

    def _send_task_batch(
        self,
        channel: ChannelEnd,
        entries: list[tuple[TaskMessage, float]],
    ) -> int:
        """Ship one manager's scheduled tasks as a single coalesced transfer.

        The envelope carries each distinct function body its tasks name,
        once.  Each task travels as a copy carrying the agent's stamps;
        ``_assigned`` keeps the unstamped message for re-execution.
        """
        with self._lock:
            bodies = {message.function_id: self._buffers[message.function_id]
                      for message, _arrived in entries}
        now = self._clock()
        batch = TaskBatchMessage(
            sender=self.name,
            tasks=tuple(
                TaskMessage(**{**vars(message), "agent_in": arrived,
                               "agent_out": now})
                for message, arrived in entries),
            function_buffers=bodies,
        )
        if not channel.send(batch):
            # manager channel just went down; watchdog will requeue
            return 0
        self._c_dispatched.inc(len(entries))
        self._h_dispatch_batch.observe(float(len(entries)))
        if len(entries) > 1:
            self._c_coalesced.inc(len(entries))
        return len(entries)

    # -- heartbeats to the forwarder ----------------------------------------------
    def _maybe_heartbeat(self) -> None:
        now = self._clock()
        period = max(0.0, self.config.heartbeat_period + self.heartbeat_skew)
        due = now - self._last_heartbeat >= period
        with self._lock:
            version = self._window_version
        if not due and version == self._window_seen:
            return  # the last sent credit still states the window
        credit = self.credit_window()
        # Dirty-beat: a changed credit window (manager registered, lost,
        # or suspended) is announced immediately instead of waiting out
        # the period — otherwise a cold-starting endpoint would sit at
        # window 0 for a full period before the forwarder may dispatch.
        # Skewed agents stay silent: the skew fault injection must delay
        # *all* beats, credit updates included.
        dirty = credit != self._last_credit_sent and self.heartbeat_skew == 0
        if not due and not dirty:
            return
        self._last_heartbeat = now
        self._last_credit_sent = credit
        self._window_seen = version
        self.forwarder.send(
            Heartbeat(
                sender=self.name,
                timestamp=now,
                incarnation=self.incarnation,
                credit=credit,
            )
        )

    # ------------------------------------------------------------------
    # threaded operation
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Run the agent loop in a thread.

        The loop blocks on the wakeup (channel deliveries from the
        forwarder and managers latch it); half the heartbeat period is
        only the heartbeat/watchdog liveness fallback.
        """
        if self._thread is not None:
            raise RuntimeError("agent already started")
        self._stop.clear()
        self.register_with_forwarder()
        self._thread = threading.Thread(
            target=run_loop, name=f"agent-{self.endpoint_id[:8]}", daemon=True,
            args=(self.name, self.step, self._stop, self._wakeup,
                  max(0.001, 0.5 * self.config.heartbeat_period)),
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        self._wakeup.set()
        if self._thread is not None:
            join_thread(self._thread, timeout)
            self._thread = None
