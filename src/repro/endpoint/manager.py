"""Managers: per-node worker pools (paper section 4.3).

"Managers represent, and communicate on behalf of, the collective
capacity of the workers on a single node, thereby limiting the number of
sockets used to just two per node.  Managers determine the available CPU
and memory resources on a node, and partition the node among the
workers. ... Managers advertise deployed container types and available
capacity to the endpoint."

The manager implements two paper optimizations:

* **internal batching** — it requests/accepts many tasks on behalf of its
  workers per round trip (§4.7, evaluated in §5.5.2);
* **opportunistic prefetching** — it advertises anticipated capacity
  beyond currently idle workers so network transfer overlaps computation
  (§4.7, evaluated in §5.5.5);

and the on-demand container deployment algorithm of §4.5: a task needing
a container the node hasn't deployed triggers a (warm-pool-mediated)
worker redeployment.

Prefetching exists so that a worker which frees up starts at once: a
worker hands in its result and takes the head of the prefetched queue
itself, in one hold of the manager's lock (:meth:`Manager._finished`),
by the routine the loop uses for its idle workers
(:meth:`Manager._claim_head`).  The loop is on a task's path only for
an idle worker, a redeploy or a missing body.  The idle set is the
node's capacity: a worker not in it holds a task.
A worker whose finish leaves the node idle ships the node's results
itself; a busy node's loop batches them (a lone task skips a wake-up).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from queue import SimpleQueue
from typing import Callable, Iterable

from repro.containers.runtime import ContainerRuntime
from repro.containers.spec import ContainerSpec, ContainerTechnology
from repro.containers.warming import WarmPool
from repro.endpoint.config import EndpointConfig
from repro.endpoint.worker import Worker
from repro.metrics.registry import COUNT_BUCKETS, MetricsRegistry
from repro.serialize import FuncXSerializer
from repro.serialize.traceback import RemoteExceptionWrapper
from repro.errors import ChannelClosed, Disconnected
from repro.transport.channel import ChannelEnd
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


class Manager:
    """One node's worker pool, connected to the agent by a channel.

    Parameters
    ----------
    manager_id:
        Unique id within the endpoint.
    channel:
        Manager side of the channel to the agent.
    config:
        The endpoint configuration (worker count, batching, prefetch...).
    runtime:
        Container runtime used for cold starts on this node.
    sleeper:
        Injectable delay function used to apply (scaled) container
        cold-start times on the live fabric.
    metrics:
        The deployment's shared metrics registry (a private one is
        created when not provided).
    """

    #: Per-step bound on messages drained from the agent channel so a
    #: flooded link cannot starve heartbeats or result collection.
    MAX_DRAIN = 256

    def __init__(
        self,
        manager_id: str,
        channel: ChannelEnd,
        config: EndpointConfig,
        runtime: ContainerRuntime | None = None,
        clock: Callable[[], float] | None = None,
        sleeper: Callable[[float], None] | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.manager_id = manager_id
        self.channel = channel
        self.config = config
        self.runtime = runtime or ContainerRuntime(system=config.system, seed=config.seed)
        self._clock = clock or time.monotonic  # clock-domain: monotonic
        self._sleep = sleeper or time.sleep
        self.warm_pool = WarmPool(ttl=config.warm_ttl)

        self._wakeup = Wakeup(clock=self._clock)
        channel.wakeup = self._wakeup.set_at
        self._workers: dict[str, Worker] = {}
        self._lock = threading.RLock()
        # Results handed in by finishing workers, for the next collect.
        self._done: list[ResultMessage] = []         # guarded-by: self._lock
        # Longest idle first: the order a match and a redeploy victim are
        # chosen in (a set of id strings would order by PYTHONHASHSEED).
        self._idle: dict[str, Worker] = {}           # guarded-by: self._lock
        # Each queued task with the time it reached the node.
        self._pending: deque[tuple[TaskMessage, float]] = deque()  # guarded-by: self._lock
        # Function-buffer table: bodies arrive once per batch envelope and
        # are reattached as a task is claimed for a worker.
        self._buffers: dict[str, bytes] = {}         # guarded-by: self._lock
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        # Heartbeat pacing state, touched only from the manager loop once
        # start() has spawned it.
        self._last_heartbeat = -float("inf")  # thread-confined: manager-loop
        self._last_advertised: tuple[int, tuple[str, ...]] | None = None  # guarded-by: self._lock
        self.metrics = metrics or MetricsRegistry(clock=self._clock)
        self._c_completed = self.metrics.counter(
            "manager.tasks_completed", manager=manager_id)
        self._c_cold_starts = self.metrics.counter(
            "manager.cold_starts", manager=manager_id)
        self._c_buffer_miss = self.metrics.counter(
            "manager.buffer_misses", manager=manager_id)
        self._c_self_claimed = self.metrics.counter(
            "manager.tasks_self_claimed", manager=manager_id)
        self._c_coalesced = self.metrics.counter(
            "channel.coalesced_messages", component="manager", manager=manager_id)
        self._h_result_batch = self.metrics.histogram(
            "result.batch_size", buckets=COUNT_BUCKETS,
            component="manager", manager=manager_id)
        self._serializer = FuncXSerializer()
        # Fault injection: extra seconds added to the effective heartbeat
        # period (clock-skewed heartbeats toward the agent's watchdog).
        self.heartbeat_skew = 0.0

        self._deploy_initial_workers()
        self.metrics.gauge(
            "manager.credit_window", manager=manager_id
        ).set_function(self.credit_window)

    # -- registry-backed counters (compat with the former int attributes) ----
    @property
    def tasks_completed(self) -> int:
        return int(self._c_completed.value)

    @property
    def cold_starts(self) -> int:
        return int(self._c_cold_starts.value)

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _deploy_initial_workers(self) -> None:
        """Partition the node into workers in the bare environment."""
        for i in range(self.config.workers_per_node):
            worker_id = f"{self.manager_id}/w{i}"
            container = self.runtime.instantiate(ContainerSpec.bare(), now=self._clock())
            worker = Worker(
                worker_id=worker_id,
                inbox=SimpleQueue(),
                finished=self._finished,
                container=container,
                clock=self._clock,
            )
            self._workers[worker_id] = worker
            with self._lock:
                self._idle[worker_id] = worker

    def register(self) -> None:
        """Register with the agent once all workers are connected (§4.3)."""
        self.channel.send(
            Registration(
                sender=self.manager_id,
                component_type="manager",
                capacity=len(self._workers),
                container_types=self.deployed_containers(),
                metadata={"workers": len(self._workers)},
            )
        )
        self._advertise()

    # ------------------------------------------------------------------
    # state views
    # ------------------------------------------------------------------
    def deployed_containers(self) -> tuple[str, ...]:
        with self._lock:
            keys = {w.container.key for w in self._workers.values()}
        keys.update(self.warm_pool.warm_keys())
        return tuple(sorted(keys))

    @property
    def idle_count(self) -> int:
        with self._lock:
            return len(self._idle)

    @property
    def worker_count(self) -> int:
        return len(self._workers)

    @property
    def outstanding(self) -> int:
        """Tasks queued on the node plus those its workers hold."""
        with self._lock:
            return len(self._pending) + len(self._workers) - len(self._idle)

    def tracked_task_ids(self) -> list[str]:
        """Ids of tasks queued on this node (chaos accounting probes).

        Tasks a worker already holds are not listed; at quiescence
        (idle workers) the pending deque is the full picture.
        """
        with self._lock:
            return [m.task_id for m, _arrived in self._pending]

    # ------------------------------------------------------------------
    # the manager loop
    # ------------------------------------------------------------------
    def step(self) -> int:
        """One iteration: drain agent traffic, collect results, dispatch."""
        messages = self.channel.recv_all_ready(self.MAX_DRAIN)
        if len(messages) == self.MAX_DRAIN:
            self._wakeup.set()  # cut off at the cap: the rest is next pass's
        events = len(messages)
        for message in messages:
            if isinstance(message, TaskBatchMessage):
                self._admit(message)
            elif isinstance(message, CommandMessage):
                self._on_command(message)
        events += self._collect_results()
        events += self._dispatch_pending()
        self._maybe_heartbeat()
        return events

    def _admit(self, batch: TaskBatchMessage) -> None:
        """Queue one envelope's tasks; a finishing worker may take the
        head from here on, before this step's own dispatch pass."""
        arrived = self._clock()
        with self._lock:
            self._buffers.update(batch.function_buffers)
            self._pending.extend((task, arrived) for task in batch.tasks)

    def _collect_results(self) -> int:
        with self._lock:
            if not self._done:
                return 0
            collected, self._done = self._done, []
            advert = self._advertisement()
        self._c_completed.inc(len(collected))
        self._send_results(collected, advert)
        return len(collected)

    def _send_results(self, results: list[ResultMessage],
                      advert: Advertisement | None) -> None:
        """One transfer for completions (or one failure) and the
        advertisement, snapshotted with them, of the capacity they free."""
        batch = ResultBatchMessage(sender=self.manager_id, results=tuple(results))
        if advert is not None:
            self.channel.send_many((batch, advert))
        else:
            self.channel.send(batch)
        if len(results) > 1:
            self._c_coalesced.inc(len(results))
        self._h_result_batch.observe(float(len(results)))

    # ------------------------------------------------------------------
    # starting tasks: one routine, two callers
    # ------------------------------------------------------------------
    def _claim_head(  # guarded-by: self._lock
        self, candidates: Iterable[Worker],
    ) -> tuple[Worker, TaskMessage] | None:
        """Start the head of the queue on the first of ``candidates``
        deployed in its container, or start nothing.

        The only way a task leaves ``_pending`` for a worker: the loop
        offers its idle workers, a finishing worker offers itself.  The
        head only (FIFO), only with its body on the node, never once
        ``_stop`` is set.
        """
        if not self._pending or self._stop.is_set():
            return None
        head, arrived = self._pending[0]
        body = self._buffers.get(head.function_id)
        if not body:
            return None
        key = head.container_image or "RAW"
        for worker in candidates:
            if worker.container.key == key:
                break
        else:
            return None
        self._pending.popleft()
        self._idle.pop(worker.worker_id, None)
        # A copy takes the body and the node's stamps: the agent keeps the
        # empty-bodied message it sent, for re-execution.
        # (dataclasses.replace costs 1.4x this.)
        return worker, TaskMessage(**{
            **vars(head), "function_buffer": body,
            "manager_in": arrived, "manager_out": self._clock()})

    def _finished(self, worker: Worker,
                  result: ResultMessage) -> TaskMessage | None:
        """A worker's hand-off as it finishes a task (its thread).

        In one hold of the lock the result joins ``_done`` and the
        worker takes the head exactly when the loop would have handed it
        that task anyway; otherwise it goes idle and the head — a
        redeploy (§4.5), a missing body — is the loop's decision.  So a
        collect never sees a result without the slot it frees.

        A finish that leaves the node idle (nothing pending, every worker
        idle, not stopped) takes ``_done`` and its advertisement in that
        hold and sends them after it (a failed send drops them, as the
        stopped loop would); any other wakes the loop.  Two senders may
        deliver advertisements out of order: the staleness transit
        latency already causes, bounded by the credit window.
        """
        shipped = None
        with self._lock:
            self._done.append(result)
            claim = self._claim_head((worker,))
            if claim is None:
                self._idle[worker.worker_id] = worker
                if (not self._pending and not self._stop.is_set()
                        and len(self._idle) == len(self._workers)):
                    shipped, self._done = self._done, []
                    advert = self._advertisement()
        if shipped is None:
            self._wakeup.set()
        else:
            self._c_completed.inc(len(shipped))
            try:
                self._send_results(shipped, advert)
            except (ChannelClosed, Disconnected):
                pass
        if claim is None:
            return None
        self._c_self_claimed.inc()
        return claim[1]

    def _dispatch_pending(self) -> int:
        """The loop's share: the head to the longest-idle worker in its
        container, else that container to the longest-idle worker."""
        dispatched = 0
        while True:
            victim = None
            with self._lock:
                claim = self._claim_head(self._idle.values())
                if claim is None:
                    if not self._pending or self._stop.is_set():
                        break
                    head, _arrived = self._pending[0]
                    if not self._buffers.get(head.function_id):
                        self._pending.popleft()
                    elif self._idle:
                        victim = next(iter(self._idle.values()))
                    else:
                        break
            if claim is not None:
                worker, message = claim
                worker.inbox.put(message)
            elif victim is not None:
                # Outside the lock (a cold start sleeps); the next pass
                # finds the head matched, or taken by a finishing worker.
                self._redeploy(victim, head.container_image or "RAW")
                continue
            else:
                self._fail_unresolvable(head)
            dispatched += 1
        return dispatched

    def _fail_unresolvable(self, message: TaskMessage) -> None:
        """A task whose function body never reached this node.

        Reported as a failure result so the task is not silently lost;
        the client (or agent retry machinery) can resubmit.
        """
        self._c_buffer_miss.inc()
        wrapper = RemoteExceptionWrapper(RuntimeError(
            f"function body {message.function_id} unavailable on "
            f"{self.manager_id}"))
        buffer = self._serializer.serialize(wrapper, routing_tag=message.task_id)
        self._send_results([
            ResultMessage(
                sender=self.manager_id,
                task_id=message.task_id,
                success=False,
                result_buffer=buffer,
            )
        ], self._advertisement())

    def _redeploy(self, worker: Worker, key: str) -> None:
        """Move an idle worker into container ``key`` (§4.5): warm pool
        first, else a cold start whose modelled duration is physically
        applied."""
        now = self._clock()
        released = worker.container
        self.warm_pool.release(released, now)

        warm = self.warm_pool.acquire(key, now)
        if warm is not None:
            worker.container = warm
        else:
            spec = self._spec_for_key(key)
            concurrent = 0  # live nodes deploy serially on the manager thread
            instance = self.runtime.instantiate(spec, now=now, concurrent=concurrent)
            self._c_cold_starts.inc()
            delay = instance.cold_start_time * self.config.scale_cold_start
            if delay > 0:
                self._sleep(delay)
            worker.container = instance
        worker._function_cache.clear()  # new environment, no stale modules
        self._advertise()

    def _spec_for_key(self, key: str) -> ContainerSpec:
        if key == "RAW":
            return ContainerSpec.bare()
        tech_name, _, image = key.partition(":")
        spec = ContainerSpec(image=image, technology=ContainerTechnology(tech_name))
        if spec.key != key:
            # "none:x" is bare: no worker would ever answer to the key,
            # and the dispatch pass redeploys until one does.
            raise ValueError(f"container key {key!r} deploys as {spec.key!r}")
        return spec

    # ------------------------------------------------------------------
    # advertisement & heartbeats
    # ------------------------------------------------------------------
    def advertised_capacity(self) -> int:
        """Capacity advertised to the agent.

        With internal batching the manager requests tasks for every idle
        worker plus a prefetch allowance; without it, one task per round
        trip (the §5.5.2 baseline).
        """
        with self._lock:
            idle = len(self._idle)
            queued = len(self._pending)
        if not self.config.internal_batching:
            return min(1, idle) if not queued else 0
        prefetch = self.config.prefetch_capacity
        return max(0, idle + prefetch - queued)

    def credit_window(self) -> int:
        """The static credit window this node advertises upstream.

        The window is the total task population the node is willing to
        hold at once — every worker slot plus the prefetch allowance
        (one without internal batching, matching the one-task-per-round-
        trip §5.5.2 baseline).
        """
        extra = (self.config.prefetch_capacity
                 if self.config.internal_batching else 1)
        return len(self._workers) + extra

    def _advertise(self) -> None:
        """Unconditionally; a collect's rides with its results."""
        self.channel.send(self._advertisement(always=True))

    def _advertisement(self, always: bool = False) -> Advertisement | None:
        """The node's advertisement; ``None`` if the agent was last told
        the same, unless ``always``."""
        with self._lock:
            capacity = self.advertised_capacity()
            containers = self.deployed_containers()
            if (capacity, containers) == self._last_advertised and not always:
                return None
            self._last_advertised = (capacity, containers)
            idle = len(self._idle)
        return Advertisement(
            sender=self.manager_id,
            manager_id=self.manager_id,
            idle_workers=idle,
            prefetch_capacity=max(0, capacity - idle),
            deployed_containers=containers,
            credit_window=self.credit_window(),
        )

    def _maybe_heartbeat(self) -> None:
        now = self._clock()
        period = max(0.0, self.config.heartbeat_period + self.heartbeat_skew)
        if now - self._last_heartbeat < period:
            return
        self._last_heartbeat = now
        beat = Heartbeat(
            sender=self.manager_id, timestamp=now,
            outstanding_tasks=self.outstanding)
        self.warm_pool.evict_expired(now)
        # Piggyback the periodic advertisement on the heartbeat: one
        # coalesced transfer instead of two back-to-back messages.
        advert = self._advertisement(always=True)
        self.channel.send_many((beat, advert))
        self._c_coalesced.inc(2)

    def _on_command(self, message: CommandMessage) -> None:
        if message.command == "shutdown":
            self._stop.set()
        elif message.command == "suspend":
            # Stop advertising; in-flight work completes ("suspend managers
            # to prevent further tasks being scheduled to them", §4.3).
            with self._lock:
                self._last_advertised = (0, self.deployed_containers())
            self.channel.send(
                Advertisement(
                    sender=self.manager_id,
                    manager_id=self.manager_id,
                    idle_workers=0,
                    prefetch_capacity=0,
                    deployed_containers=self.deployed_containers(),
                    credit_window=0,
                )
            )

    # ------------------------------------------------------------------
    # threaded operation
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Run the manager loop in a thread.

        The loop blocks on the wakeup (channel deliveries and worker
        completions latch it); half the heartbeat period is only the
        heartbeat liveness fallback.
        """
        if self._thread is not None:
            raise RuntimeError("manager already started")
        self._stop.clear()
        for worker in self._workers.values():
            worker.start()
        self.register()
        # Thread-lifecycle handoffs: start()/join() supply the
        # happens-before edges for these ownership transfers.
        self._thread = threading.Thread(  # handoff
            target=run_loop, name=f"manager-{self.manager_id}", daemon=True,
            args=(self.manager_id, self.step, self._stop, self._wakeup,
                  max(0.001, 0.5 * self.config.heartbeat_period)),
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        self._wakeup.set()
        if self._thread is not None:
            join_thread(self._thread, timeout)
            self._thread = None  # handoff
        for worker in self._workers.values():
            worker.stop(timeout)

    def kill(self) -> None:
        """Abrupt failure (for the §5.4 experiments): drop the channel and
        stop processing without draining anything.  Nothing in
        ``_pending`` starts once this returns; each worker thread exits
        after the task it is running (not joined)."""
        with self._lock:  # a claim in progress ends before kill returns
            self._stop.set()
        self._wakeup.set()
        self.channel.disconnect()
        for worker in self._workers.values():
            worker.inbox.put(Worker.STOP)
        if self._thread is not None:
            join_thread(self._thread, 1.0)
            self._thread = None  # handoff
