"""The cloud-hosted funcX web service (paper section 4.1).

The service exposes the REST API (here: method calls taking a bearer
token), maintains the registries, stores serialized functions and tasks
in the store, manages one task queue and one result queue per endpoint,
and performs service-side memoization.  Forwarders (one per connected
endpoint) drain the task queues.

Every public method authenticates and authorizes the caller exactly as
the Globus-Auth-protected REST API would.

The service plane is *sharded* (journal paper §5): ``FuncXService`` is
a thin stateless facade routing over ``config.shards`` independent
:class:`~repro.core.shard.ServiceShard` partitions.  A consistent-hash
:class:`~repro.core.shard.ShardMap` places each endpoint (and therefore
its queues and every task addressed to it) on one shard; task ids carry
their owning shard as a ``-s<idx>`` suffix so the status/result/ack
paths route in O(1).  Each shard has its own lock, task table and
queue per endpoint — dispatch and accounting on different shards never
contend — and one result stream delivers from every shard, reading each
record through the shard its watch resolved.  In front of the facade
sits per-tenant admission control (:mod:`repro.core.admission`):
token-bucket rate limits, max-outstanding quotas, and DRR-fair dequeue
across tenant lanes.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.auth.scopes import Scope
from repro.auth.service import AuthService
from repro.core.admission import AdmissionController
from repro.core.memoization import Memoizer
from repro.core.registry import (
    EndpointRecord,
    EndpointRegistry,
    FunctionRecord,
    FunctionRegistry,
)
from repro.core.shard import ServiceShard, ShardMap
from repro.core.stream import ResultStreamServer
from repro.core.tasks import Task, TaskState, new_task_ids, stage_seconds
from repro.errors import (
    PayloadTooLarge,
    ResultPurged,
    ShardDraining,
    TaskCancelled,
    TaskExecutionFailed,
    TaskNotFound,
    TaskPending,
)
from repro.metrics.registry import Histogram, MetricsRegistry
from repro.observability.events import EventSpine
from repro.serialize.buffers import keep_resident
from repro.store.queues import ReliableQueue

logger = logging.getLogger(__name__)

#: One task outcome as a forwarder reports it: ``(task_id, success,
#: result_buffer, exception_text, execution_time, stamps)``, ``stamps``
#: being the result's hop stamps (:func:`~repro.core.tasks.hop_stamps`).
Outcome = tuple[str, bool, bytes, str | None, float, dict[str, float]]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunable service behaviour.

    Attributes
    ----------
    payload_limit:
        Maximum serialized payload size accepted through the service; the
        paper restricts in-band data "for performance and cost reasons"
        (section 4.6) and directs larger data out of band.  The limit
        also sizes the allocator: the service keeps buffers up to twice
        it resident (:func:`repro.serialize.buffers.keep_resident`).
    result_ttl:
        Seconds a terminal task's record survives after the later of its
        terminal time and its last ``get_result`` (section 4.1: results
        are purged "once they have been retrieved").  Expired records
        are swept on the completion path and by :meth:`FuncXService.purge`;
        result *bytes* leave earlier, when the last result-stream
        watcher acks its delivery.
    request_overhead:
        Synchronous per-request processing time (authentication, Redis
        round trips).  Zero by default; the Table 1 benchmark sets it to
        model the measured cloud-service overhead (ts in figure 4).
    default_max_retries:
        Retry budget for tasks lost to worker/manager failure.
    shards:
        Number of independent service-plane partitions.  ``1`` (the
        default) behaves exactly like the unsharded service.
    """

    payload_limit: int = 512 * 1024
    result_ttl: float = 3600.0
    request_overhead: float = 0.0
    default_max_retries: int = 1
    shards: int = 1


class FuncXService:
    """The funcX web service + data plane entry point.

    Parameters
    ----------
    auth:
        The identity service used to validate bearer tokens.
    config:
        Service tunables.
    clock:
        Injectable time source (wall clock by default).
    sleeper:
        Injectable delay function used to apply ``request_overhead`` in
        live deployments (ignored when overhead is zero).
    metrics:
        The deployment's shared metrics registry (a private one is
        created when not provided, so standalone services stay isolated).
    admission:
        Per-tenant admission controller; a permissive default (no
        limits, reject nothing) is created when not provided.
    """

    def __init__(
        self,
        auth: AuthService | None = None,
        config: ServiceConfig | None = None,
        clock: Callable[[], float] | None = None,
        sleeper: Callable[[float], None] | None = None,
        metrics: MetricsRegistry | None = None,
        admission: AdmissionController | None = None,
    ):
        self.auth = auth or AuthService()
        self.config = config or ServiceConfig()
        self._clock = clock or time.monotonic  # clock-domain: monotonic
        self._sleep = sleeper or time.sleep
        # Every admissible payload, and pickle's 1.5x growth buffer, then
        # stays on the heap instead of being mapped and faulted per task.
        keep_resident(2 * self.config.payload_limit)
        self.functions = FunctionRegistry(auth=self.auth)
        self.endpoints = EndpointRegistry()
        # The deployment's one observation point: every component below
        # emits its transitions here (``repro.observability.events``).
        self.events = EventSpine()
        self.memoizer = Memoizer(events=self.events)
        self.metrics = metrics or MetricsRegistry(clock=self._clock)
        self._c_received = self.metrics.counter("service.tasks_received")
        self._c_completed = self.metrics.counter("service.tasks_completed")
        self._c_memo = self.metrics.counter("service.memo_completions")
        self._c_duplicate_results = self.metrics.counter("service.duplicate_results")
        self._c_forgotten = self.metrics.counter("service.tasks_forgotten")
        self._c_cancelled = self.metrics.counter("service.tasks_cancelled")
        self._c_post_cancel = self.metrics.counter("service.post_cancel_results")
        self._c_shard_rejects = self.metrics.counter("shard.draining_rejects")
        # Bound once: looking a histogram up by name sorts its labels.
        self._h_total = self.metrics.histogram("task.total_seconds")
        self._h_stage: dict[str, Histogram] = {}  # filled per stage seen
        # Per-tenant admission control in front of the facade.
        self.admission = admission or AdmissionController(clock=self._clock)
        self.admission.metrics = self.metrics
        # The sharded service plane: consistent-hash placement plus one
        # independent partition (lock, task table, queues) per shard.
        self.shard_map = ShardMap(self.config.shards)
        # endpoint id -> its home shard, resolved once at registration.
        self._endpoint_shards: dict[str, ServiceShard] = {}
        self.shards: list[ServiceShard] = [
            ServiceShard(index=index, service=self, clock=self._clock)
            for index in range(self.config.shards)
        ]
        # The push-delivery entry point clients subscribe through: one
        # delivery thread over every shard.
        self.result_stream = ResultStreamServer(self, clock=self._clock)
        # The open-task gauge reads each shard's O(1) counter — the old
        # implementation scanned every task record per metrics read.
        self.metrics.gauge("service.tasks_live").set_function(
            lambda: sum(shard.open_tasks() for shard in self.shards))

    # -- registry-backed counters (compat with the former int attributes) ----
    @property
    def tasks_received(self) -> int:
        return int(self._c_received.value)

    @property
    def tasks_completed(self) -> int:
        return int(self._c_completed.value)

    @property
    def memo_completions(self) -> int:
        return int(self._c_memo.value)

    @property
    def duplicate_results(self) -> int:
        return int(self._c_duplicate_results.value)

    @property
    def tasks_cancelled(self) -> int:
        return int(self._c_cancelled.value)

    @property
    def post_cancel_results(self) -> int:
        return int(self._c_post_cancel.value)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _spend_overhead(self) -> None:
        if self.config.request_overhead > 0:
            self._sleep(self.config.request_overhead)

    def now(self) -> float:
        return self._clock()

    def shard_for_endpoint(self, endpoint_id: str) -> ServiceShard:
        shard = self._endpoint_shards.get(endpoint_id)
        if shard is None:  # not registered here: wherever the ring puts it
            shard = self.shards[self.shard_map.shard_for_endpoint(endpoint_id)]
        return shard

    def shard_for_task(self, task_id: str) -> ServiceShard:
        return self.shards[self.shard_map.shard_for_task(task_id)]

    def route(self, task_ids: list[str]) -> list[tuple[ServiceShard, list[str]]]:
        """``task_ids`` grouped by owning shard, in first-seen order: one
        parse per id, none on a one-shard plane."""
        if len(self.shards) == 1:
            return [(self.shards[0], task_ids)]
        by_shard: dict[int, list[str]] = {}
        shard_for_task = self.shard_map.shard_for_task
        for task_id in task_ids:
            by_shard.setdefault(shard_for_task(task_id), []).append(task_id)
        return [(self.shards[index], ids) for index, ids in by_shard.items()]

    # ------------------------------------------------------------------
    # registration API
    # ------------------------------------------------------------------
    def register_function(
        self,
        token: str,
        name: str,
        function_buffer: bytes,
        container_image: str | None = None,
        public: bool = False,
        allowed_users: tuple[str, ...] = (),
        allowed_groups: tuple[str, ...] = (),
        description: str = "",
    ) -> str:
        """Register a serialized function; returns its UUID."""
        identity = self.auth.authorize(token, Scope.REGISTER_FUNCTION)
        self._spend_overhead()
        if len(function_buffer) > self.config.payload_limit:
            raise PayloadTooLarge(len(function_buffer), self.config.payload_limit)
        record = self.functions.register(
            name=name,
            owner=identity,
            function_buffer=function_buffer,
            container_image=container_image,
            public=public,
            allowed_users=allowed_users,
            allowed_groups=allowed_groups,
            description=description,
            now=self._clock(),
        )
        return record.function_id

    def update_function(self, token: str, function_id: str, function_buffer: bytes) -> int:
        """Owner-only update of a function body; returns new version."""
        identity = self.auth.authorize(token, Scope.REGISTER_FUNCTION)
        self._spend_overhead()
        record = self.functions.update_body(function_id, identity, function_buffer)
        # A changed body must not serve stale memoized results.
        self.memoizer.invalidate_function(function_buffer)
        return record.version

    def register_endpoint(
        self,
        token: str,
        name: str,
        description: str = "",
        public: bool = True,
        metadata: dict[str, Any] | None = None,
    ) -> str:
        """Register an endpoint; allocates its queues on its home shard."""
        identity = self.auth.authorize(token, Scope.REGISTER_ENDPOINT)
        self._spend_overhead()
        record = self.endpoints.register(
            name=name,
            owner=identity,
            description=description,
            public=public,
            metadata=metadata,
            now=self._clock(),
        )
        # Endpoint affinity: the consistent-hash map pins both queues
        # (and every task addressed here) to one shard, so the
        # endpoint's forwarder drains exactly one partition.
        shard = self.shard_for_endpoint(record.endpoint_id)
        shard.add_endpoint(record.endpoint_id,
                           weight_for=self.admission.weight_for)
        self._endpoint_shards[record.endpoint_id] = shard
        return record.endpoint_id

    # ------------------------------------------------------------------
    # execution API
    # ------------------------------------------------------------------
    def submit(
        self,
        token: str,
        function_id: str,
        endpoint_id: str,
        payload_buffer: bytes,
        memoize: bool = False,
        max_retries: int | None = None,
    ) -> str:
        """Submit one task; returns its task id (figure 3, steps 1-3)."""
        return self._submit_wave(
            token, [(function_id, endpoint_id, payload_buffer)], memoize,
            max_retries)[0]

    def submit_batch(
        self,
        token: str,
        requests: list[tuple[str, str, bytes]],
        memoize: bool = False,
    ) -> list[str]:
        """Submit many tasks in one authenticated request.

        Batch submission amortizes the per-request overhead — the paper's
        answer to web-service throughput limits (section 5.2.4).

        The batch is atomic on validation: every request is checked
        (payload size, function invocability, endpoint usability, shard
        accepting, tenant quota for the whole batch) before *any* task
        is enqueued, so a rejected member cannot leave a partial batch
        behind with the caller holding no task ids.
        """
        return self._submit_wave(token, requests, memoize, None)

    def _submit_wave(
        self,
        token: str,
        requests: list[tuple[str, str, bytes]],
        memoize: bool,
        max_retries: int | None,
    ) -> list[str]:
        """Admit, record and enqueue one wave of submissions.

        Each distinct (function, endpoint) pair is validated and resolved
        to its record and shard once; each endpoint's share of the wave
        is inserted under one shard-lock hold and enqueued with one
        ``put_many`` (one forwarder wake-up) and one publish.
        """
        received_at = self._clock()
        identity = self.auth.authorize(token, Scope.EXECUTE)
        self._spend_overhead()  # one overhead for the whole wave
        owner = identity.identity_id
        limit = self.config.payload_limit
        if max_retries is None:
            max_retries = self.config.default_max_retries
        # Nothing below touches shared state until the whole wave has
        # been checked and admitted: a Task is only an object until then.
        resolved: dict[tuple[str, str], tuple[FunctionRecord, ServiceShard]] = {}
        waves: dict[str, tuple[ServiceShard, list[Task]]] = {}
        tasks: list[Task] = []
        task_ids = new_task_ids(len(requests))
        for (function_id, endpoint_id, payload), task_id in zip(
                requests, task_ids):
            if len(payload) > limit:
                raise PayloadTooLarge(len(payload), limit)
            checked = resolved.get((function_id, endpoint_id))
            if checked is None:
                function = self.functions.check_invocable(function_id, owner)
                self.endpoints.check_usable(endpoint_id, owner)
                shard = self.shard_for_endpoint(endpoint_id)
                if shard.draining:
                    self._c_shard_rejects.inc()
                    raise ShardDraining(shard.index)
                checked = resolved[function_id, endpoint_id] = (function, shard)
            function, shard = checked
            # Embed the owning shard in the id: every later lookup
            # (status, result, ack, stream watch) routes in O(1) without
            # a directory.
            task = Task(
                task_id=self.shard_map.tag(task_id, shard.index),
                function_id=function_id,
                endpoint_id=endpoint_id,
                payload_buffer=payload,
                container_image=function.container_image,
                owner_id=owner,
                max_retries=max_retries,
            )
            task.state_times[TaskState.RECEIVED.value] = received_at  # born RECEIVED
            tasks.append(task)
            waves.setdefault(endpoint_id, (shard, []))[1].append(task)
        self.admission.admit(owner, count=len(tasks))
        entered = 0
        try:
            for endpoint_id, (shard, wave) in waves.items():
                shard.insert_tasks(wave)
                entered += len(wave)
                self._enqueue_wave(shard, endpoint_id, wave, memoize)
        except BaseException:
            # Validation passed, so this is unexpected; return the quota
            # of the members that never made it in.
            self.admission.release(owner, count=len(tasks) - entered)
            raise
        return [task.task_id for task in tasks]

    def _enqueue_wave(
        self,
        shard: ServiceShard,
        endpoint_id: str,
        wave: list[Task],
        memoize: bool,
    ) -> None:
        """Announce, memo-check and enqueue one endpoint's inserted tasks."""
        self._c_received.inc(len(wave))
        events = self.events
        if events:
            for task in wave:
                events.emit("service", "task.submitted", {
                    "task_id": task.task_id, "endpoint_id": endpoint_id,
                    "shard": shard.index})
        if memoize:
            wave = self._serve_memo_hits(shard, wave)
            if not wave:
                return
        queued_at = self._clock()
        for task in wave:
            task.advance(TaskState.QUEUED, queued_at)
        # The tenant lane makes dequeue DRR-fair across identities
        # sharing this endpoint.
        shard.task_queue(endpoint_id).put_many(
            [task.task_id for task in wave], lane=wave[0].owner_id)

    def _serve_memo_hits(
        self, shard: ServiceShard, wave: list[Task]
    ) -> list[Task]:
        """Complete the wave's memoized members; returns the rest."""
        misses: list[Task] = []
        hits: list[Task] = []
        for task in wave:
            cached = self.memoizer.lookup(
                self.function_buffer(task.function_id), task.payload_buffer)
            if cached is None:
                task.metadata["memoize"] = True
                misses.append(task)
                continue
            task.memo_hit = True
            self._settle(task, success=True, result_buffer=cached,
                         now=self._clock())
            hits.append(task)
        self._c_memo.inc(len(hits))
        self._retire(shard, hits)
        return misses

    # ------------------------------------------------------------------
    # monitoring / results API
    # ------------------------------------------------------------------
    def status(self, token: str, task_id: str) -> TaskState:
        self.auth.authorize(token, Scope.MONITOR)
        return self._get_task(task_id).state

    def status_batch(self, token: str, task_ids: list[str]) -> dict[str, str]:
        """States for many tasks in one authenticated request.

        The facade fans the lookup out shard-by-shard (one routing pass,
        then per-shard table reads) — the batch analogue of ``status``.
        """
        self.auth.authorize(token, Scope.MONITOR)
        states: dict[str, str] = {}
        for shard, ids in self.route(task_ids):
            for task_id, task in zip(ids, shard.get_tasks(ids)):
                if task is None:
                    raise TaskNotFound(task_id)
                states[task_id] = task.state.value
        return states

    def get_result(self, token: str, task_id: str, timeout: float = 0.0) -> bytes:
        """Retrieve a completed task's serialized result (figure 3, step 6).

        Blocks up to ``timeout`` seconds for completion; raises
        :class:`TaskPending` if still incomplete.  A retrieval re-arms
        the record's ``result_ttl`` expiry (section 4.1).  Raises
        :class:`ResultPurged` when the result bytes were released (the
        last stream watcher acked them) or the record has expired.
        """
        self.auth.authorize(token, Scope.RESULTS)
        shard = self.shard_for_task(task_id)
        [task] = shard.get_tasks((task_id,))
        if task is None:
            # An id this plane minted names a record that has since left
            # its table; any other id never was a task here.
            if self.shard_map.minted(task_id):
                raise ResultPurged(task_id)
            raise TaskNotFound(task_id)
        if not task.state.terminal and timeout > 0:
            done = threading.Event()

            def wake(_tasks: list[Task]) -> None:
                done.set()

            shard.when_terminal(task_id, wake)
            if not done.wait(timeout):
                shard.withdraw(task, wake)
        if not task.state.terminal:
            raise TaskPending(task_id, task.state.value)
        shard.note_retrieved(task)
        if task.state is TaskState.CANCELLED:
            raise TaskCancelled(task.exception_text or f"task {task_id} cancelled")
        buffer = task.result_buffer  # read once: a stream ack may release it
        if buffer is None and task.result_size:
            raise ResultPurged(task_id)
        if task.state is TaskState.SUCCESS:
            assert buffer is not None
        # FAILED: hand back the serialized exception wrapper when the
        # worker produced one — the SDK re-raises the original exception
        # type on the caller's stack; otherwise raise the recorded text.
        if buffer:
            return buffer
        raise TaskExecutionFailed(task.exception_text or task.state.value)

    def task_info(self, token: str, task_id: str) -> dict[str, Any]:
        self.auth.authorize(token, Scope.MONITOR)
        return self._get_task(task_id).to_record()

    def list_endpoints(self, token: str) -> list[EndpointRecord]:
        self.auth.authorize(token, Scope.MONITOR)
        return self.endpoints.all()

    # ------------------------------------------------------------------
    # data-plane interface (used by forwarders — not user-facing)
    # ------------------------------------------------------------------
    def task_queue(self, endpoint_id: str) -> ReliableQueue:
        self.endpoints.get(endpoint_id)  # existence check
        return self.shard_for_endpoint(endpoint_id).task_queue(endpoint_id)

    def task_by_id(self, task_id: str) -> Task:
        return self._get_task(task_id)

    def function_buffer(self, function_id: str) -> bytes:
        return self.functions.get(function_id).function_buffer

    def complete_task(
        self,
        task_id: str,
        success: bool,
        result_buffer: bytes = b"",
        exception_text: str | None = None,
        execution_time: float = 0.0,
        stamps: dict[str, float] | None = None,
    ) -> bool:
        """Record one task outcome: :meth:`complete_tasks` for a wave of
        one, routed by the task id.  Raises :class:`TaskNotFound` for an
        unknown id."""
        [applied] = self.complete_tasks(self.shard_for_task(task_id), [(
            task_id, success, result_buffer, exception_text, execution_time,
            stamps or {})])
        if applied is None:
            raise TaskNotFound(task_id)
        return applied

    def complete_tasks(
        self, shard: ServiceShard, outcomes: list[Outcome]
    ) -> list[bool | None]:
        """Record a wave of outcomes arriving from a forwarder (fig 3,
        step 5), all for tasks on ``shard``.

        Returns one verdict per outcome, in order: ``True`` when it was
        applied, ``None`` when the task record is unknown (purged while
        the result was in flight), ``False`` for a result that arrives
        for an already-terminal task (the at-least-once delivery path
        redelivers on requeue races) — counted and reported, but it must
        not mutate the recorded outcome, timeline, metadata, or memo
        store: first result wins, within a wave as across waves.
        """
        tasks = shard.get_tasks([outcome[0] for outcome in outcomes])
        now = self._clock()
        verdicts: list[bool | None] = []
        finished: list[Task] = []
        for task, (task_id, success, result_buffer, exception_text,
                   execution_time, stamps) in zip(tasks, outcomes):
            if task is None:
                verdicts.append(None)
            elif task.state is TaskState.CANCELLED:
                # The client cancelled while the task was in flight; the
                # worker's result arrives late and is suppressed (counted
                # apart from redelivery duplicates — different pathology).
                self._c_post_cancel.inc()
                if self.events:
                    self.events.emit("service", "task.post_cancel_result", {
                        "task_id": task_id, "success": success})
                verdicts.append(False)
            elif task.state.terminal:
                self._c_duplicate_results.inc()
                if self.events:
                    self.events.emit("service", "task.duplicate_result", {
                        "task_id": task_id, "success": success})
                verdicts.append(False)
            else:
                if success and task.metadata.get("memoize"):
                    self.memoizer.store(self.function_buffer(task.function_id),
                                        task.payload_buffer, result_buffer)
                self._settle(task, success, result_buffer, exception_text,
                             execution_time, now, stamps)
                finished.append(task)
                verdicts.append(True)
        self._retire(shard, finished)
        return verdicts

    def cancel_task(self, token: str, task_id: str) -> bool:
        """Cancel a not-yet-finished task (the journal SDK's addition).

        Returns ``True`` when this call moved the task to CANCELLED,
        ``False`` when it already reached a terminal state (the result
        won the race — first outcome wins, as everywhere else).

        A QUEUED task's queue entry becomes an orphan the forwarder acks
        at dispatch time (its terminal-state check).  A DISPATCHED or
        RUNNING task cannot be recalled from the worker: it is marked
        cancelled now and its eventual result is suppressed and counted
        (``service.post_cancel_results``).
        """
        self.auth.authorize(token, Scope.EXECUTE)
        self._spend_overhead()
        shard, task = self._locate(task_id)
        if task.state.terminal:
            return False
        now = self._clock()
        task.advance(TaskState.CANCELLED, now)
        task.exception_text = f"task {task_id} cancelled by client"
        self._c_cancelled.inc()
        if self.events:
            self.events.emit("service", "task.cancelled", {
                "task_id": task_id, "state": task.state.value})
        self._retire(shard, [task])
        return True

    def requeue_tasks(self, endpoint_id: str, task_ids: Iterable[str],
                      reason: str, wake: bool = True) -> list[str]:
        """Return leased tasks to ``endpoint_id``'s queue: lease timeout,
        agent loss, a failed dispatch wave and a shard kill all come here.

        Under one hold of the queue lock each task with retries left goes
        back to QUEUED and its id to the front of its lane.  A task past
        its retry budget is failed, and its lease acked, as one wave after
        the hold; so is the lease of a record gone or already terminal.
        An id not under lease is skipped.  Returns the requeued ids.
        """
        shard = self.shard_for_endpoint(endpoint_id)
        queue = shard.task_queue(endpoint_id)
        task_ids = list(task_ids)
        records = dict(zip(task_ids, shard.get_tasks(task_ids)))
        now = self._clock()
        events = self.events

        def keep(task_id: str) -> bool:  # under the queue lock
            task = records[task_id]
            if (task is None or task.state.terminal
                    or task.attempts > task.max_retries):
                return False
            if task.state is not TaskState.QUEUED:
                task.advance(TaskState.QUEUED, now)
            task.metadata.setdefault("requeue_reasons", []).append(reason)
            if events:
                events.emit("service", "task.requeued", {
                    "task_id": task_id, "reason": reason})
            return True

        requeued, refused = queue.requeue(task_ids, keep, wake)
        exhausted = [task for task in map(records.get, refused)
                     if task is not None and not task.state.terminal]
        for task in exhausted:
            if events:
                events.emit("service", "task.retries_exhausted", {
                    "task_id": task.task_id, "reason": reason,
                    "attempts": task.attempts})
            self._settle(task, success=False, now=now, exception_text=(
                f"retries exhausted after {task.attempts} attempts ({reason})"))
        self._retire(shard, exhausted)
        queue.ack_many(refused)
        return requeued

    def tasks_dispatched(self, tasks: list[Task]) -> None:
        """A forwarder sent this wave to its agent (fig 3, step 4); a
        task cancelled meanwhile stays cancelled."""
        now = self._clock()
        for task in tasks:
            if task.state.terminal:
                continue
            task.attempts += 1
            task.advance(TaskState.DISPATCHED, now)

    def endpoint_heartbeat(self, endpoint_id: str) -> None:
        self.endpoints.heartbeat(endpoint_id, self._clock())

    # ------------------------------------------------------------------
    # shard administration
    # ------------------------------------------------------------------
    def drain_shard(self, index: int) -> None:
        """Stop accepting submissions on one shard (rolling restart)."""
        self.shards[index].drain()

    def restart_shard(self, index: int) -> None:
        """Bring a drained/killed shard back into rotation."""
        self.shards[index].restart()

    def shard_counters(self) -> list[dict[str, int]]:
        """Per-shard accounting snapshots (conservation checks, CLI)."""
        return [shard.counters() for shard in self.shards]

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop service-owned background machinery (stream delivery)."""
        self.result_stream.close()

    def purge(self) -> int:
        """Drop every terminal record whose ``result_ttl`` has run out —
        the sweep each completion wave also runs; returns records
        dropped."""
        return sum(shard.sweep() for shard in self.shards)

    def forget_task(self, task_id: str) -> bool:
        """Administratively purge a task record (TTL eviction, GDPR wipe).

        The task id may still be riding an endpoint queue, ready or
        leased.  A forwarder that leases an unknown id acks it as an
        orphan and keeps draining (``Forwarder._prepare_task``); a
        result for it acks its lease; :meth:`requeue_tasks` acks the
        lease of a record that is gone.
        """
        task = self.shard_for_task(task_id).pop_task(task_id)
        if task is None:
            return False
        if not task.state.terminal:
            self.admission.release(task.owner_id)
        self._c_forgotten.inc()
        if self.events:
            self.events.emit("service", "task.forgotten", {
                "task_id": task_id, "state": task.state.value})
        return True

    def iter_tasks(self) -> list[Task]:
        """A snapshot of every task record (chaos accounting probes)."""
        tasks: list[Task] = []
        for shard in self.shards:
            tasks.extend(shard.iter_tasks())
        return tasks

    def outstanding_tasks(self, endpoint_id: str) -> int:
        """Queued + dispatched + running tasks for an endpoint.

        O(1): reads the owning shard's incrementally-maintained
        per-endpoint index (the forwarder calls this per dispatch wave;
        it used to scan the whole task table).
        """
        return self.shard_for_endpoint(endpoint_id).outstanding(endpoint_id)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _locate(self, task_id: str) -> tuple[ServiceShard, Task]:
        shard = self.shard_for_task(task_id)
        [task] = shard.get_tasks((task_id,))
        if task is None:
            raise TaskNotFound(task_id)
        return shard, task

    def _get_task(self, task_id: str) -> Task:
        return self._locate(task_id)[1]

    def _settle(
        self,
        task: Task,
        success: bool,
        result_buffer: bytes = b"",
        exception_text: str | None = None,
        execution_time: float = 0.0,
        now: float = 0.0,
        stamps: dict[str, float] | None = None,
    ) -> None:
        """Move one live task to SUCCESS/FAILED and write the result's hop
        ``stamps`` into its timeline — the per-task half of a completion;
        the caller then :meth:`_retire`s the wave it settled."""
        # From any live state: a worker may finish after a requeue decision
        # raced it (first completion wins), a memo hit settles at RECEIVED.
        target = TaskState.SUCCESS if success else TaskState.FAILED
        task.state = target
        task.state_times.setdefault(target.value, now)
        if stamps:
            task.state_times.update(stamps)
        task.result_buffer = result_buffer or None
        task.result_size = len(result_buffer)
        task.exception_text = exception_text
        task.execution_time = execution_time
        self._c_completed.inc()
        if self.events:
            self.events.emit("service", "task.completed", {
                "task_id": task.task_id, "success": success,
                "state": task.state.value})

    def _retire(self, shard: ServiceShard, tasks: list[Task]) -> None:
        """The per-wave half of reaching a terminal state: the records'
        stage and end-to-end times into their histograms, shard
        accounting (where the argument bytes leave and expired records
        are swept), tenant quota, then the announcements: one call to
        each waiter on a record of the wave (a stream subscription is
        one), one ``tasks.terminal`` event."""
        if not tasks:
            return
        stages: dict[str, list[float]] = {}
        totals: list[float] = []
        for task in tasks:
            for stage, seconds in stage_seconds(
                    task.state_times, task.state.value).items():
                stages.setdefault(stage, []).append(seconds)
            total = task.total_latency()
            if total is not None:
                totals.append(total)
        for stage, durations in stages.items():
            histogram = self._h_stage.get(stage)
            if histogram is None:
                histogram = self._h_stage[stage] = self.metrics.histogram(
                    "task.stage_seconds", stage=stage)
            histogram.observe_many(durations)
        self._h_total.observe_many(totals)
        waiting = shard.note_terminal(tasks)
        owners: dict[str, int] = {}
        for task in tasks:
            owners[task.owner_id] = owners.get(task.owner_id, 0) + 1
        for owner, count in owners.items():
            self.admission.release(owner, count)
        # After the quota is back: a waiter that resubmits is admitted.
        for waiter, finished in waiting.items():
            try:
                waiter(finished)
            except Exception:  # isolate a bad waiter, as the spine does
                logger.exception("waiter for tasks %s failed", ", ".join(
                    task.task_id for task in finished))
        if self.events:
            self.events.emit("service", "tasks.terminal",
                             {"shard": shard.index, "tasks": tasks})
