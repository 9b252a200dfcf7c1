"""The simulated funcX fabric: service → agent → managers → workers.

Reproduces the agent-level behaviour the paper evaluates at scale:

* the serialized agent dispatch pipeline whose inverse overhead is the
  measured throughput ceiling (§5.2.3);
* manager advertisement round trips, internal batching (§5.5.2) and
  opportunistic prefetching (§5.5.5);
* service-side memoization with a serialized service pipeline (§5.5.6);
* heartbeat-based failure detection with task re-execution for manager
  and endpoint failures (§5.4).

The simulation tracks each task individually — a 1.3M-task weak-scaling
run fires 5.3M logical events, four per task — but moves tasks through
every hop (arrival, finish, result, credit return) as the wave they were
dispatched in, so the heap sees ~100k entries for that run: five per
dispatch chunk, not four per task.  Tasks whose timings differ travel as
waves of one; the schedule is the same either way.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.sim.kernel import EventLoop
from repro.sim.platform import SimPlatform
from repro.workloads.generators import ArrivalEvent


class SimTask:
    """One simulated task and its timestamps."""

    __slots__ = (
        "task_id",
        "duration",
        "container_key",
        "memo_key",
        "created",
        "service_done",
        "dispatched",
        "started",
        "completed",
        "attempts",
        "memo_hit",
    )

    def __init__(self, task_id: int, duration: float, container_key: str = "RAW",
                 memo_key: int | None = None, created: float = 0.0):
        self.task_id = task_id
        self.duration = duration
        self.container_key = container_key
        self.memo_key = memo_key
        self.created = created
        self.service_done = -1.0
        self.dispatched = -1.0
        self.started = -1.0
        self.completed = -1.0
        self.attempts = 0
        self.memo_hit = False

    @property
    def latency(self) -> float:
        return self.completed - self.created


@dataclass(frozen=True)
class FailureSchedule:
    """When components fail and recover (simulated seconds).

    ``manager_failures`` entries are ``(fail_at, recover_at, manager_index)``;
    ``endpoint_failures`` entries are ``(fail_at, recover_at)``.
    """

    manager_failures: tuple[tuple[float, float, int], ...] = ()
    endpoint_failures: tuple[tuple[float, float], ...] = ()


@dataclass
class SimReport:
    """Outcome of one simulated run."""

    completion_time: float
    tasks_completed: int
    throughput: float
    latencies: np.ndarray
    completion_times: np.ndarray
    events_processed: int
    memo_hits: int = 0
    reexecutions: int = 0

    def latency_timeline(self, bin_width: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """Mean task latency per completion-time bin (figures 7 and 8)."""
        if self.completion_times.size == 0:
            return np.array([]), np.array([])
        bins = np.floor(self.completion_times / bin_width).astype(int)
        first = bins.min()
        bins -= first
        counts = np.bincount(bins)
        occupied = np.flatnonzero(counts)
        sums = np.bincount(bins, weights=self.latencies)[occupied]
        return (occupied + first + 0.5) * bin_width, sums / counts[occupied]


class _SimManager:
    """Per-node state: workers, local queue, dispatch credit."""

    __slots__ = (
        "index",
        "workers",
        "idle",
        "queue",
        "credit",
        "alive",
        "running",
        "deployed",
    )

    def __init__(self, index: int, workers: int, credit: int):
        self.index = index
        self.workers = workers
        self.idle = workers
        self.queue: deque[SimTask] = deque()
        self.credit = credit           # tasks the agent may still send
        self.alive = True
        self.running: set[SimTask] = set()
        self.deployed: set[str] = {"RAW"}


class SimFabric:
    """One endpoint (agent + managers) under simulated time.

    Parameters
    ----------
    platform:
        Timing model (Theta/Cori/EC2/K8S).
    managers:
        Number of compute nodes (one manager each).
    workers_per_manager:
        Containers per node; defaults to the platform's value.
    prefetch:
        Tasks each manager may hold queued beyond its workers (§5.5.5).
    internal_batching:
        When False, each manager fetches one task per
        ``platform.single_task_cycle`` round trip (§5.5.2 baseline).
    advertise_idle:
        When True (default) managers request tasks for every idle worker
        plus the prefetch allowance (§5.5.2's batching-enabled mode).
        When False the advertisement requests exactly ``prefetch`` tasks
        per cycle — the §5.5.5 experiment, whose x-axis is the per-node
        prefetch count itself.
    memoize:
        Enable the service-side memoization cache.
    memo_prewarmed:
        Treat every repeated ``memo_key`` as a hit even before its first
        completion — matching the paper's Table 3 setup, where repeats of
        a deterministic 1 s function always hit.
    heartbeat_period, heartbeat_grace:
        Failure-detection parameters (§5.4).
    """

    #: Max tasks dispatched per agent event (bounds event count; the
    #: chunk is serialized at ``agent_dispatch_overhead`` per task).
    DISPATCH_CHUNK = 64

    def __init__(
        self,
        platform: SimPlatform,
        managers: int,
        workers_per_manager: int | None = None,
        prefetch: int = 0,
        internal_batching: bool = True,
        advertise_idle: bool = True,
        memoize: bool = False,
        memo_prewarmed: bool = True,
        heartbeat_period: float = 1.0,
        heartbeat_grace: int = 3,
        seed: int | None = None,
    ):
        if managers < 1:
            raise ValueError("need at least one manager")
        self.platform = platform
        self.loop = EventLoop()
        self.prefetch = prefetch
        self.internal_batching = internal_batching
        self.advertise_idle = advertise_idle
        self.memoize = memoize
        self.memo_prewarmed = memo_prewarmed
        self.heartbeat_period = heartbeat_period
        self.heartbeat_grace = heartbeat_grace
        self._rng = random.Random(seed)
        workers = workers_per_manager or platform.containers_per_node
        credit = self._initial_credit(workers)
        self.managers = [_SimManager(i, workers, credit) for i in range(managers)]
        self._ready: deque[_SimManager] = deque(m for m in self.managers)
        self.pending: deque[SimTask] = deque()
        self.endpoint_alive = True
        self._service_held: deque[SimTask] = deque()
        self._agent_busy = False
        self._service_available_at = 0.0
        self._memo_cache: set[int] = set()
        self._memo_seen: set[int] = set()
        # results
        self.completed: list[SimTask] = []
        self._outstanding: dict[SimTask, _SimManager] = {}
        self.memo_hits = 0
        self.reexecutions = 0
        self._first_submit: float | None = None

    # ------------------------------------------------------------------
    # configuration helpers
    # ------------------------------------------------------------------
    def _initial_credit(self, workers: int) -> int:
        if not self.internal_batching:
            return 1
        if not self.advertise_idle:
            return max(1, self.prefetch)
        return workers + self.prefetch

    @property
    def total_workers(self) -> int:
        return sum(m.workers for m in self.managers)

    @property
    def detection_delay(self) -> float:
        return self.heartbeat_period * self.heartbeat_grace

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit_batch(
        self,
        count: int,
        duration: float = 0.0,
        at: float = 0.0,
        container_key: str = "RAW",
        memo_keys: Iterable[int] | None = None,
        through_service: bool = False,
    ) -> list[SimTask]:
        """Submit ``count`` identical tasks at time ``at``.

        With ``through_service`` each task pays the serialized service
        overhead before reaching the agent (needed for the memoization
        experiment); otherwise tasks materialize directly in the agent's
        pending queue, matching the paper's agent-focused scaling runs.
        """
        keys = list(memo_keys) if memo_keys is not None else [None] * count
        if len(keys) != count:
            raise ValueError("memo_keys length must equal count")
        tasks = [
            SimTask(i, duration, container_key=container_key, memo_key=keys[i], created=at)
            for i in range(count)
        ]
        self.loop.at(at, self._arrive_many, tasks, through_service)
        return tasks

    def submit_stream(
        self,
        arrivals: Iterable[ArrivalEvent],
        through_service: bool = False,
    ) -> list[SimTask]:
        """Submit tasks per an arrival schedule (fault-tolerance runs)."""
        tasks = []
        for event in arrivals:
            task = SimTask(event.index, event.duration, created=event.time)
            tasks.append(task)
            self.loop.at(event.time, self._arrive_many, [task], through_service)
        return tasks

    def _arrive_many(self, tasks: list[SimTask], through_service: bool) -> None:
        now = self.loop.now
        if self._first_submit is None:
            self._first_submit = now
        if not through_service:
            for task in tasks:
                task.service_done = now
                self.pending.append(task)
            self._try_dispatch()
            return
        # Serialized service pipeline: each request costs service_overhead.
        overhead = self.platform.service_overhead
        for task in tasks:
            t = max(now, self._service_available_at) + overhead
            self._service_available_at = t
            if self.memoize and task.memo_key is not None and self._memo_lookup(task):
                task.memo_hit = True
                self.memo_hits += 1
                self.loop.at(t, self._complete_at_service, task)
            else:
                self.loop.at(t, self._enter_pending, task)

    def _memo_lookup(self, task: SimTask) -> bool:
        assert task.memo_key is not None
        if task.memo_key in self._memo_cache:
            return True
        if self.memo_prewarmed:
            # Repeats hit even before first completion (Table 3 setup).
            if task.memo_key in self._memo_seen:
                return True
            self._memo_seen.add(task.memo_key)
        return False

    def _complete_at_service(self, task: SimTask) -> None:
        task.service_done = self.loop.now
        task.completed = self.loop.now
        self.completed.append(task)

    def _enter_pending(self, task: SimTask) -> None:
        task.service_done = self.loop.now
        if self.endpoint_alive:
            self.pending.append(task)
            self._try_dispatch()
        else:
            self._service_held.append(task)

    # ------------------------------------------------------------------
    # agent dispatch pipeline
    # ------------------------------------------------------------------
    def _try_dispatch(self) -> None:
        if self._agent_busy or not self.endpoint_alive or not self.pending:
            return
        assignments: list[tuple[SimTask, _SimManager]] = []
        ready = self._ready
        while self.pending and len(assignments) < self.DISPATCH_CHUNK and ready:
            manager = ready[0]
            if not manager.alive or manager.credit <= 0:
                ready.popleft()
                continue
            task = self.pending.popleft()
            manager.credit -= 1
            assignments.append((task, manager))
            if manager.credit <= 0:
                ready.popleft()
            else:
                ready.rotate(-1)  # spread load across managers
        if not assignments:
            return
        self._agent_busy = True
        cost = len(assignments) * self.platform.agent_dispatch_overhead
        self.loop.schedule(cost, self._finish_dispatch, assignments)

    def _finish_dispatch(self, assignments: list[tuple[SimTask, _SimManager]]) -> None:
        self._agent_busy = False
        now = self.loop.now
        join = self.loop.join
        travel = self.platform.dispatch_latency
        for task, manager in assignments:
            task.dispatched = now
            task.attempts += 1
            self._outstanding[task] = manager
            join(travel, self._arrive_at_managers, (task, manager, task.attempts))
        self._try_dispatch()

    # ------------------------------------------------------------------
    # manager / worker behaviour
    # ------------------------------------------------------------------
    # The handlers below take a wave — the items ``EventLoop.join`` put on
    # one heap entry because they fire at the same instant — and walk it in
    # schedule order: a dispatch chunk when durations are equal, a single
    # task when they differ.
    def _arrive_at_managers(self, wave: list[tuple[SimTask, _SimManager, int]]) -> None:
        for task, manager, attempt in wave:
            if task.attempts != attempt or task.completed >= 0:
                continue  # stale delivery from a pre-failure dispatch
            if not manager.alive or not self.endpoint_alive:
                # Delivered into a component that already failed: the failure
                # sweep has run, so the watchdog reclaims it on its next pass.
                self._outstanding.pop(task, None)
                self.loop.schedule(self.detection_delay, self._reexecute,
                                   [(task, task.attempts)])
                continue
            cold = 0.0
            if task.container_key not in manager.deployed:
                manager.deployed.add(task.container_key)
                cold = self.platform.container_cold_start
            if manager.idle > 0:
                manager.idle -= 1
                self.loop.join(self._start_task(task, manager, cold),
                               self._finish_tasks, (task, manager))
            else:
                manager.queue.append(task)

    def _start_task(self, task: SimTask, manager: _SimManager, cold: float = 0.0) -> float:
        """Occupy a worker now; returns the delay to the task's finish."""
        task.started = self.loop.now
        manager.running.add(task)
        return cold + task.duration + self.platform.worker_overhead

    def _finish_tasks(self, wave: list[tuple[SimTask, _SimManager]]) -> None:
        # State changes task by task, in wave order; only the *scheduling*
        # is grouped by kind — results, then the finishes of queued tasks
        # that start now, then credit returns — so that a wave's results
        # ride on one event and its credits on another.  ``seq`` order
        # shows only between events that fire at the same instant.
        # Results may go first whatever ties: a hand-off to the agent
        # schedules nothing and touches only ``_outstanding``/``completed``/
        # ``_memo_cache``, which no finish or credit return reads.  A
        # finish may go ahead of the credit returns only if it fires at
        # another instant; one that fires *with* them keeps its place
        # (the flush in the loop).  docs/PERFORMANCE.md §13 has the argument.
        join = self.loop.join
        result_delay = self.platform.dispatch_latency + self.platform.agent_result_overhead
        refill = (
            self.platform.manager_cycle
            if self.internal_batching
            else self.platform.single_task_cycle
        )
        started: list[tuple[float, tuple[SimTask, _SimManager]]] = []
        freed: list[_SimManager] = []

        def flush() -> None:
            for runtime, item in started:
                join(runtime, self._finish_tasks, item)
            for manager in freed:
                join(refill, self._return_credits, manager)
            started.clear()
            freed.clear()

        for task, manager in wave:
            if task not in manager.running:
                continue  # lost with a failed component; the slot was reset
            # The worker genuinely ran this attempt, so the slot is always
            # freed; the *result* is sent even for superseded attempts (a
            # real worker cannot know it was re-dispatched) and
            # deduplicated at the agent — first completion wins
            # (at-least-once semantics).
            manager.running.discard(task)
            join(result_delay, self._results_at_agent, task)
            # The freed slot's capacity becomes visible to the agent after
            # an advertisement round trip; a queued (prefetched) task
            # starts now.
            if manager.queue:
                queued = manager.queue.popleft()
                runtime = self._start_task(queued, manager)
                if runtime == refill:
                    flush()
                started.append((runtime, (queued, manager)))
            else:
                manager.idle += 1
            freed.append(manager)
        flush()

    def _return_credits(self, wave: list[_SimManager]) -> None:
        for manager in wave:
            if not manager.alive:
                continue
            cap = self._initial_credit(manager.workers)
            before = manager.credit
            manager.credit = min(cap, manager.credit + 1)
            if before == 0 and manager.credit > 0:
                self._ready.append(manager)
            self._try_dispatch()

    def _results_at_agent(self, wave: list[SimTask]) -> None:
        now = self.loop.now
        for task in wave:
            self._outstanding.pop(task, None)
            if task.completed >= 0:
                continue  # duplicate result from a superseded attempt
            if self.memoize and task.memo_key is not None:
                self._memo_cache.add(task.memo_key)
            task.completed = now
            self.completed.append(task)

    # ------------------------------------------------------------------
    # failure injection (§5.4)
    # ------------------------------------------------------------------
    def apply_failures(self, schedule: FailureSchedule) -> None:
        for fail_at, recover_at, index in schedule.manager_failures:
            if not 0 <= index < len(self.managers):
                raise IndexError(f"no manager {index}")
            if recover_at <= fail_at:
                raise ValueError("recover_at must follow fail_at")
            self.loop.at(fail_at, self._fail_manager, index)
            self.loop.at(recover_at, self._recover_manager, index)
        for fail_at, recover_at in schedule.endpoint_failures:
            if recover_at <= fail_at:
                raise ValueError("recover_at must follow fail_at")
            self.loop.at(fail_at, self._fail_endpoint)
            self.loop.at(recover_at, self._recover_endpoint)

    def _fail_manager(self, index: int) -> None:
        manager = self.managers[index]
        manager.alive = False
        lost = [(t, t.attempts) for t, m in self._outstanding.items() if m is manager]
        for task, _attempt in lost:
            del self._outstanding[task]
        manager.running.clear()
        manager.queue.clear()
        manager.idle = 0
        manager.credit = 0
        # The watchdog notices after the heartbeat grace period and
        # re-executes the tracked tasks (§4.3).
        self.loop.schedule(self.detection_delay, self._reexecute, lost)

    def _reexecute(self, tasks: list[tuple[SimTask, int]]) -> None:
        for task, attempt_at_loss in tasks:
            if task.completed >= 0:
                continue
            if task.attempts != attempt_at_loss:
                continue  # another recovery path already re-dispatched it
            self.reexecutions += 1
            self.pending.appendleft(task)
        self._try_dispatch()

    def _recover_manager(self, index: int) -> None:
        manager = self.managers[index]
        manager.alive = True
        manager.idle = manager.workers
        manager.credit = self._initial_credit(manager.workers)
        self._ready.append(manager)
        self._try_dispatch()

    def _fail_endpoint(self) -> None:
        self.endpoint_alive = False
        lost = [(t, t.attempts) for t in self._outstanding]
        self._outstanding.clear()
        for manager in self.managers:
            manager.running.clear()
            manager.queue.clear()
            manager.idle = 0
            manager.credit = 0
        lost.extend((t, t.attempts) for t in self.pending)
        self.pending.clear()
        # The forwarder requeues outstanding tasks after missing
        # heartbeats (§4.1); they re-enter once the endpoint returns.
        self.loop.schedule(self.detection_delay, self._hold_at_service, lost)

    def _hold_at_service(self, tasks: list[tuple[SimTask, int]]) -> None:
        # The forwarder's requeue sweep may land after the endpoint has
        # already recovered — route straight back to dispatch in that case.
        for task, attempt_at_loss in tasks:
            if task.completed >= 0:
                continue
            if task.attempts != attempt_at_loss:
                continue  # already re-dispatched by another recovery path
            if self.endpoint_alive:
                self.pending.append(task)
                self.reexecutions += 1
            else:
                self._service_held.append(task)
        if self.endpoint_alive:
            self._try_dispatch()

    def _recover_endpoint(self) -> None:
        self.endpoint_alive = True
        for manager in self.managers:
            manager.alive = True
            manager.idle = manager.workers
            manager.credit = self._initial_credit(manager.workers)
        self._ready = deque(self.managers)
        while self._service_held:
            task = self._service_held.popleft()
            if task.completed < 0:
                self.pending.append(task)
                self.reexecutions += 1
        self._try_dispatch()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> SimReport:
        """Run the simulation to completion (or a horizon) and report."""
        self.loop.run(until=until, max_events=max_events)
        completions = np.array([t.completed for t in self.completed], dtype=float)
        latencies = np.array([t.latency for t in self.completed], dtype=float)
        start = self._first_submit or 0.0
        end = float(completions.max()) if completions.size else start
        span = max(end - start, 1e-12)
        return SimReport(
            completion_time=end - start,
            tasks_completed=len(self.completed),
            throughput=len(self.completed) / span,
            latencies=latencies,
            completion_times=completions,
            events_processed=self.loop.events_processed,
            memo_hits=self.memo_hits,
            reexecutions=self.reexecutions,
        )
