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
dispatch chunk, not four per task.  Each hop hands its wave on in one
``EventLoop.join`` call per run of equal delays, so scheduling costs one
call per wave per hop, not one per task.  Tasks whose timings differ
travel as waves of one; the schedule is the same either way.

A task is a row of the fabric's :class:`TaskTable`, not an object: the
handlers, the agent's pending runs, the managers' queues and the waves
pass row numbers, and a task keeps ~54 B — six column slots and its
place in the completion order — where a slotted object per task kept
~170.  What a submission gives all its tasks (ids, creation time,
duration, container, memo keys) is stored once per submission.
:class:`SimTask` is a read-only view of one row.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from repro.sim.kernel import EventLoop
from repro.sim.platform import SimPlatform
from repro.workloads.generators import ArrivalEvent


class _Run(NamedTuple):
    """What one submission gives all its tasks: rows from ``start`` on."""

    start: int
    ids: Sequence[int]  # one per task, as submitted (a range or a tuple)
    created: float
    duration: float
    container_key: str
    memo_keys: list | None  # one per task, or none at all


class TaskTable:
    """Every task of one fabric, one row each.

    The stamps and the attempt count, which the handlers read and write
    task by task, are list columns: a wave stores the one ``loop.now``
    float in all its rows, so a slot costs 8 B, and a list subscript is
    the cheapest store CPython has short of a slot (an ``array`` boxes
    every read).  ``memo_hit``, never read on the way, is packed
    (``bytearray``).  ``order`` holds the rows in completion order;
    ``runs`` one :class:`_Run` per submission, found by ``starts``.  Task
    ids live per submission: a run keeps the ids it was given.
    """

    __slots__ = ("service_done", "dispatched", "started", "completed",
                 "attempts", "memo_hit", "order", "starts", "runs")

    def __init__(self):
        self.service_done: list[float] = []
        self.dispatched: list[float] = []
        self.started: list[float] = []
        self.completed: list[float] = []
        self.attempts: list[int] = []
        self.memo_hit = bytearray()
        self.order = array("i")
        self.starts: list[int] = []
        self.runs: list[_Run] = []

    def __len__(self) -> int:
        return len(self.attempts)

    def add(self, ids: Sequence[int], created: float, duration: float,
            container_key: str = "RAW", memo_keys: list | None = None) -> range:
        """Append one submission's rows, unstamped; returns them."""
        start, count = len(self.attempts), len(ids)
        for column in (self.service_done, self.dispatched, self.started,
                       self.completed):
            column.extend(repeat(-1.0, count))
        self.attempts.extend(repeat(0, count))
        self.memo_hit.extend(bytes(count))
        self.starts.append(start)
        self.runs.append(_Run(start, ids, created, duration, container_key, memo_keys))
        return range(start, start + count)

    def run_of(self, row: int) -> _Run:
        return self.runs[bisect_right(self.starts, row) - 1]

    def memo_key(self, row: int) -> int | None:
        run = self.run_of(row)
        return None if run.memo_keys is None else run.memo_keys[row - run.start]


def _column(name: str) -> property:
    column = attrgetter(name)
    return property(lambda task: column(task._table)[task._row])


def _constant(name: str) -> property:
    field = attrgetter(name)
    return property(lambda task: field(task._table.run_of(task._row)))


class SimTask:
    """One simulated task and its timestamps: a read-only view of its
    row of a :class:`TaskTable`, reading what the row holds now."""

    __slots__ = ("_table", "_row")

    def __init__(self, table: TaskTable, row: int):
        self._table = table
        self._row = row

    service_done = _column("service_done")
    dispatched = _column("dispatched")
    started = _column("started")
    completed = _column("completed")
    attempts = _column("attempts")
    created = _constant("created")
    duration = _constant("duration")
    container_key = _constant("container_key")

    @property
    def memo_hit(self) -> bool:
        return bool(self._table.memo_hit[self._row])

    @property
    def task_id(self) -> int:
        run = self._table.run_of(self._row)
        return run.ids[self._row - run.start]

    @property
    def memo_key(self) -> int | None:
        return self._table.memo_key(self._row)

    @property
    def latency(self) -> float:
        return self.completed - self.created

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SimTask) and other._table is self._table
                and other._row == self._row)

    def __hash__(self) -> int:
        return hash((id(self._table), self._row))


class SimTasks(Sequence):
    """Views of some rows of a :class:`TaskTable`, in order; a fresh
    :class:`SimTask` per access."""

    __slots__ = ("_table", "_rows")

    def __init__(self, table: TaskTable, rows: Sequence[int]):
        self._table = table
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SimTasks(self._table, self._rows[index])
        return SimTask(self._table, self._rows[index])

    def __iter__(self) -> Iterator[SimTask]:
        return map(SimTask, repeat(self._table), self._rows)


class _Pending:
    """The agent's queue: runs of rows (``range``s) as submitted, and
    single rows a recovery hands back (runs of one)."""

    __slots__ = ("_runs", "_size")

    def __init__(self):
        self._runs: deque[range] = deque()
        # The simulation is one thread: handlers only run inside ``run``.
        self._size = 0  # thread-confined: sim-loop

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(self._runs)

    def extend(self, rows: range) -> None:
        self._runs.append(rows)
        self._size += len(rows)

    def append(self, row: int) -> None:
        self.extend(range(row, row + 1))

    def appendleft(self, row: int) -> None:
        self._runs.appendleft(range(row, row + 1))
        self._size += 1

    def take(self, count: int) -> list[int]:
        """Pop the first ``count`` rows (at most ``len(self)``)."""
        rows: list[int] = []
        runs = self._runs
        while len(rows) < count:
            head, wanted = runs[0], count - len(rows)
            if len(head) > wanted:
                rows += head[:wanted]
                runs[0] = head[wanted:]
            else:
                rows += runs.popleft()
        self._size -= count
        return rows

    def clear(self) -> None:
        self._runs.clear()
        self._size = 0


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
    """Per-node state: workers, local queue, dispatch credit (the queue
    and the running set hold task rows)."""

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
        self.queue: deque[int] = deque()
        self.credit = credit           # tasks the agent may still send
        self.alive = True
        self.running: set[int] = set()
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
        self.tasks = TaskTable()
        self.pending = _Pending()
        self.endpoint_alive = True
        self._service_held: deque[int] = deque()
        self._agent_busy = False
        self._service_available_at = 0.0
        self._memo_cache: set[int] = set()
        self._memo_seen: set[int] = set()
        # results
        self.completed = SimTasks(self.tasks, self.tasks.order)
        self._outstanding: dict[int, _SimManager] = {}
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
    ) -> SimTasks:
        """Submit ``count`` identical tasks at time ``at``.

        With ``through_service`` each task pays the serialized service
        overhead before reaching the agent (needed for the memoization
        experiment); otherwise tasks materialize directly in the agent's
        pending queue, matching the paper's agent-focused scaling runs.
        """
        keys = list(memo_keys) if memo_keys is not None else None
        if keys is not None and len(keys) != count:
            raise ValueError("memo_keys length must equal count")
        rows = self.tasks.add(range(count), at, duration, container_key, keys)
        self.loop.at(at, self._arrive_many, rows, through_service)
        return SimTasks(self.tasks, rows)

    def submit_stream(
        self,
        arrivals: Iterable[ArrivalEvent],
        through_service: bool = False,
    ) -> SimTasks:
        """Submit tasks per an arrival schedule (fault-tolerance runs)."""
        first = len(self.tasks)
        for event in arrivals:
            rows = self.tasks.add((event.index,), event.time, event.duration)
            self.loop.at(event.time, self._arrive_many, rows, through_service)
        return SimTasks(self.tasks, range(first, len(self.tasks)))

    def _arrive_many(self, rows: range, through_service: bool) -> None:
        now = self.loop.now
        if self._first_submit is None:
            self._first_submit = now
        table = self.tasks
        if not through_service:
            table.service_done[rows.start:rows.stop] = [now] * len(rows)
            self.pending.extend(rows)
            self._try_dispatch()
            return
        # Serialized service pipeline: each request costs service_overhead.
        overhead = self.platform.service_overhead
        for row in rows:
            t = max(now, self._service_available_at) + overhead
            self._service_available_at = t
            key = table.memo_key(row)
            if self.memoize and key is not None and self._memo_lookup(key):
                table.memo_hit[row] = 1
                self.memo_hits += 1
                self.loop.at(t, self._complete_at_service, row)
            else:
                self.loop.at(t, self._enter_pending, row)

    def _memo_lookup(self, key: int) -> bool:
        if key in self._memo_cache:
            return True
        if self.memo_prewarmed:
            # Repeats hit even before first completion (Table 3 setup).
            if key in self._memo_seen:
                return True
            self._memo_seen.add(key)
        return False

    def _complete_at_service(self, row: int) -> None:
        table = self.tasks
        table.service_done[row] = table.completed[row] = self.loop.now
        table.order.append(row)

    def _enter_pending(self, row: int) -> None:
        self.tasks.service_done[row] = self.loop.now
        if self.endpoint_alive:
            self.pending.append(row)
            self._try_dispatch()
        else:
            self._service_held.append(row)

    # ------------------------------------------------------------------
    # agent dispatch pipeline
    # ------------------------------------------------------------------
    def _try_dispatch(self) -> None:
        if self._agent_busy or not self.endpoint_alive or not self.pending:
            return
        # The managers are chosen first; the pending head goes to them in
        # order, so a chunk takes its rows in one slice of a run.
        chosen: list[_SimManager] = []
        ready = self._ready
        wanted = min(len(self.pending), self.DISPATCH_CHUNK)
        while len(chosen) < wanted and ready:
            manager = ready[0]
            if not manager.alive or manager.credit <= 0:
                ready.popleft()
                continue
            manager.credit -= 1
            chosen.append(manager)
            if manager.credit <= 0:
                ready.popleft()
            else:
                ready.rotate(-1)  # spread load across managers
        if not chosen:
            return
        self._agent_busy = True
        cost = len(chosen) * self.platform.agent_dispatch_overhead
        self.loop.schedule(cost, self._finish_dispatch,
                           self.pending.take(len(chosen)), chosen)

    def _finish_dispatch(self, rows: list[int], managers: list[_SimManager]) -> None:
        self._agent_busy = False
        now = self.loop.now
        table, outstanding = self.tasks, self._outstanding
        dispatched, attempts = table.dispatched, table.attempts
        arrivals = []
        for row, manager in zip(rows, managers):
            dispatched[row] = now
            attempts[row] = attempt = attempts[row] + 1
            outstanding[row] = manager
            arrivals.append((row, manager, attempt))
        self.loop.join(self.platform.dispatch_latency, self._arrive_at_managers,
                       arrivals)
        self._try_dispatch()

    # ------------------------------------------------------------------
    # manager / worker behaviour
    # ------------------------------------------------------------------
    # The handlers below take a wave — the items ``EventLoop.join`` put on
    # one heap entry because they fire at the same instant — and walk it in
    # schedule order: a dispatch chunk when durations are equal, a single
    # task when they differ.  Each hands on what it schedules as waves too:
    # one ``join`` per run of items that share a delay, in the order the
    # items would have been joined one by one.
    def _join_runs(self, fn: Callable[[list], None],
                   timed: list[tuple[float, object]]) -> None:
        """Join ``(delay, item)`` pairs, one call per run of equal delays."""
        join = self.loop.join
        for delay, run in groupby(timed, itemgetter(0)):
            join(delay, fn, [item for _, item in run])
        timed.clear()

    def _arrive_at_managers(self, wave: list[tuple[int, _SimManager, int]]) -> None:
        table = self.tasks
        now, overhead = self.loop.now, self.platform.worker_overhead
        attempts, completed, started = table.attempts, table.completed, table.started
        starts, runs = table.starts, table.runs
        finishes: list[tuple[float, tuple[int, _SimManager]]] = []
        for row, manager, attempt in wave:
            if attempts[row] != attempt or completed[row] >= 0:
                continue  # stale delivery from a pre-failure dispatch
            if not manager.alive or not self.endpoint_alive:
                # Delivered into a component that already failed: the failure
                # sweep has run, so the watchdog reclaims it on its next pass.
                self._outstanding.pop(row, None)
                self._join_runs(self._finish_tasks, finishes)
                self.loop.schedule(self.detection_delay, self._reexecute,
                                   [(row, attempt)])
                continue
            run = runs[bisect_right(starts, row) - 1]  # run_of, inlined
            cold = 0.0
            if run.container_key not in manager.deployed:
                manager.deployed.add(run.container_key)
                cold = self.platform.container_cold_start
            if manager.idle > 0:
                manager.idle -= 1
                started[row] = now
                manager.running.add(row)
                finishes.append((cold + run.duration + overhead, (row, manager)))
            else:
                manager.queue.append(row)
        self._join_runs(self._finish_tasks, finishes)

    def _finish_tasks(self, wave: list[tuple[int, _SimManager]]) -> None:
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
        join, now = self.loop.join, self.loop.now
        result_delay = self.platform.dispatch_latency + self.platform.agent_result_overhead
        overhead = self.platform.worker_overhead
        refill = (
            self.platform.manager_cycle
            if self.internal_batching
            else self.platform.single_task_cycle
        )
        results: list[int] = []
        starting: list[tuple[float, tuple[int, _SimManager]]] = []
        freed: list[_SimManager] = []

        def flush() -> None:
            join(result_delay, self._results_at_agent, results)
            self._join_runs(self._finish_tasks, starting)
            join(refill, self._return_credits, freed)
            results.clear()
            freed.clear()

        run_of, started = self.tasks.run_of, self.tasks.started
        for row, manager in wave:
            if row not in manager.running:
                continue  # lost with a failed component; the slot was reset
            # The worker genuinely ran this attempt, so the slot is always
            # freed; the *result* is sent even for superseded attempts (a
            # real worker cannot know it was re-dispatched) and
            # deduplicated at the agent — first completion wins
            # (at-least-once semantics).
            manager.running.discard(row)
            results.append(row)
            # The freed slot's capacity becomes visible to the agent after
            # an advertisement round trip; a queued (prefetched) task
            # starts now.
            if manager.queue:
                queued = manager.queue.popleft()
                started[queued] = now
                manager.running.add(queued)
                runtime = run_of(queued).duration + overhead
                if runtime == refill:
                    flush()
                starting.append((runtime, (queued, manager)))
            else:
                manager.idle += 1
            freed.append(manager)
        flush()

    def _return_credits(self, wave: list[_SimManager]) -> None:
        cap = self._initial_credit(wave[0].workers)  # all managers have equal workers
        for manager in wave:
            if not manager.alive:
                continue
            if manager.credit == 0:
                self._ready.append(manager)
            if manager.credit < cap:
                manager.credit += 1
            if not self._agent_busy:
                self._try_dispatch()

    def _results_at_agent(self, wave: list[int]) -> None:
        now = self.loop.now
        table, outstanding = self.tasks, self._outstanding
        completed, order = table.completed, table.order
        for row in wave:
            outstanding.pop(row, None)
            if completed[row] >= 0:
                continue  # duplicate result from a superseded attempt
            if self.memoize and (key := table.memo_key(row)) is not None:
                self._memo_cache.add(key)
            completed[row] = now
            order.append(row)

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
        attempts = self.tasks.attempts
        lost = [(row, attempts[row]) for row, m in self._outstanding.items()
                if m is manager]
        for row, _attempt in lost:
            del self._outstanding[row]
        manager.running.clear()
        manager.queue.clear()
        manager.idle = 0
        manager.credit = 0
        # The watchdog notices after the heartbeat grace period and
        # re-executes the tracked tasks (§4.3).
        self.loop.schedule(self.detection_delay, self._reexecute, lost)

    def _reexecute(self, tasks: list[tuple[int, int]]) -> None:
        table = self.tasks
        for row, attempt_at_loss in tasks:
            if table.completed[row] >= 0:
                continue
            if table.attempts[row] != attempt_at_loss:
                continue  # another recovery path already re-dispatched it
            self.reexecutions += 1
            self.pending.appendleft(row)
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
        attempts = self.tasks.attempts
        lost = [(row, attempts[row]) for row in self._outstanding]
        self._outstanding.clear()
        for manager in self.managers:
            manager.running.clear()
            manager.queue.clear()
            manager.idle = 0
            manager.credit = 0
        lost.extend((row, attempts[row]) for row in self.pending)
        self.pending.clear()
        # The forwarder requeues outstanding tasks after missing
        # heartbeats (§4.1); they re-enter once the endpoint returns.
        self.loop.schedule(self.detection_delay, self._hold_at_service, lost)

    def _hold_at_service(self, tasks: list[tuple[int, int]]) -> None:
        # The forwarder's requeue sweep may land after the endpoint has
        # already recovered — route straight back to dispatch in that case.
        table = self.tasks
        for row, attempt_at_loss in tasks:
            if table.completed[row] >= 0:
                continue
            if table.attempts[row] != attempt_at_loss:
                continue  # already re-dispatched by another recovery path
            if self.endpoint_alive:
                self.pending.append(row)
                self.reexecutions += 1
            else:
                self._service_held.append(row)
        if self.endpoint_alive:
            self._try_dispatch()

    def _recover_endpoint(self) -> None:
        self.endpoint_alive = True
        for manager in self.managers:
            manager.alive = True
            manager.idle = manager.workers
            manager.credit = self._initial_credit(manager.workers)
        self._ready = deque(self.managers)
        completed = self.tasks.completed
        while self._service_held:
            row = self._service_held.popleft()
            if completed[row] < 0:
                self.pending.append(row)
                self.reexecutions += 1
        self._try_dispatch()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> SimReport:
        """Run the simulation to completion (or a horizon) and report."""
        self.loop.run(until=until, max_events=max_events)
        table = self.tasks
        order = np.array(table.order, dtype=np.intp)
        completions = np.array(table.completed, dtype=float)[order]
        sizes = np.diff([*table.starts, len(table)])
        created = np.repeat([run.created for run in table.runs], sizes)
        latencies = completions - created[order]
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
