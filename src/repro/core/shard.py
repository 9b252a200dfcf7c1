"""The sharded service plane: shard map and per-shard state.

The hosted funcX service scaled by partitioning its Redis-backed task
state and running one forwarder per partition (journal paper §5).  This
module is that partitioning for the reproduction:

* :class:`ShardMap` — a consistent-hash ring placing *endpoints* on
  shards (so one endpoint's task queue and task records live wholly on
  one shard and its forwarder drains exactly one partition), plus O(1)
  task-id routing: every task id minted by the facade carries a
  ``-s<shard>`` suffix, so status/result/ack paths jump straight to the
  owning shard without a directory lookup.
* :class:`ServiceShard` — one partition: its own lock, task table,
  per-endpoint task :class:`~repro.store.queues.ReliableQueue`, expiry
  deque, and incrementally-maintained counters (open tasks,
  per-endpoint outstanding, retained payload bytes) so the hot paths
  that used to scan the global task table are O(1).  Bytes and records
  leave here: arguments at the terminal state, results on the ack of
  the record's last stream reader, the record ``result_ttl`` later.

The facade (:class:`~repro.core.service.FuncXService`) owns every
policy decision (auth, validation, memoization, completion semantics)
and the one result stream that reads every shard; a shard is pure
partitioned state + accounting, and runs no thread.
"""

from __future__ import annotations

import bisect
import threading
import time
import zlib
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.core.tasks import Task, TaskState, Waiter
from repro.errors import TaskNotFound
from repro.store.queues import FairReliableQueue, ReliableQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.service import FuncXService

#: Virtual nodes per shard on the consistent-hash ring: enough to keep
#: endpoint placement within a few percent of even at small shard counts.
VNODES = 64

#: Separator between a task's uuid and its shard tag.  uuid4 hex never
#: contains ``s``, so scanning from the right is unambiguous.
_SHARD_TAG = "-s"


def _ring_hash(key: str) -> int:
    """Stable 32-bit hash (crc32): identical placement across runs and
    processes, unlike the salted builtin ``hash``."""
    return zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF


class ShardMap:
    """Consistent-hash placement of endpoints (and untagged keys) on shards.

    Immutable after construction — the shard count is a deployment
    parameter, not a runtime elasticity axis, so no rebalancing or
    ring mutation is needed (or supported).
    """

    def __init__(self, shards: int, vnodes: int = VNODES):
        if shards < 1:
            raise ValueError("shard count must be >= 1")
        self.shards = shards
        points: list[tuple[int, int]] = []
        for index in range(shards):
            for vnode in range(vnodes):
                points.append((_ring_hash(f"shard-{index}:vn{vnode}"), index))
        points.sort()
        self._ring_keys = [p[0] for p in points]
        self._ring_vals = [p[1] for p in points]

    def _lookup(self, key: str) -> int:
        position = bisect.bisect(self._ring_keys, _ring_hash(key))
        if position == len(self._ring_keys):
            position = 0  # wrap around the ring
        return self._ring_vals[position]

    def shard_for_endpoint(self, endpoint_id: str) -> int:
        """The shard owning an endpoint's queues (and all of its tasks)."""
        return self._lookup(endpoint_id)

    def shard_for_task(self, task_id: str) -> int:
        """O(1) route from a task id to its owning shard.

        Ids minted by the facade carry a ``-s<shard>`` suffix; foreign
        ids (hand-built tests, pre-shard artifacts) fall back to the
        ring, which is deterministic — an unknown id misses consistently
        on the same shard and surfaces as ``TaskNotFound``.
        """
        base, sep, suffix = task_id.rpartition(_SHARD_TAG)
        if sep and base and suffix.isdigit():
            index = int(suffix)
            if index < self.shards:
                return index
        return self._lookup(task_id)

    def minted(self, task_id: str) -> bool:
        """Whether ``task_id`` carries the tag of the shard it routes to:
        the facade minted it, so a record existed under it once."""
        return task_id.endswith(
            f"{_SHARD_TAG}{self.shard_for_task(task_id)}")

    def tag(self, task_id: str, shard_index: int) -> str:
        """Embed the owning shard into a freshly-minted task id."""
        return f"{task_id}{_SHARD_TAG}{shard_index}"


class ServiceShard:
    """One partition of the service plane's task state.

    Owns the task table, the per-endpoint task queues, the expiry deque
    and an O(1) accounting block; no thread.  All
    mutation goes through the facade, which routes by
    :class:`ShardMap`; the shard enforces nothing but its own
    bookkeeping invariant::

        open == received - terminated - forgotten_open

    emitted on every mutation as a ``shard.accounting`` event on the
    service's spine so the chaos layer can check it per-shard and across
    shards.
    """

    # Queue-map creation and drain/kill administration race from
    # multiple client/admin threads that all classify as role "main";
    # those locks are load-bearing even though role inference sees a
    # single role (the waived entries below).
    _GUARDED = {
        "_tasks": "_lock",
        "_task_queues": "_lock",  # lint: ignore[threadroles]
        "_outstanding": "_lock",
        "_received": "_lock",
        "_terminated": "_lock",
        "_forgotten_open": "_lock",
        "_open": "_lock",
        "_retained": "_lock",
        "_expiry": "_lock",
    }

    def __init__(
        self,
        index: int,
        service: "FuncXService",
        clock: Callable[[], float] | None = None,
    ):
        self.index = index
        self.service = service
        self._events = service.events
        self._clock = clock or time.monotonic  # clock-domain: monotonic
        self._lock = threading.RLock()
        self._tasks: dict[str, Task] = {}
        self._task_queues: dict[str, ReliableQueue] = {}
        # O(1) accounting (satellite: the old tasks.open gauge and
        # outstanding_tasks() both scanned the full task table).
        self._received = 0
        self._terminated = 0
        self._forgotten_open = 0
        self._open = 0
        self._outstanding: dict[str, int] = {}  # endpoint_id -> open tasks
        self._retained = 0  # argument + result bytes the records hold
        # (deadline, task_id), in deadline order since the clock only
        # moves forward and ``result_ttl`` is one constant.  An entry is
        # live while it equals its record's ``expires_at``: a retrieval
        # re-arms the record and strands the older entry.
        self._expiry: deque[tuple[float, str]] = deque()
        # Submitting threads read this while chaos/admin threads flip
        # it; both classify as role "main", so the lock is load-bearing
        # even though role inference sees a single role.
        self.draining = False  # guarded-by: self._lock  # lint: ignore[threadroles]
        metrics = service.metrics
        self._c_received = metrics.counter("shard.tasks_received",
                                           shard=str(index))
        self._c_terminated = metrics.counter("shard.tasks_terminated",
                                             shard=str(index))
        metrics.gauge("shard.open_tasks", shard=str(index)).set_function(
            self.open_tasks)
        metrics.gauge("service.retained_bytes", shard=str(index)).set_function(
            self.retained_bytes)
        self._c_purged = metrics.counter("service.results_purged")
        self._c_expired = metrics.counter("service.records_expired")

    # -- observation ---------------------------------------------------------
    def _accounting(self, cause: str, task_id: str) -> dict[str, Any]:  # guarded-by: self._lock
        """A ``shard.accounting`` snapshot (caller holds the lock)."""
        return {
            "shard": self.index,
            "cause": cause,
            "received": self._received,
            "terminated": self._terminated,
            "forgotten_open": self._forgotten_open,
            "open": self._open,
            "task_id": task_id,
        }

    # -- task table ----------------------------------------------------------
    # The table is the paper's Redis task hash: the one place a task
    # record lives.  Its entry points take the wave their caller was
    # handed (a lone task is a wave of one) and hold the lock once.
    def insert_tasks(self, tasks: list[Task]) -> None:
        events = self._events
        with self._lock:
            for task in tasks:
                self._tasks[task.task_id] = task
                self._received += 1
                self._open += 1
                self._retained += task.payload_size
                self._outstanding[task.endpoint_id] = (
                    self._outstanding.get(task.endpoint_id, 0) + 1)
                if events:
                    events.emit("shard", "shard.accounting",
                                self._accounting("insert", task.task_id))
        self._c_received.inc(len(tasks))

    def get_tasks(self, task_ids: Iterable[str]) -> list[Task | None]:
        """The records for ``task_ids``, in order; ``None`` where unknown."""
        with self._lock:
            return [self._tasks.get(task_id) for task_id in task_ids]

    def pop_task(self, task_id: str) -> Task | None:
        """Remove a task record (forget path); fixes up open counters."""
        with self._lock:
            return self._drop(task_id, "forget")

    def _drop(self, task_id: str, cause: str) -> Task | None:  # guarded-by: self._lock
        """The one way a record leaves the table (forget or expiry)."""
        task = self._tasks.pop(task_id, None)
        if task is None:
            return None
        if not task.state.terminal:
            # Forgetting an open task removes it from the conserved
            # population — tracked separately so the accounting
            # identity still closes.
            self._forgotten_open += 1
            self._open -= 1
            self._dec_outstanding(task.endpoint_id)
        self._retained -= len(task.payload_buffer)
        if task.expires_at is not None and task.result_buffer is not None:
            self._retained -= task.result_size
        if self._events:
            self._events.emit("shard", "shard.accounting",
                              self._accounting(cause, task_id))
        return task

    def when_terminal(self, task_id: str, callback: Waiter) -> None:
        """Call ``callback([task])`` once, when the task is terminal: from
        the completing wave (:meth:`note_terminal` hands it back), or
        here and now if that wave has already been through.  The test is
        the expiry it armed, not ``state.terminal`` — the state is
        written before the wave takes this lock, and a waiter arriving
        in between rides the wave (so it runs after the tenant's quota
        is back) instead of being called early.  Raises
        :class:`TaskNotFound` for a record that has left the table."""
        with self._lock:
            task = self._tasks.get(task_id)
            if task is None:
                raise TaskNotFound(task_id)
            if self._park(task, callback):
                return
        callback([task])

    def _park(self, task: Task, callback: Waiter) -> bool:  # guarded-by: self._lock
        """Leave ``callback`` on ``task`` for its completing wave; False
        once that wave has been through."""
        if task.expires_at is not None:
            return False
        if task.waiters is None:
            task.waiters = []
        task.waiters.append(callback)
        return True

    def watch(self, task_ids: list[str], callback: Waiter) -> list[str]:
        """A stream watch of ``task_ids``, under one lock hold: each
        record gains a reader and, as in :meth:`when_terminal`, the
        waiter ``callback``.  Returns the ids ready now: records whose
        wave has been through, and ids this plane minted whose record
        has since left.  Raises :class:`TaskNotFound`, registering
        nothing, for a missing id it never minted."""
        with self._lock:
            tasks = [self._tasks.get(task_id) for task_id in task_ids]
            minted = self.service.shard_map.minted
            for task_id, task in zip(task_ids, tasks):
                if task is None and not minted(task_id):
                    raise TaskNotFound(task_id)
            ready: list[str] = []
            for task_id, task in zip(task_ids, tasks):
                if task is not None:
                    task.readers += 1
                if task is None or not self._park(task, callback):
                    ready.append(task_id)
        return ready

    def unwatch(self, task_ids: Iterable[str], release: bool) -> None:
        """Each record loses a reader; with ``release`` (an ack) the
        result bytes of a record left without one go, and the record
        stays until it expires."""
        released = 0
        with self._lock:
            for task_id in task_ids:
                task = self._tasks.get(task_id)
                if task is None:
                    continue
                task.readers -= 1
                if (release and not task.readers
                        and task.result_buffer is not None):
                    self._retained -= task.result_size
                    task.result_buffer = None
                    released += 1
        self._c_purged.inc(released)

    def withdraw(self, task: Task, callback: Waiter) -> None:
        """A waiter gave up (its timeout ran out); a no-op once fired."""
        with self._lock:
            if task.waiters is not None and callback in task.waiters:
                task.waiters.remove(callback)
                if not task.waiters:
                    task.waiters = None

    def note_terminal(self, tasks: Iterable[Task]) -> dict[Waiter, list[Task]]:
        """Called exactly once per task, when it first reaches a
        terminal state (complete / fail / cancel).  The argument buffer
        goes (nothing dispatches a terminal task), the result buffer
        starts counting, the record is given its expiry — and the wave
        sweeps what has expired, so the table is bounded by completion
        rate times ``result_ttl`` with no thread and no timer.  Returns
        each waiter of the wave with its tasks, for the caller to call
        once it holds no lock — once per waiter."""
        count = 0
        waiting: dict[Waiter, list[Task]] = {}
        events = self._events
        with self._lock:
            now = self._clock()
            for task in tasks:
                if task.waiters is not None:
                    for waiter in task.waiters:
                        waiting.setdefault(waiter, []).append(task)
                    task.waiters = None
                if task.task_id not in self._tasks:
                    continue  # forgotten while completing; already accounted
                self._terminated += 1
                self._open -= 1
                self._dec_outstanding(task.endpoint_id)
                self._retained -= len(task.payload_buffer)
                task.payload_buffer = b""
                if task.result_buffer is not None:
                    self._retained += task.result_size
                self._arm(task, now)
                count += 1
                if events:
                    events.emit("shard", "shard.accounting",
                                self._accounting("terminal", task.task_id))
            due = bool(self._expiry) and self._expiry[0][0] <= now
        self._c_terminated.inc(count)
        if due:
            self.sweep()
        return waiting

    def _arm(self, task: Task, now: float) -> None:  # guarded-by: self._lock
        task.expires_at = deadline = now + self.service.config.result_ttl
        self._expiry.append((deadline, task.task_id))

    def sweep(self) -> int:
        """Drop every expired terminal record; returns how many."""
        expired = 0
        with self._lock:
            expiry = self._expiry
            now = self._clock()
            while expiry and expiry[0][0] <= now:
                deadline, task_id = expiry.popleft()
                task = self._tasks.get(task_id)
                if task is not None and task.expires_at == deadline:
                    self._drop(task_id, "expire")
                    expired += 1
        self._c_expired.inc(expired)
        return expired

    def note_retrieved(self, task: Task) -> None:
        """``get_result`` read a terminal task: its record now expires
        ``result_ttl`` after this retrieval."""
        with self._lock:
            if task.expires_at is not None:
                self._arm(task, self._clock())

    def _dec_outstanding(self, endpoint_id: str) -> None:  # guarded-by: self._lock
        count = self._outstanding.get(endpoint_id, 0) - 1
        if count > 0:
            self._outstanding[endpoint_id] = count
        else:
            self._outstanding.pop(endpoint_id, None)

    def iter_tasks(self) -> list[Task]:
        with self._lock:
            return list(self._tasks.values())

    # -- O(1) accounting reads ----------------------------------------------
    def open_tasks(self) -> int:
        with self._lock:
            return self._open

    def outstanding(self, endpoint_id: str) -> int:
        with self._lock:
            return self._outstanding.get(endpoint_id, 0)

    def retained_bytes(self) -> int:
        with self._lock:
            return self._retained

    def counters(self) -> dict[str, int]:
        """Accounting snapshot (cross-shard conservation checks)."""
        with self._lock:
            return {
                "received": self._received,
                "terminated": self._terminated,
                "forgotten_open": self._forgotten_open,
                "open": self._open,
            }

    # -- endpoint queues ------------------------------------------------------
    def add_endpoint(
        self,
        endpoint_id: str,
        weight_for: Callable[[str], float] | None = None,
    ) -> None:
        """Allocate the endpoint's task queue on this shard.

        The task queue is lane-fair: submissions are tagged with the
        tenant id and dequeued deficit-round-robin so one tenant cannot
        monopolize a shared endpoint.
        """
        with self._lock:
            self._task_queues[endpoint_id] = FairReliableQueue(
                name=f"tasks:{endpoint_id}", clock=self._clock,
                weight_for=weight_for, events=self._events)

    def task_queue(self, endpoint_id: str) -> ReliableQueue:
        with self._lock:
            queue = self._task_queues.get(endpoint_id)
        if queue is None:
            raise TaskNotFound(f"task queue for endpoint {endpoint_id}")
        return queue

    # -- lifecycle ------------------------------------------------------------
    def drain(self) -> None:
        """Refuse new submissions; in-flight work keeps dispatching."""
        with self._lock:
            self.draining = True

    def kill(self) -> int:
        """Chaos entry: drain, then yank every outstanding queue lease.

        Models the shard process dying: forwarder leases vanish (their
        later acks are rejected harmlessly) and the ready backlog
        survives in the partition's durable queues.  Returns the number
        of leases yanked.
        """
        with self._lock:
            self.draining = True
            queues = list(self._task_queues.values())
        yanked = 0
        for queue in queues:
            yanked += queue.nack_all()
        # The yanked task-queue entries go back to the ready backlog, so
        # any task caught mid-dispatch must roll back to QUEUED — a
        # redelivering forwarder re-marks dispatch, and DISPATCHED ->
        # DISPATCHED is an illegal transition.
        now = self._clock()
        with self._lock:
            in_flight = [task for task in self._tasks.values()
                         if task.state in (TaskState.DISPATCHED,
                                           TaskState.RUNNING)]
        for task in in_flight:
            task.advance(TaskState.QUEUED, now)
            task.metadata.setdefault("requeue_reasons", []).append(
                f"shard-{self.index}-killed")
        return yanked

    def restart(self) -> None:
        """Chaos exit: accept submissions again and wake consumers."""
        with self._lock:
            self.draining = False
            queues = list(self._task_queues.values())
        for queue in queues:
            # Consumers may have gone idle while the shard was down.
            queue._fire_wakeup()
