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
  map, and incrementally-maintained counters (open tasks,
  per-endpoint outstanding, retained payload bytes) so the hot paths
  that used to scan the global task table are O(1).  Bytes and records
  leave here: arguments at the terminal state, results on the ack of
  the record's last stream reader, the record ``result_ttl`` later.
* :class:`RetiredRows` — where a finished record goes, at its last
  stream reader's ack or, unread, with a batch of :data:`RETIRE_BATCH`
  (keeping its result bytes): one packed row of ~230 B instead of a
  :class:`~repro.core.tasks.Task`, read back as a fresh ``Task`` view.

The facade (:class:`~repro.core.service.FuncXService`) owns every
policy decision (auth, validation, memoization, completion semantics)
and the one result stream that reads every shard; a shard is pure
partitioned state + accounting, and runs no thread.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
import zlib
from array import array
from itertools import chain
from operator import attrgetter
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


#: The states a row holds, by state code (-1 marks a dead row), and each
#: code's ten timeline slots in the order a tiny task stamps them.
_TERMINAL = (TaskState.SUCCESS, TaskState.FAILED, TaskState.CANCELLED)
_SLOTS = tuple(("received", "queued", "dispatched", state.value, "agent_in",
                "agent_out", "manager_in", "manager_out", "running",
                "worker_out") for state in _TERMINAL)
_SLOT_SETS = tuple(map(frozenset, _SLOTS))
_NANS = (math.nan,) * 10
#: The ``Task`` fields kept in a column each, with their typecodes; the
#: last is the row's deadline.
_FIELDS = {"memo_hit": "b", "attempts": "i", "payload_size": "q",
           "result_size": "q", "execution_time": "d", "expires_at": "d"}
_fields = attrgetter(*_FIELDS)
_shape = attrgetter("function_id", "endpoint_id", "owner_id",
                    "container_image", "max_retries")


def _row_key(task_id: str, suffix: str) -> int | str:
    """A row's key: the uuid of an id minted with the shard's tag
    ``suffix`` as an int, any other id as itself."""
    if task_id[36:] == suffix and task_id[8:24:5] == "----":
        h = task_id[:36].replace("-", "")
        try:
            key = int(h, 16)
        except ValueError:
            return task_id
        if "%032x" % key == h:  # lowercase, no sign, prefix or "_"
            return key
    return task_id


def _row_id(key: int | str, suffix: str) -> str:
    if isinstance(key, str):
        return key
    h = "%032x" % key
    return f"{h[:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:]}{suffix}"


#: Records no stream reads retire to rows this many at a time.
RETIRE_BATCH = 256


class RetiredRows:
    """One shard's finished records, a packed row each.

    A record moves here from the shard's table when its last stream
    reader acks it, or in a batch when no stream reads it: its uuid
    packed into an int key, ``array`` columns (state, :data:`_FIELDS`,
    a ten-stamp timeline with NaN for a missing stamp), an index into
    interned ``(function, endpoint, owner, image, retries)`` shapes, a
    sparse side entry for the rare rest (``last_*`` stamps,
    ``exception_text``, ``metadata``) and a side map for result bytes
    not yet released, with a count of the late watches reading them.
    Readers get a fresh read-only :class:`Task` view.  The index is in
    expiry order: its due prefix is popped and a re-arm reinserts, so a
    row joining at its ack (or with its batch) expires up to that delay
    late.  Used only under the owning shard's lock.
    """

    #: Compact once this many rows are dead and they are half the rows.
    COMPACT_AT = 4096

    def __init__(self, suffix: str):
        self._suffix = suffix
        self._index: dict[int | str, int] = {}  # key -> row, expiry order
        self._shapes: dict[tuple, int] = {}  # shape -> its index
        self._shape_list: list[tuple] = []  # index -> shape
        self._sparse: dict[int | str, tuple[dict, str | None, dict]] = {}
        self._results: dict[int | str, bytes] = {}  # key -> result bytes
        self._readers: dict[int | str, int] = {}  # key -> late watches
        self.held = 0  # bytes in ``_results``  # guarded-by: ServiceShard._lock
        self._state, self._shape, self._times = (
            array("b"), array("i"), array("d"))
        self._columns = tuple(map(array, _FIELDS.values()))

    def retire(self, tasks: list[Task]) -> None:  # guarded-by: ServiceShard._lock
        """Append a row per terminal record, a column at a time."""
        keys = [_row_key(task.task_id, self._suffix) for task in tasks]
        held = {key: task.result_buffer for key, task in zip(keys, tasks)
                if task.result_buffer is not None}
        self._results.update(held)
        self.held += sum(map(len, held.values()))
        start = len(self._state)
        self._index.update(zip(keys, range(start, start + len(keys))))
        shapes = self._shapes
        ids = list(map(shapes.get, map(_shape, tasks)))
        if None in ids:
            ids = [shapes.setdefault(shape, len(shapes))
                   for shape in map(_shape, tasks)]
            self._shape_list[:] = shapes
        codes = [0 if task.state is _TERMINAL[0]
                 else 1 if task.state is _TERMINAL[1] else 2 for task in tasks]
        for task, code, key in zip(tasks, codes, keys):
            stamps, slots = task.state_times, _SLOT_SETS[code]
            if (task.exception_text is not None or task.metadata
                    or not stamps.keys() <= slots):
                self._sparse[key] = (
                    {k: at for k, at in stamps.items() if k not in slots},
                    task.exception_text, task.metadata)
        # ``fromlist`` sizes a column once; ``extend`` grows it per item.
        self._times.fromlist([at for task, code in zip(tasks, codes) for at in
                              map(task.state_times.get, _SLOTS[code], _NANS)])
        self._state.fromlist(codes)
        self._shape.fromlist(ids)
        for column, values in zip(self._columns, zip(*map(_fields, tasks))):
            column.fromlist([*values])

    def view(self, task_id: str) -> Task | None:
        """A fresh ``Task`` for a retired id; ``None`` for any other."""
        key = _row_key(task_id, self._suffix)
        row = self._index.get(key)
        if row is None:
            return None
        code = self._state[row]
        stamps, text, metadata = self._sparse.get(key, ({}, None, {}))
        times = {slot: at for slot, at in zip(
            _SLOTS[code], self._times[row * 10:row * 10 + 10]) if at == at}
        function_id, endpoint_id, owner_id, image, retries = \
            self._shape_list[self._shape[row]]
        task = Task(function_id, endpoint_id, b"", image, owner_id, task_id,
                    _TERMINAL[code], retries, state_times=times | stamps,
                    result_buffer=self._results.get(key),
                    exception_text=text, metadata=metadata)
        for field, column in zip(_FIELDS, self._columns):
            setattr(task, field, column[row])
        task.memo_hit = bool(task.memo_hit)
        return task

    def views(self) -> list[Task | None]:
        return [self.view(_row_id(key, self._suffix)) for key in self._index]

    def count_states(self, counts: dict[str, int]) -> None:
        """Add the rows of each state to ``counts``."""
        for code, state in enumerate(_TERMINAL):
            counts[state.value] += self._state.count(code)

    def watch(self, task_id: str) -> None:
        """A late stream watch: a reader of the row's bytes, if it has any."""
        key = _row_key(task_id, self._suffix)
        if key in self._results:
            self._readers[key] = self._readers.get(key, 0) + 1

    def unwatch(self, task_id: str, release: bool) -> int:  # guarded-by: ServiceShard._lock
        """A late watch is done; returns the bytes its ack released, as
        the last reader (0 for anything else)."""
        key = _row_key(task_id, self._suffix)
        readers = self._readers.pop(key, 0) - 1
        if readers > 0:
            self._readers[key] = readers
        elif readers == 0 and release:
            self.held -= (freed := len(self._results.pop(key)))
            return freed
        return 0

    def rearm(self, task_id: str, deadline: float) -> None:
        """A retrieval: the row now expires at ``deadline``, last in order."""
        key = _row_key(task_id, self._suffix)
        row = self._index.pop(key, None)
        if row is not None:
            self._index[key] = row
            self._columns[-1][row] = deadline

    def pop(self, task_id: str) -> Task | None:
        """Remove a retired id's row; returns its view."""
        task = self.view(task_id)
        if task is not None:
            self._remove([_row_key(task_id, self._suffix)])
        return task

    def expire(self, now: float) -> tuple[list[str], float]:
        """Remove the due prefix of the index; returns its task ids and
        the next deadline (``inf`` when no row is left)."""
        deadlines, due, upcoming = self._columns[-1], [], math.inf
        for key, row in self._index.items():
            if deadlines[row] > now:
                upcoming = deadlines[row]
                break
            due.append(key)
        self._remove(due)
        return [_row_id(key, self._suffix) for key in due], upcoming

    def _remove(self, keys: list[int | str]) -> None:  # guarded-by: ServiceShard._lock
        for key in keys:
            self._state[self._index.pop(key)] = -1
            self._sparse.pop(key, None)
            self._readers.pop(key, None)
            self.held -= len(self._results.pop(key, b""))
        dead = len(self._state) - len(self._index)
        if dead > self.COMPACT_AT and 2 * dead >= len(self._state):
            # Drop the dead rows in place; the live ones keep their order.
            keys, rows = list(self._index), list(self._index.values())
            for column in (self._state, self._shape, self._times, *self._columns):
                width = 10 if column is self._times else 1
                column[:] = array(column.typecode, chain.from_iterable(
                    column[row * width:row * width + width] for row in rows))
            self._index.update(zip(keys, range(len(keys))))


class ServiceShard:
    """One partition of the service plane's task state.

    Owns the task table, its :class:`RetiredRows`, the per-endpoint
    task queues, the expiry map and an O(1) accounting block; no thread.  All
    mutation goes through the facade, which routes by
    :class:`ShardMap`; the shard enforces nothing but its own
    bookkeeping invariant::

        open == received - terminated - forgotten_open

    emitted on every mutation as a ``shard.accounting`` event on the
    service's spine so the chaos layer can check it per-shard and across
    shards.
    """

    _GUARDED = {
        "_tasks": "_lock",
        "_task_queues": "_lock",
        "_outstanding": "_lock",
        "_received": "_lock",
        "_terminated": "_lock",
        "_forgotten_open": "_lock",
        "_open": "_lock",
        "_retained": "_lock",
        "_deadlines": "_lock",
        "_due": "_lock",
        "_rows": "_lock",
        "_unread": "_lock",
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
        # task id -> deadline of each armed record still held as a Task,
        # in deadline order since the clock only moves forward and
        # ``result_ttl`` is one constant: a re-arm deletes and reinserts.
        self._deadlines: dict[str, float] = {}
        self._rows = RetiredRows(f"{_SHARD_TAG}{index}")
        self._unread: dict[str, Task] = {}  # finished, no reader, in order
        self._due = math.inf  # no later than the earliest deadline
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
        """The records for ``task_ids``, in order; ``None`` where unknown
        (a retired id reads as a fresh view of its row)."""
        with self._lock:
            return [task if (task := self._tasks.get(task_id)) is not None
                    else self._rows.view(task_id) for task_id in task_ids]

    def pop_task(self, task_id: str) -> Task | None:
        """Remove a task record (forget path); fixes up open counters."""
        with self._lock:
            return self._drop(task_id, "forget")

    def _drop(self, task_id: str, cause: str) -> Task | None:  # guarded-by: self._lock
        """The one way a record leaves the table (forget or expiry)."""
        task = self._tasks.pop(task_id, None)
        if task is None:
            task = self._rows.pop(task_id)
            if task is None:
                return None
        elif not task.state.terminal:
            # Forgetting an open task removes it from the conserved
            # population — tracked separately so the accounting
            # identity still closes.
            self._forgotten_open += 1
            self._open -= 1
            self._dec_outstanding(task.endpoint_id)
        else:
            self._deadlines.pop(task_id, None)
            self._unread.pop(task_id, None)
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
                task = self._rows.view(task_id)
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
            tasks = [task if (task := self._tasks.get(task_id)) is not None
                     else self._rows.view(task_id) for task_id in task_ids]
            minted = self.service.shard_map.minted
            for task_id, task in zip(task_ids, tasks):
                if task is None and not minted(task_id):
                    raise TaskNotFound(task_id)
            ready: list[str] = []
            for task_id, task in zip(task_ids, tasks):
                if task is not None:
                    task.readers += 1  # a row's view drops it; the row counts
                    if task_id not in self._tasks:
                        self._rows.watch(task_id)
                    elif self._unread:
                        self._unread.pop(task_id, None)  # retires on its ack
                if task is None or not self._park(task, callback):
                    ready.append(task_id)
        return ready

    def unwatch(self, task_ids: Iterable[str], release: bool) -> None:
        """Each record loses a reader; with ``release`` (an ack) the
        result bytes of a record left without one go, and the record
        becomes a row of :class:`RetiredRows` until it expires.  Without
        (a close), a finished record left without a reader joins
        ``_unread`` and retires with it, keeping its bytes."""
        released = 0
        retiring: list[Task] = []
        with self._lock:
            tasks, deadlines = self._tasks, self._deadlines
            for task_id in task_ids:
                task = tasks.get(task_id)
                if task is None:  # a row, or gone
                    freed = self._rows.unwatch(task_id, release)
                    self._retained -= freed
                    released += freed > 0
                    continue
                task.readers -= 1
                if task.readers:
                    continue
                if not release:
                    if task.expires_at is not None:
                        self._unread[task_id] = task
                    continue
                if task.result_buffer is not None:
                    self._retained -= task.result_size
                    task.result_buffer = None
                    released += 1
                if task.expires_at is not None:
                    del tasks[task_id], deadlines[task_id]
                    retiring.append(task)
            if retiring:
                self._rows.retire(retiring)
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
        rate times ``result_ttl`` with no thread and no timer.  A record no
        stream reads joins ``_unread``, retired with ``RETIRE_BATCH`` by
        the wave that finds them there: before its own records join, so
        its waiters read live records.  Returns each waiter of the wave
        with its tasks, for the caller to call once it holds no lock."""
        count = 0
        waiting: dict[Waiter, list[Task]] = {}
        events = self._events
        with self._lock:
            now = self._clock()
            unread = self._unread
            if len(unread) >= RETIRE_BATCH:
                for task_id in unread:
                    del self._tasks[task_id], self._deadlines[task_id]
                self._rows.retire([*unread.values()])
                unread.clear()
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
                if not task.readers:
                    unread[task.task_id] = task
                count += 1
                if events:
                    events.emit("shard", "shard.accounting",
                                self._accounting("terminal", task.task_id))
            due = self._due <= now
        self._c_terminated.inc(count)
        if due:
            self.sweep()
        return waiting

    def _arm(self, task: Task, now: float) -> None:  # guarded-by: self._lock
        task.expires_at = deadline = now + self.service.config.result_ttl
        self._deadlines[task.task_id] = deadline
        if deadline < self._due:
            self._due = deadline

    def sweep(self) -> int:
        """Drop every expired terminal record; returns how many."""
        with self._lock:
            now = self._clock()
            due: list[str] = []
            for task_id, deadline in self._deadlines.items():
                if deadline > now:
                    break
                due.append(task_id)
            for task_id in due:
                self._drop(task_id, "expire")
            held = self._rows.held
            retired, upcoming = self._rows.expire(now)
            self._retained -= held - self._rows.held
            if self._events:
                for task_id in retired:
                    self._events.emit("shard", "shard.accounting",
                                      self._accounting("expire", task_id))
            self._due = min(next(iter(self._deadlines.values()), math.inf),
                            upcoming)
        expired = len(due) + len(retired)
        self._c_expired.inc(expired)
        return expired

    def note_retrieved(self, task: Task) -> None:
        """``get_result`` read a terminal task: its record now expires
        ``result_ttl`` after this retrieval."""
        with self._lock:
            if task.expires_at is None:
                return
            if self._deadlines.pop(task.task_id, None) is not None:
                self._arm(task, self._clock())
            else:  # retired, or gone
                self._rows.rearm(task.task_id, self._clock()
                                 + self.service.config.result_ttl)

    def _dec_outstanding(self, endpoint_id: str) -> None:  # guarded-by: self._lock
        count = self._outstanding.get(endpoint_id, 0) - 1
        if count > 0:
            self._outstanding[endpoint_id] = count
        else:
            self._outstanding.pop(endpoint_id, None)

    def iter_tasks(self) -> list[Task]:
        with self._lock:
            return list(self._tasks.values()) + self._rows.views()

    def count_states(self, counts: dict[str, int]) -> None:
        """Add this shard's records of each state to ``counts``."""
        with self._lock:
            for task in self._tasks.values():
                counts[task.state.value] += 1
            self._rows.count_states(counts)

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

        Models the shard process dying: forwarder leases vanish through
        the service's one requeue call, records back to QUEUED, and the
        ready backlog survives in the partition's durable queues.
        Returns the number of leases yanked.
        """
        with self._lock:
            self.draining = True
            queues = list(self._task_queues.items())
        yanked = 0
        for endpoint_id, queue in queues:
            leased = queue.leased()
            self.service.requeue_tasks(endpoint_id, leased,
                                       f"shard-{self.index}-killed")
            yanked += len(leased)
        return yanked

    def restart(self) -> None:
        """Chaos exit: accept submissions again and wake consumers."""
        with self._lock:
            self.draining = False
            queues = list(self._task_queues.values())
        for queue in queues:
            # Consumers may have gone idle while the shard was down.
            queue._fire_wakeup()
