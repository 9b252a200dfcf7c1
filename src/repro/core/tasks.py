"""Task model and lifecycle (paper figure 3).

A *task* is one invocation of a registered function.  Its path is:

1. received by the web service and stored in its shard's task table
   (the Redis task-hash substitute);
2. queued on the target endpoint's task queue;
3. dispatched by the forwarder to the connected agent;
4. executed in a container by a worker;
5. result returned through the forwarder;
6. result stored for retrieval (then purged).

``Task.state_times`` is the task's one timeline: the service stamps its
own transitions, and the winning result brings the agent, manager and
worker stamps (:func:`hop_stamps`), so the latency breakdown (figure 4)
reads ts/tf/te/tw and the per-component :data:`STAGES` off the record.
A finished record stays in its shard for ``result_ttl``, so it stamps
each state once (a re-entry adds ``last_<state>``), keeps
``execution_time`` as a field and an empty ``metadata``; then the shard
keeps it as a packed row (:class:`~repro.core.shard.RetiredRows`), once
a stream ack releases its result or, unread, with its batch, and builds
a ``Task`` view of it on demand.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.transport.messages import ResultMessage


class TaskState(str, Enum):
    """Task lifecycle states, ordered by progress."""

    RECEIVED = "received"      # accepted by the web service
    QUEUED = "queued"          # sitting in the endpoint's Redis task queue
    DISPATCHED = "dispatched"  # sent by the forwarder to the agent
    RUNNING = "running"        # executing on a worker
    SUCCESS = "success"        # result available
    FAILED = "failed"          # function raised or task lost permanently
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (TaskState.SUCCESS, TaskState.FAILED, TaskState.CANCELLED)


#: Legal state transitions.  Redelivery after failure re-enters QUEUED.
_TRANSITIONS: dict[TaskState, frozenset[TaskState]] = {
    TaskState.RECEIVED: frozenset({TaskState.QUEUED, TaskState.SUCCESS,
                                   TaskState.FAILED, TaskState.CANCELLED}),
    TaskState.QUEUED: frozenset({TaskState.DISPATCHED, TaskState.CANCELLED,
                                 TaskState.FAILED}),
    TaskState.DISPATCHED: frozenset({TaskState.RUNNING, TaskState.QUEUED,
                                     TaskState.SUCCESS, TaskState.FAILED,
                                     TaskState.CANCELLED}),
    TaskState.RUNNING: frozenset({TaskState.SUCCESS, TaskState.FAILED,
                                  TaskState.QUEUED, TaskState.CANCELLED}),
    TaskState.SUCCESS: frozenset(),
    TaskState.FAILED: frozenset(),
    TaskState.CANCELLED: frozenset(),
}


#: ``uuid.uuid4``'s bits on a random 128-bit int: clear the version and
#: variant fields, then set version 4 and the RFC 4122 variant.
_V4_CLEAR = ~(0xF000 << 64 | 0xC000 << 48)
_V4_SET = 0x4000 << 64 | 0x8000 << 48


def uuid4_hex() -> str:
    """``uuid.uuid4().hex``, without building a ``uuid.UUID``."""
    return "%032x" % (int.from_bytes(os.urandom(16), "big") & _V4_CLEAR | _V4_SET)


def new_task_ids(count: int) -> list[str]:
    """``count`` ``str(uuid.uuid4())`` ids from one ``os.urandom`` call:
    a submit wave mints its ids with one syscall, not one per task."""
    raw = os.urandom(16 * count)
    ids = []
    for start in range(0, 16 * count, 16):
        h = "%032x" % (int.from_bytes(raw[start:start + 16], "big")
                       & _V4_CLEAR | _V4_SET)
        ids.append(f"{h[:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:]}")
    return ids


def new_task_id() -> str:
    """``str(uuid.uuid4())``, without building a ``uuid.UUID``."""
    return new_task_ids(1)[0]


#: What a shard calls, once per completing wave, with the records of the
#: wave it waits on.
Waiter = Callable[[list["Task"]], None]

#: ``state_times`` key of each state's latest entry, written only when
#: the state is entered again.
_LAST: dict[TaskState, str] = {state: f"last_{state.value}" for state in TaskState}

#: The timeline's stages, each ``(stage, from, to)``: the interval between
#: two stamps (read by :func:`stamp`), ``to=None`` meaning the terminal
#: state's.  A stage missing a stamp (a hop that did not stamp), or ending
#: before it starts (a result that wins after a requeue, before any
#: redispatch), is left out.
STAGES: tuple[tuple[str, str, str | None], ...] = (
    ("service", "received", "queued"),
    ("forwarder.dispatch", "last_queued", "last_dispatched"),
    ("agent", "agent_in", "agent_out"),
    ("manager", "manager_in", "manager_out"),
    ("worker", "running", "worker_out"),
    ("result_return", "worker_out", None),
)


def hop_stamps(result: "ResultMessage") -> dict[str, float]:
    """The endpoint stamps ``result`` carries, under their
    ``state_times`` keys; a hop that did not stamp is left out."""
    stamps = {"agent_in": result.agent_in, "agent_out": result.agent_out,
              "manager_in": result.manager_in,
              "manager_out": result.manager_out}
    if result.completed_at:
        stamps["running"] = result.completed_at - result.execution_time
        stamps["worker_out"] = result.completed_at
    return {key: at for key, at in stamps.items() if at}


def stamp(state_times: dict[str, float], key: str) -> float | None:
    """The ``key`` stamp of one timeline; a missing ``last_<state>`` reads
    as ``<state>``: a state entered once is its own last."""
    at = state_times.get(key)
    if at is None and key.startswith("last_"):
        return state_times.get(key[5:])
    return at


def stage_seconds(state_times: dict[str, float], state: str) -> dict[str, float]:
    """Stage → seconds on one timeline, in :data:`STAGES` order; ``state``
    is the record's state (the key of its terminal stamp)."""
    out: dict[str, float] = {}
    for stage, start, end in STAGES:
        began, ended = stamp(state_times, start), stamp(state_times, end or state)
        if began is not None and ended is not None and ended >= began:
            out[stage] = ended - began
    return out


@dataclass(slots=True)
class Task:
    """One function invocation and its full audit trail.

    Attributes
    ----------
    function_id, endpoint_id:
        What to run and where.
    payload_buffer:
        Serialized ``(args, kwargs)`` routed buffer; dropped at the
        terminal state, ``payload_size`` keeps its length.
    result_buffer:
        Serialized result; dropped (``released``) when the last of its
        ``readers`` acks its delivery, ``result_size`` keeps its length.
    expires_at:
        When the terminal record leaves its shard's table: ``result_ttl``
        after the later of its terminal time and its last ``get_result``.
    container_image:
        Container key required by the function, or ``None`` for bare.
    owner_id:
        Identity that submitted the task (execution-history tracking,
        paper §4.8).
    max_retries:
        Re-execution budget when workers/managers are lost ("lost tasks
        can be re-executed (if permitted)", §4.3).
    execution_time:
        Seconds the function ran, as the applied result reports it.
    metadata:
        Only what a requeue (``requeue_reasons``, ``queued_times``) or a
        memoized submit (``memoize``) adds; empty on the common path.
    """

    function_id: str
    endpoint_id: str
    payload_buffer: bytes = b""
    container_image: str | None = None
    owner_id: str = ""
    task_id: str = field(default_factory=new_task_id)
    state: TaskState = TaskState.RECEIVED
    max_retries: int = 1
    attempts: int = 0
    result_buffer: bytes | None = None
    payload_size: int = 0
    result_size: int = 0
    expires_at: float | None = None
    exception_text: str | None = None
    memo_hit: bool = False
    execution_time: float = 0.0
    state_times: dict[str, float] = field(default_factory=dict)
    metadata: dict[str, Any] = field(default_factory=dict)
    #: ``callback(tasks)``s to fire when the task turns terminal, ``None``
    #: while nobody waits.  Registered, withdrawn and collected only by
    #: the owning :class:`~repro.core.shard.ServiceShard`, under its lock.
    waiters: list[Waiter] | None = field(  # guarded-by: ServiceShard._lock
        default=None, repr=False, compare=False)
    #: Stream subscriptions that watch the task and have not acked its
    #: delivery; the ack that brings it to 0 releases ``result_buffer``.
    readers: int = field(  # guarded-by: ServiceShard._lock
        default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.payload_size = len(self.payload_buffer)

    @property
    def released(self) -> bool:
        """Whether the task produced result bytes that have since left."""
        return self.result_buffer is None and self.result_size > 0

    # ------------------------------------------------------------------
    def advance(self, new_state: TaskState, now: float) -> None:
        """Transition to ``new_state``, enforcing lifecycle legality."""
        if new_state not in _TRANSITIONS[self.state]:
            raise ValueError(
                f"illegal task transition {self.state.value} -> {new_state.value} "
                f"for task {self.task_id}"
            )
        # Queue-transfer handoff: a task record is owned by exactly one
        # pipeline stage at a time; the ReliableQueue lease that moves it
        # between stages provides the happens-before edge for this write.
        self.state = new_state  # handoff
        # A re-entry (a requeue, a redispatch) stamps ``last_<state>``; the
        # second queue entry starts the list of every queue entry time.
        times = self.state_times
        key = new_state.value
        if key not in times:
            times[key] = now
            return
        times[_LAST[new_state]] = now
        if new_state is TaskState.QUEUED:
            self.metadata.setdefault("queued_times", [times[key]]).append(now)

    def stage_time(self, state: TaskState) -> float | None:
        return self.state_times.get(state.value)

    # -- derived latencies (figure 4 decomposition) -------------------------
    def total_latency(self) -> float | None:
        """End-to-end time from reception to terminal state."""
        times = self.state_times
        end = next((times[key] for key in ("success", "failed", "cancelled")
                    if key in times), None)
        if "received" not in times or end is None:
            return None
        return end - times["received"]

    def breakdown(self) -> dict[str, float]:
        """Stage durations keyed ts/tf/te/tw where measurable.

        ts — service time (received → queued);
        tf — forwarder time (queued → dispatched);
        te — endpoint time excluding execution: dispatched → the worker
             starts (``running``), plus the result's return from the
             worker's end (``worker_out``) to the terminal state;
        tw — worker execution time (``running`` → ``worker_out``).

        Without a ``worker_out`` stamp execution runs to the terminal
        state.
        """
        times = self.state_times
        worker_out = "worker_out" if "worker_out" in times else "success"
        spans = {"ts": ("received", "queued"), "tf": ("queued", "dispatched"),
                 "te": ("dispatched", "running"), "tw": ("running", worker_out)}
        out = {name: times[b] - times[a] for name, (a, b) in spans.items()
               if a in times and b in times}
        if "te" in out and worker_out in times and "success" in times:
            out["te"] += times["success"] - times[worker_out]
        return out

    @property
    def retries_remaining(self) -> int:
        return max(0, self.max_retries - max(0, self.attempts - 1))

    def to_record(self) -> dict[str, Any]:
        """Flat dict of the record, as ``task_info`` reports it."""
        return {
            "task_id": self.task_id,
            "function_id": self.function_id,
            "endpoint_id": self.endpoint_id,
            "owner_id": self.owner_id,
            "state": self.state.value,
            "container_image": self.container_image,
            "attempts": self.attempts,
            "memo_hit": self.memo_hit,
            "exception": self.exception_text,
            "payload_size": self.payload_size,
            "result_size": self.result_size,
            "released": self.released,
            "state_times": dict(self.state_times),
        }
