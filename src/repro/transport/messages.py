"""Wire message types exchanged between funcX components.

All messages are plain frozen dataclasses.  Payloads (function bodies,
arguments, results) travel as *already-serialized* routed buffers — the
forwarder and agent route buffers by tag without deserializing them, which
is the property the serialization design (section 4.6) exists to provide.

Their generated ``__init__`` is replaced (:func:`_one_step_init`) by one
that fills the instance ``__dict__`` in one ``update`` instead of one
``object.__setattr__`` per field; everything else is the dataclass's.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable


@dataclass(frozen=True)
class Message:
    """Base class; ``sender`` identifies the originating component."""

    sender: str


@dataclass(frozen=True)
class TaskMessage(Message):
    """A task dispatched toward a worker.

    An element of a :class:`TaskBatchMessage`, never sent bare: the only
    receiver that sees one on its own is a worker's in-process inbox.

    Attributes
    ----------
    task_id:
        Service-assigned UUID for this invocation.
    function_id:
        Registered function UUID.
    function_buffer:
        Serialized function body (routed buffer bytes).  Empty on the
        wire — bodies travel in the envelope's ``function_buffers`` —
        and reattached by the manager before the task reaches a worker.
    payload_buffer:
        Serialized ``(args, kwargs)`` (routed buffer bytes).
    container_image:
        Container the function must run in, or ``None`` for the bare
        worker Python environment.
    agent_in, agent_out, manager_in, manager_out:
        Hop stamps on the task's timeline: when the task reached and
        left the agent and the manager.  A hop writes its stamps into
        the copy it is about to send, never into a message already
        sent; ``0.0`` means the hop has not stamped.
    """

    task_id: str = ""
    function_id: str = ""
    function_buffer: bytes = b""
    payload_buffer: bytes = b""
    container_image: str | None = None
    submitted_at: float = 0.0
    agent_in: float = 0.0
    agent_out: float = 0.0
    manager_in: float = 0.0
    manager_out: float = 0.0


@dataclass(frozen=True)
class ResultMessage(Message):  # lint: ignore[handler-exhaustiveness]
    """A completed task's outcome heading back to the service.

    An element of a :class:`ResultBatchMessage`, never sent bare, so no
    receiver dispatches on the type (hence the waiver above).

    The worker ran from ``completed_at - execution_time`` to
    ``completed_at``; it copies the task's agent and manager stamps here
    so the service can write the whole timeline into the task record.
    """

    task_id: str = ""
    success: bool = True
    result_buffer: bytes = b""
    execution_time: float = 0.0
    worker_id: str = ""
    completed_at: float = 0.0
    #: Always ``None``: every result rides ``result_buffer`` inline.  Kept
    #: only because the benchmark's traced drive still reads it.
    result_ref: dict | None = None
    #: The task reached CANCELLED instead of SUCCESS/FAILED; receivers
    #: resolve the handle with ``TaskCancelled``.
    cancelled: bool = False
    #: Failure text for FAILED tasks whose worker produced no serialized
    #: exception wrapper (e.g. retries exhausted inside the service).
    exception_text: str = ""
    #: Set on the client-facing result stream when the result bytes were
    #: released before this delivery (every earlier watcher had acked);
    #: receivers resolve the handle with ``ResultPurged``.
    purged: bool = False
    agent_in: float = 0.0
    agent_out: float = 0.0
    manager_in: float = 0.0
    manager_out: float = 0.0


@dataclass(frozen=True)
class TaskBatchMessage(Message):
    """N tasks coalesced into one channel transfer (§4.7, §5.5.2).

    Every task travels in one of these, a lone task as an envelope of
    one.  ``tasks`` carry an empty ``function_buffer``: each distinct
    function body ships once per envelope in ``function_buffers``, so
    an envelope is whole on its own and no sender keeps a record of
    what its receiver holds.  A task whose body is missing from its
    envelope is a sender bug; the receiver fails it.

    Attributes
    ----------
    tasks:
        The coalesced task messages, dispatch order preserved.
    function_buffers:
        ``function_id -> serialized body`` for every function the
        tasks name.
    """

    tasks: tuple[TaskMessage, ...] = ()
    function_buffers: dict[str, bytes] = field(default_factory=dict)


@dataclass(frozen=True)
class ResultBatchMessage(Message):
    """N results coalesced into one channel transfer (symmetric to
    :class:`TaskBatchMessage` on the return path; a lone result is an
    envelope of one).

    The same envelope carries the service→client result *stream*
    (push-based delivery): there ``delivery_id`` identifies the batch for
    the subscriber's acknowledgement (redelivery happens under the same
    id space until acked) and ``subscriber_id`` names the subscription
    the batch belongs to.  Both ship empty on the worker→service path.
    """

    results: tuple[ResultMessage, ...] = ()
    delivery_id: str = ""
    subscriber_id: str = ""


@dataclass(frozen=True)
class Heartbeat(Message):
    """Periodic liveness signal (agent→forwarder, manager→agent).

    ``incarnation`` tags the beat with the sender's lifetime counter so a
    receiver can discard beats from a lifetime that predates the latest
    registration (a late beat from a dead incarnation must not revive the
    component).  ``0`` means the sender does not track incarnations.

    ``credit`` piggybacks the sender's aggregate credit window (the total
    in-flight population its downstream pool can absorb) on the liveness
    beat, so flow control costs no extra messages.  ``-1`` means "not
    reported by this peer": the receiver treats the window as unlimited.
    """

    timestamp: float = 0.0
    outstanding_tasks: int = 0
    incarnation: int = 0
    credit: int = -1


@dataclass(frozen=True)
class Registration(Message):
    """A component announcing itself to its parent.

    Managers register with the agent once all their workers connect
    (section 4.3); agents register with the service to obtain a forwarder.
    ``incarnation`` counts the sender's registrations — each re-register
    after a crash/recovery starts a new lifetime whose heartbeats carry
    the same tag.
    """

    component_type: str = ""  # "endpoint" | "manager" | "worker"
    capacity: int = 0
    container_types: tuple[str, ...] = ()
    metadata: dict[str, Any] = field(default_factory=dict)
    incarnation: int = 0


@dataclass(frozen=True)
class Advertisement(Message):
    """A manager advertising available (and anticipated) capacity.

    ``prefetch_capacity`` implements "advertising with opportunistic
    prefetching" (section 4.7): the manager asks for more tasks than it has
    idle workers so network transfer overlaps computation.

    ``credit_window`` is the manager's *static* credit window — the total
    task population (workers + prefetch allowance) it is willing to hold
    at once, independent of momentary idleness.  The agent sums windows
    over live managers and forwards the aggregate upstream on its
    heartbeat.  ``-1`` means "not reported by this peer": the agent keeps
    the window it already holds for the manager.
    """

    manager_id: str = ""
    idle_workers: int = 0
    prefetch_capacity: int = 0
    deployed_containers: tuple[str, ...] = ()
    credit_window: int = -1

    @property
    def total_request(self) -> int:
        return self.idle_workers + self.prefetch_capacity


@dataclass(frozen=True)
class CommandMessage(Message):
    """Control-plane commands (shutdown, suspend, resume, drain)."""

    command: str = ""
    target: str = ""
    arguments: dict[str, Any] = field(default_factory=dict)


def _one_step_init(cls: type) -> Callable[..., None]:
    """An ``__init__`` for dataclass ``cls`` with the generated one's
    parameters that fills the instance ``__dict__`` in one ``update``."""
    namespace: dict[str, Any] = {"MISSING": MISSING}
    params, items = [], []
    for f in fields(cls):
        name = value = f.name
        if f.default_factory is not MISSING:
            namespace[f"_factory_{name}"] = f.default_factory
            value = f"_factory_{name}() if {name} is MISSING else {name}"
        if f.default is MISSING and f.default_factory is MISSING:
            params.append(name)
        else:  # a factory field defaults to MISSING
            namespace[f"_default_{name}"] = f.default
            params.append(f"{name}=_default_{name}")
        items.append(f"{name!r}: {value}")
    exec(  # noqa: S102 - the dataclass module builds its __init__ the same way
        f"def __init__(self, {', '.join(params)}):\n"
        f"    self.__dict__.update({{{', '.join(items)}}})\n", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


for _cls in (Message, *Message.__subclasses__()):
    _cls.__init__ = _one_step_init(_cls)  # type: ignore[misc]
del _cls
