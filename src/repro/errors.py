"""Exception hierarchy for the funcX reproduction.

Every error raised by the platform derives from :class:`FuncXError` so that
callers can catch platform faults distinctly from bugs in user function code
(which surface as :class:`TaskExecutionFailed` wrapping the remote traceback).
"""

from __future__ import annotations


class FuncXError(Exception):
    """Base class for all platform errors."""


# --------------------------------------------------------------------------
# Registry / lookup errors
# --------------------------------------------------------------------------
class NotFoundError(FuncXError):
    """A referenced entity (function, endpoint, task, user) does not exist."""

    def __init__(self, kind: str, identifier: str):
        super().__init__(f"{kind} {identifier!r} not found")
        self.kind = kind
        self.identifier = identifier


class FunctionNotFound(NotFoundError):
    def __init__(self, function_id: str):
        super().__init__("function", function_id)


class EndpointNotFound(NotFoundError):
    def __init__(self, endpoint_id: str):
        super().__init__("endpoint", endpoint_id)


class TaskNotFound(NotFoundError):
    def __init__(self, task_id: str):
        super().__init__("task", task_id)


class ContainerNotFound(NotFoundError):
    def __init__(self, container_id: str):
        super().__init__("container", container_id)


# --------------------------------------------------------------------------
# Authentication / authorization errors
# --------------------------------------------------------------------------
class AuthError(FuncXError):
    """Base class for authentication and authorization failures."""


class AuthenticationFailed(AuthError):
    """The presented token is missing, expired, revoked, or malformed."""


class AuthorizationFailed(AuthError):
    """The authenticated identity lacks a required scope or permission."""

    def __init__(self, identity: str, required: str):
        super().__init__(
            f"identity {identity!r} is not authorized (requires {required!r})"
        )
        self.identity = identity
        self.required = required


class UnknownTenant(AuthError):
    """The authenticated identity has no admission policy and the
    controller runs in strict mode (unknown tenants are rejected)."""

    def __init__(self, tenant: str):
        super().__init__(
            f"tenant {tenant!r} has no admission policy (strict admission)"
        )
        self.tenant = tenant


# --------------------------------------------------------------------------
# Admission-control errors
# --------------------------------------------------------------------------
class ThrottleExceeded(FuncXError):
    """Per-tenant admission control rejected the request (HTTP 429 shape).

    Raised when the tenant's token bucket is empty (submit rate above the
    sustained allowance) or its max-outstanding quota is full.  The
    server-side analogue of the SDK's ``ThrottledBaseClient``.
    """

    def __init__(self, tenant: str, reason: str, retry_after: float = 0.0):
        super().__init__(
            f"tenant {tenant!r} throttled: {reason}"
            + (f" (retry after {retry_after:.3f}s)" if retry_after > 0 else "")
        )
        self.tenant = tenant
        self.reason = reason
        self.retry_after = retry_after


class ShardDraining(FuncXError):
    """The service shard owning the target endpoint refuses new work.

    Submissions are rejected (HTTP 503 shape) while operators drain a
    shard for restart; already-queued tasks keep dispatching.
    """

    def __init__(self, shard_index: int):
        super().__init__(
            f"service shard {shard_index} is draining; resubmit shortly"
        )
        self.shard_index = shard_index


# --------------------------------------------------------------------------
# Serialization errors
# --------------------------------------------------------------------------
class SerializationError(FuncXError):
    """No registered serialization method could encode the object."""


class DeserializationError(FuncXError):
    """A buffer could not be decoded (bad header, unknown method, corrupt)."""


class PayloadTooLarge(FuncXError):
    """The serialized payload exceeds the service's size cap.

    The paper limits data passed through the cloud service and directs users
    toward out-of-band transfer (Globus) for large data (section 4.6).
    """

    def __init__(self, size: int, limit: int):
        super().__init__(
            f"payload of {size} bytes exceeds service limit of {limit} bytes; "
            "use out-of-band data staging for large data"
        )
        self.size = size
        self.limit = limit


# --------------------------------------------------------------------------
# Task lifecycle errors
# --------------------------------------------------------------------------
class TaskError(FuncXError):
    """Base class for task lifecycle errors."""


class TaskPending(TaskError):
    """Result requested before the task has completed."""

    def __init__(self, task_id: str, status: str):
        super().__init__(f"task {task_id} is still {status}")
        self.task_id = task_id
        self.status = status


class TaskExecutionFailed(TaskError):
    """The user function raised; carries the remote traceback text."""

    def __init__(self, remote_traceback: str):
        super().__init__(f"remote execution failed:\n{remote_traceback}")
        self.remote_traceback = remote_traceback


class TaskCancelled(TaskError):
    """The task was cancelled before completion."""


class ResultPurged(TaskError):
    """The task finished but the service no longer holds its result: the
    last stream watcher acked it, or the record expired ``result_ttl``
    after its last retrieval (paper §4.1)."""

    def __init__(self, task_id: str):
        super().__init__(f"the result of task {task_id} was delivered and "
                         "released, or has expired")
        self.task_id = task_id


class MaxRetriesExceeded(TaskError):
    """A task failed more times than its retry budget permits."""

    def __init__(self, task_id: str, attempts: int):
        super().__init__(f"task {task_id} exhausted {attempts} attempts")
        self.task_id = task_id
        self.attempts = attempts


# --------------------------------------------------------------------------
# Transport / connectivity errors
# --------------------------------------------------------------------------
class TransportError(FuncXError):
    """Base class for channel-level failures."""


class ChannelClosed(TransportError):
    """Send or receive attempted on a closed channel."""


class Disconnected(TransportError):
    """The remote peer is unreachable (simulated network partition)."""


class HeartbeatMissed(TransportError):
    """A component exceeded its heartbeat grace period and is presumed lost."""

    def __init__(self, component: str, last_seen: float):
        super().__init__(f"{component} missed heartbeats (last seen t={last_seen:.3f})")
        self.component = component
        self.last_seen = last_seen


# --------------------------------------------------------------------------
# Provider / provisioning errors
# --------------------------------------------------------------------------
class ProviderError(FuncXError):
    """Base class for resource-provider failures."""


class AllocationExhausted(ProviderError):
    """The allocation (node-hours or instance cap) is depleted."""


class SubmitFailed(ProviderError):
    """The scheduler or cloud API rejected the pilot-job submission."""


class InvalidJobState(ProviderError):
    """A job transition was requested from an incompatible state."""


# --------------------------------------------------------------------------
# Endpoint errors
# --------------------------------------------------------------------------
class EndpointError(FuncXError):
    """Base class for endpoint-side failures."""


class NoSuitableManager(EndpointError):
    """No manager advertises capacity/containers compatible with the task."""


class WorkerLost(EndpointError):
    """A worker died while holding a task."""


class ManagerLost(EndpointError):
    """A manager missed its heartbeat window while holding tasks."""


# --------------------------------------------------------------------------
# Simulation errors
# --------------------------------------------------------------------------
class SimulationError(FuncXError):
    """Base class for discrete-event-simulation faults."""


class ClockMonotonicityViolation(SimulationError):
    """An event was scheduled in the past — a kernel invariant violation."""
