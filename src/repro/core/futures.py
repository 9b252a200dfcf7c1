"""Asynchronous result handles.

"Functions are executed asynchronously: each invocation returns an
identifier via which progress may be monitored and results retrieved"
(paper section 3).  :class:`FuncXFuture` is the SDK-side handle: it
resolves when the wave that completes its task fires the waiter the
client left on the record, or when the executor's stream delivers.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Any, Callable, ClassVar

from repro.errors import TaskCancelled, TaskExecutionFailed, TaskPending
from repro.observability.events import EventSpine
from repro.serialize.traceback import RemoteExceptionWrapper

logger = logging.getLogger(__name__)

#: Serializes bumps of :attr:`FuncXFuture.callback_errors` (delivery
#: happens on many threads at once).
_CALLBACK_ERROR_LOCK = threading.Lock()


class FuncXFuture:
    """A waitable handle for one task's result.

    The future resolves with either a deserialized result value or a
    failure; :meth:`result` re-raises remote exceptions on the caller's
    stack (via the deserializer's :class:`RemoteExceptionWrapper`).
    ``events`` is the spine of the deployment the future belongs to:
    every delivery attempt and success is emitted on it
    (``future.deliver_attempt``, ``future.delivered``), so a checker can
    assert no future resolves twice.

    Waiters block on ``_latch``, a C lock held from construction until
    resolution; each waiter acquires it and passes it on (an ``Event``
    would build a ``Condition`` and two more locks per future).
    """

    #: Process-wide count of exceptions swallowed from user done-callbacks
    #: (:func:`concurrent.futures` semantics: a bad callback is logged,
    #: never propagated into the delivering thread).
    callback_errors: ClassVar[int] = 0

    def __init__(self, task_id: str, events: EventSpine | None = None):
        self.task_id = task_id
        self._events = events
        self._latch = threading.Lock()
        self._latch.acquire()
        self._done = False  # guarded-by: self._lock
        self._value: Any = None
        self._exception: BaseException | None = None
        self._cancelled = False
        self._canceller: Callable[[str], Any] | None = None
        self._callbacks: list[Callable[["FuncXFuture"], None]] = []
        self._lock = threading.Lock()

    def _run_callbacks(
        self, callbacks: list[Callable[["FuncXFuture"], None]]
    ) -> None:
        """Invoke done-callbacks, isolating their exceptions.

        The delivering thread is forwarder/service plumbing — a user
        callback that raises must not unwind it.
        """
        for callback in callbacks:
            try:
                callback(self)
            except Exception:
                with _CALLBACK_ERROR_LOCK:
                    FuncXFuture.callback_errors += 1
                logger.exception(
                    "exception in done-callback for task %s", self.task_id)

    # -- producer side (service/client plumbing) ----------------------------
    def set_result(self, value: Any) -> None:
        self._resolve(value, None)

    def set_exception(self, exc: BaseException) -> None:
        self._resolve(None, exc)

    def _resolve(self, value: Any, exc: BaseException | None) -> None:
        events = self._events
        if events:
            events.emit("future", "future.deliver_attempt", {"task_id": self.task_id})
        with self._lock:
            if self._done:
                raise RuntimeError(f"future for task {self.task_id} already resolved")
            self._value = value
            self._exception = exc
            self._done = True
            self._latch.release()
            callbacks = list(self._callbacks)
        if events:
            events.emit("future", "future.delivered", {"task_id": self.task_id})
        self._run_callbacks(callbacks)

    def bind_canceller(self, canceller: Callable[[str], Any]) -> None:
        """Attach the hook :meth:`cancel` uses to propagate upstream.

        Kept out of ``__init__`` so bare futures stay constructible
        anywhere; the SDK binds ``service.cancel_task`` (via the client)
        or the executor's pending-wave remover.
        """
        with self._lock:
            self._canceller = canceller

    def cancel(self) -> bool:
        """Cancel the task; returns ``True`` if this call resolved it.

        Cancellation is propagated upstream through the bound canceller
        (the service marks the task CANCELLED and suppresses its eventual
        result), then the future resolves locally with
        :class:`TaskCancelled`.  Returns ``False`` when the future
        already resolved — the result won the race, matching
        :meth:`concurrent.futures.Future.cancel` semantics.
        """
        with self._lock:
            if self._done:
                return False
            canceller = self._canceller
        if canceller is not None:
            try:
                canceller(self.task_id)
            except Exception:
                # Best-effort: an unreachable service must not keep the
                # local handle alive.
                logger.exception(
                    "cancel propagation failed for task %s", self.task_id)
        with self._lock:
            if self._done:
                # The waiter fired by our own cancellation can resolve
                # the future before we re-acquire the lock; that is
                # still *this* call's cancel, not a lost race.
                if isinstance(self._exception, TaskCancelled):
                    self._cancelled = True
                    return True
                return False  # the result raced the cancel and won
            self._cancelled = True
            self._exception = TaskCancelled(f"task {self.task_id} cancelled")
            self._done = True
            self._latch.release()
            callbacks = list(self._callbacks)
        self._run_callbacks(callbacks)
        return True

    # -- consumer side --------------------------------------------------------
    def done(self) -> bool:
        with self._lock:
            return self._done

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def wait(self, timeout: float | None = None) -> bool:
        if timeout is None or timeout > 0:
            latch = self._latch
            if latch.acquire(timeout=-1 if timeout is None else timeout):
                latch.release()
                return True
        # Not blocking, or timed out; another waiter may be holding the
        # latch on a resolved future while it passes it on.
        return self.done()

    def result(self, timeout: float | None = None) -> Any:
        """Block for the result; re-raise remote failures.

        Raises
        ------
        TaskPending
            If ``timeout`` elapses first.
        TaskExecutionFailed
            If the user function raised remotely (original exception type
            is restored when it round-trips pickling).
        """
        if not self.wait(timeout):
            raise TaskPending(self.task_id, "pending")
        if self._exception is not None:
            raise self._exception
        value = self._value
        # A RemoteExceptionWrapper as the value means remote failure.
        if isinstance(value, RemoteExceptionWrapper):
            value.reraise()
        return value

    def exception(self, timeout: float | None = None) -> BaseException | None:
        if not self.wait(timeout):
            raise TaskPending(self.task_id, "pending")
        if self._exception is not None:
            return self._exception
        if isinstance(self._value, RemoteExceptionWrapper):
            return TaskExecutionFailed(self._value.format())
        return None

    def add_done_callback(self, callback: Callable[["FuncXFuture"], None]) -> None:
        """Invoke ``callback(self)`` on resolution (immediately if done)."""
        fire = False
        with self._lock:
            if self._done:
                fire = True
            else:
                self._callbacks.append(callback)
        if fire:
            self._run_callbacks([callback])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done() else "pending"
        return f"FuncXFuture({self.task_id}, {state})"


def wait_all(futures: list[FuncXFuture], timeout: float | None = None,
             clock: Callable[[], float] | None = None) -> bool:
    """Block until every future resolves; returns False on timeout."""
    now = clock or time.monotonic  # clock-domain: monotonic
    deadline = None if timeout is None else now() + timeout
    for future in futures:
        remaining = None if deadline is None else max(0.0, deadline - now())
        if not future.wait(remaining):
            return False
    return True
