"""Workers: execute one task at a time inside a container (paper §4.3).

"Workers persist within containers and each executes one task at a time.
Since workers have a single responsibility, they use blocking
communication to wait for functions from the manager.  Once a task is
received it is deserialized, executed, and the serialized results are
returned via the manager."

:func:`execute_task_message` is the pure execution core (also used
directly by tests and the breakdown bench); :class:`Worker` wraps it in
the blocking receive loop run on a thread by the live fabric.  A worker
hands each result to its manager in the call that returns its next task
(``finished``): the manager prefetches (§4.7) so that a freed worker
starts at once.
"""

from __future__ import annotations

import threading
import time
from queue import SimpleQueue
from typing import Any, Callable

from repro.containers.runtime import ContainerInstance
from repro.core.batch import MAP_TAG, apply_batch
from repro.serialize import FuncXSerializer
from repro.serialize.traceback import RemoteExceptionWrapper
from repro.transport.messages import ResultMessage, TaskMessage
from repro.transport.wakeup import join_thread


def execute_task_message(
    message: TaskMessage,
    serializer: FuncXSerializer,
    function_cache: dict[str, tuple[int, Callable[..., Any]]] | None = None,
    clock: Callable[[], float] | None = None,
    worker_id: str = "worker",
) -> ResultMessage:
    """Deserialize, execute and serialize one task.

    Map-tagged payloads (see :mod:`repro.core.batch`) are applied per
    item.  User-function exceptions become failure results carrying a
    serialized :class:`RemoteExceptionWrapper`; they never propagate.
    """
    clock = clock or time.monotonic
    start = clock()
    try:
        # Cache entries are validated against the shipped body so updated
        # functions (same id, new version) never execute stale code.
        func: Callable[..., Any] | None = None
        digest = hash(message.function_buffer)
        if function_cache is not None:
            cached = function_cache.get(message.function_id)
            if cached is not None and cached[0] == digest:
                func = cached[1]
        if func is None:
            func = serializer.deserialize(message.function_buffer)
            if function_cache is not None:
                function_cache[message.function_id] = (digest, func)

        tag, payload = serializer.unpack(message.payload_buffer)
        if tag == MAP_TAG:
            value: Any = apply_batch(func, payload)
        else:
            args, kwargs = payload
            value = func(*args, **kwargs)

        result_buffer = serializer.serialize(value, routing_tag=message.task_id)
        success = True
    except Exception as exc:
        wrapper = RemoteExceptionWrapper(exc)
        result_buffer = serializer.serialize(wrapper, routing_tag=message.task_id)
        success = False
    end = clock()
    return ResultMessage(
        sender=worker_id,
        task_id=message.task_id,
        success=success,
        result_buffer=result_buffer,
        execution_time=end - start,
        worker_id=worker_id,
        completed_at=end,
        agent_in=message.agent_in,
        agent_out=message.agent_out,
        manager_in=message.manager_in,
        manager_out=message.manager_out,
    )


class Worker:
    """A live worker thread bound to a container instance.

    Parameters
    ----------
    worker_id:
        Unique id within the manager.
    inbox:
        Queue the manager pushes :class:`TaskMessage` (or the ``STOP``
        sentinel) into — the worker's blocking receive.
    finished:
        Called on the worker's thread with the worker and each
        :class:`ResultMessage`: hands the result in and returns the task
        to run next (``Manager._finished``), or ``None`` to send the
        worker back to its inbox.
    container:
        The container instance this worker persists within.
    """

    STOP = object()

    def __init__(
        self,
        worker_id: str,
        inbox: "SimpleQueue[Any]",
        finished: "Callable[[Worker, ResultMessage], TaskMessage | None]",
        container: ContainerInstance,
        clock: Callable[[], float] | None = None,
    ):
        self.worker_id = worker_id
        self.inbox = inbox
        self._finished = finished
        self.container = container
        self._clock = clock or time.monotonic  # clock-domain: monotonic
        self.serializer = FuncXSerializer()
        self._function_cache: dict[str, tuple[int, Callable[..., Any]]] = {}
        self._thread: threading.Thread | None = None
        self.tasks_executed = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError(f"worker {self.worker_id} already started")
        # Thread-lifecycle handoff: start()/join() order these writes
        # against the worker thread's lifetime.
        self._thread = threading.Thread(  # handoff
            target=self._run, name=f"worker-{self.worker_id}", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        if self._thread is None:
            return
        self.inbox.put(self.STOP)
        join_thread(self._thread, timeout)
        self._thread = None  # handoff

    def join(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    # ------------------------------------------------------------------
    def _run(self) -> None:
        finished = self._finished
        while True:
            item = self.inbox.get()  # blocking receive (paper §4.3)
            if item is self.STOP:
                return
            while item is not None:
                assert isinstance(item, TaskMessage)
                result = execute_task_message(
                    item,
                    serializer=self.serializer,
                    function_cache=self._function_cache,
                    clock=self._clock,
                    worker_id=self.worker_id,
                )
                self.tasks_executed += 1
                self.container.executions += 1
                item = finished(self, result)
