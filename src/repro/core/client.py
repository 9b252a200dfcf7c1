"""The funcX SDK: ``FuncXClient`` (paper section 3, listing 1).

.. code-block:: python

    fc = FuncXClient(service, identity)
    func_id = fc.register_function(automo_preview)
    task_id = fc.run(func_id, endpoint_id, fname="test.h5", start=0)
    res = fc.get_result(task_id, timeout=30)

The client wraps the service's REST-style API: it serializes functions
and arguments, attaches the bearer token, and deserializes results
(re-raising remote exceptions with their tracebacks).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.auth.scopes import Scope
from repro.auth.service import AuthClient, Identity
from repro.core.batch import MAP_TAG, MapResult, partition_iterator
from repro.core.futures import FuncXFuture
from repro.core.service import FuncXService
from repro.core.tasks import Task, TaskState
from repro.serialize import FuncXSerializer
from repro.serialize.traceback import RemoteExceptionWrapper

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executor import FuncXExecutor


class FuncXClient:
    """SDK handle bound to one authenticated identity.

    Parameters
    ----------
    service:
        The funcX web service instance to talk to.
    identity:
        The caller's identity; a native-client token is obtained from the
        service's auth system on construction.
    scopes:
        Override the default user scopes (for least-privilege tests).
    """

    def __init__(
        self,
        service: FuncXService,
        identity: Identity,
        scopes: Iterable[Scope] | None = None,
        clock: Callable[[], float] | None = None,
    ):
        self.service = service
        self._auth_client = AuthClient(service.auth, identity, scopes=scopes)
        self.serializer = FuncXSerializer()
        self._clock = clock or time.monotonic  # clock-domain: monotonic

    @property
    def identity(self) -> Identity:
        return self._auth_client.identity

    def _token(self) -> str:
        return self._auth_client.bearer_token()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_function(
        self,
        function: Callable[..., Any],
        name: str | None = None,
        container_image: str | None = None,
        public: bool = False,
        allowed_users: tuple[str, ...] = (),
        allowed_groups: tuple[str, ...] = (),
        description: str = "",
    ) -> str:
        """Serialize and register a Python function; returns its UUID."""
        buffer = self.serializer.serialize_function(function)
        return self.service.register_function(
            self._token(),
            name=name or getattr(function, "__name__", "anonymous"),
            function_buffer=buffer,
            container_image=container_image,
            public=public,
            allowed_users=allowed_users,
            allowed_groups=allowed_groups,
            description=description,
        )

    def update_function(self, function_id: str, function: Callable[..., Any]) -> int:
        buffer = self.serializer.serialize_function(function)
        return self.service.update_function(self._token(), function_id, buffer)

    def register_endpoint(
        self,
        name: str,
        description: str = "",
        public: bool = True,
        metadata: dict[str, Any] | None = None,
    ) -> str:
        return self.service.register_endpoint(
            self._token(), name=name, description=description, public=public,
            metadata=metadata,
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        function_id: str,
        endpoint_id: str,
        *args: Any,
        memoize: bool = False,
        **kwargs: Any,
    ) -> str:
        """Invoke a function asynchronously; returns the task id."""
        payload = self.serializer.serialize((list(args), kwargs))
        return self.service.submit(
            self._token(), function_id, endpoint_id, payload, memoize=memoize
        )

    def submit(
        self,
        function_id: str,
        endpoint_id: str,
        *args: Any,
        memoize: bool = False,
        **kwargs: Any,
    ) -> FuncXFuture:
        """Like :meth:`run` but returns a future resolving to the result."""
        task_id = self.run(function_id, endpoint_id, *args, memoize=memoize, **kwargs)
        return self._future_for(task_id)

    def batch_run(
        self,
        calls: list[tuple[str, str, tuple, dict]],
        memoize: bool = False,
    ) -> list[str]:
        """Submit many calls in one request: ``(func_id, ep_id, args, kwargs)``."""
        requests = [
            (fid, eid, self.serializer.serialize((list(args), kwargs)))
            for fid, eid, args, kwargs in calls
        ]
        return self.service.submit_batch(self._token(), requests, memoize=memoize)

    def map(
        self,
        function_id: str,
        iterator: Iterable[Any],
        endpoint_id: str,
        batch_size: int | None = None,
        batch_count: int | None = None,
        memoize: bool = False,
    ) -> MapResult:
        """The ``fmap`` command: user-driven batching over an iterator.

        Each batch ships as one task tagged ``map``; workers apply the
        function per item.  ``batch_count`` takes precedence over
        ``batch_size`` (paper section 4.7).
        """
        futures: list[FuncXFuture] = []
        sizes: list[int] = []
        batches = list(partition_iterator(iterator, batch_size=batch_size,
                                          batch_count=batch_count))
        requests = [
            (function_id, endpoint_id, self.serializer.serialize(batch, routing_tag=MAP_TAG))
            for batch in batches
        ]
        task_ids = self.service.submit_batch(self._token(), requests, memoize=memoize)
        for task_id, batch in zip(task_ids, batches):
            futures.append(self._future_for(task_id))
            sizes.append(len(batch))
        return MapResult(futures, sizes)

    def fmap(
        self,
        function_id: str,
        iterator: Iterable[Any],
        endpoint_id: str,
        batch_size: int | None = None,
        batch_count: int | None = None,
    ) -> MapResult:
        """The paper's SDK spelling (§4.7)::

            f = fmap(func_id, iterator, ep_id, batch_size, batch_count)
        """
        return self.map(function_id, iterator, endpoint_id,
                        batch_size=batch_size, batch_count=batch_count)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def get_status(self, task_id: str) -> TaskState:
        return self.service.status(self._token(), task_id)

    def get_status_batch(self, task_ids: list[str]) -> dict[str, TaskState]:
        """States for many tasks in one request.

        The service fans the lookup out across its shards (tasks in one
        batch routinely live on different shards — the shard map keys on
        the target endpoint), so the caller pays one round trip
        regardless of how the batch scattered.
        """
        states = self.service.status_batch(self._token(), task_ids)
        return {task_id: TaskState(value) for task_id, value in states.items()}

    def get_result(self, task_id: str, timeout: float = 0.0) -> Any:
        """Fetch and deserialize a result; re-raise remote exceptions.

        Raises :class:`~repro.errors.ResultPurged` once the result has
        left the service: released after a result stream delivered and
        acked it, or expired ``result_ttl`` after its last retrieval.
        """
        buffer = self.service.get_result(self._token(), task_id, timeout=timeout)
        value = self.serializer.deserialize(buffer)
        if isinstance(value, RemoteExceptionWrapper):
            value.reraise()
        return value

    def cancel(self, task_id: str) -> bool:
        """Propagate a cancellation to the service.

        Returns ``True`` when this call cancelled the task, ``False``
        when it had already finished (first outcome wins).
        """
        return self.service.cancel_task(self._token(), task_id)

    def _future_for(self, task_id: str) -> FuncXFuture:
        future = FuncXFuture(task_id, self.service.events)
        future.bind_canceller(self.cancel)

        def resolve(_tasks: list[Task]) -> None:
            if future.done():
                return
            try:
                future.set_result(self._fetch_value(task_id))
            except Exception as exc:
                try:
                    future.set_exception(exc)
                except RuntimeError:
                    pass

        # Fires from the completing wave — or right here if the task is
        # already terminal (memo hits are).
        self.service.shard_for_task(task_id).when_terminal(task_id, resolve)
        return future

    def _fetch_value(self, task_id: str) -> Any:
        buffer = self.service.get_result(self._token(), task_id, timeout=0.0)
        return self.serializer.deserialize(buffer)

    def executor(self, endpoint_id: str, **kwargs: Any) -> "FuncXExecutor":
        """A :class:`~repro.core.executor.FuncXExecutor` bound to this
        client and ``endpoint_id`` (push-based results, batched submits)."""
        from repro.core.executor import FuncXExecutor

        return FuncXExecutor(self, endpoint_id, **kwargs)

    # ------------------------------------------------------------------
    def wait_for(self, task_id: str, timeout: float = 30.0) -> Any:
        """Block until the task completes; returns the deserialized
        result, or raises :class:`~repro.errors.TaskPending` once
        ``timeout`` seconds have passed."""
        return self.get_result(task_id, timeout=timeout)

    def wait_all(self, task_ids: list[str], timeout: float = 30.0) -> list[Any]:
        """Wait for many tasks (any mix of shards); results in order.

        One deadline covers the whole list.  Raises
        :class:`~repro.errors.TaskPending` for the first task still
        unfinished when it passes.
        """
        deadline = self._clock() + timeout
        return [
            self.get_result(tid, timeout=max(0.0, deadline - self._clock()))
            for tid in task_ids
        ]
