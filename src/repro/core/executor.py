"""``concurrent.futures``-grade SDK facade over the push fabric.

The journal follow-up to the paper shipped a ``FuncXExecutor`` whose
``submit()`` hands back a stdlib-compatible future immediately, batches
submissions in a background thread, and resolves futures from a
subscription-based result stream instead of polling.  This module is that shape on this codebase:

* :meth:`FuncXExecutor.submit` accepts a callable (auto-registered once
  and cached) or a registered function id, appends the call to a pending
  wave, and returns a :class:`~repro.core.futures.FuncXFuture`.
* A background batching thread — woken by the call that finds the
  pending wave empty, held briefly once a burst has shown itself so the
  rest of it coalesces — drains pending calls into
  ``submit_batch`` waves (one authenticated request per wave,
  amortizing per-request overhead, §5.2.4).
* Task ids returned by the wave are watched on the executor's
  :class:`~repro.core.stream.ResultSubscription`; completions stream
  back as ``ResultBatchMessage``\\ s and resolve the futures.  No
  polling anywhere on the happy path.
* ``future.cancel()`` on a not-yet-submitted call removes it from the
  pending wave (a true stdlib-style cancel: the task never exists);
  after submission it propagates to ``service.cancel_task``.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.core.futures import FuncXFuture, wait_all
from repro.core.stream import DEFAULT_WINDOW, ResultSubscription
from repro.errors import ResultPurged, TaskCancelled, TaskExecutionFailed
from repro.metrics.registry import COUNT_BUCKETS
from repro.transport.messages import ResultBatchMessage, ResultMessage
from repro.transport.wakeup import IDLE_FALLBACK, Wakeup

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.client import FuncXClient

logger = logging.getLogger(__name__)


@dataclass
class _PendingCall:
    """One submitted-but-not-yet-dispatched call riding the next wave."""

    function_id: str
    args: tuple
    kwargs: dict
    future: FuncXFuture


class FuncXExecutor:
    """Executor-shaped SDK: batched submits, push-streamed results.

    Parameters
    ----------
    client:
        The authenticated :class:`~repro.core.client.FuncXClient`.
    endpoint_id:
        Every submission targets this endpoint.
    batch_size:
        Cap on calls per ``submit_batch`` wave.
    batch_interval:
        Nagle hold, a ceiling: the longest a call waits for company.  The
        batcher sleeps it only after a wave that carried more than one
        call; a call that travels alone is submitted at once.
    window:
        Credit window for the result subscription (delivered-unacked
        results the stream may hold against this executor).
    memoize:
        Forwarded to ``submit_batch``.
    """

    def __init__(
        self,
        client: "FuncXClient",
        endpoint_id: str,
        batch_size: int = 64,
        batch_interval: float = 0.002,
        window: int = DEFAULT_WINDOW,
        memoize: bool = False,
        clock: Callable[[], float] | None = None,
        sleeper: Callable[[float], None] | None = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.client = client
        self.endpoint_id = endpoint_id
        self.batch_size = batch_size
        self.batch_interval = batch_interval
        self.memoize = memoize
        self._clock = clock or time.monotonic  # clock-domain: monotonic
        self._sleep = sleeper or time.sleep
        self._wakeup = Wakeup(clock=self._clock)
        self._lock = threading.Lock()
        self._pending: list[_PendingCall] = []          # guarded-by: self._lock
        self._futures: dict[str, FuncXFuture] = {}      # guarded-by: self._lock
        # Statically only submit() (main) touches the id cache, but the
        # lock also serializes concurrent user-thread submitters.
        self._function_ids: dict[Any, str] = {}         # guarded-by: self._lock  # lint: ignore[threadroles]
        self._shutdown = False                          # guarded-by: self._lock
        metrics = client.service.metrics
        self._h_wave = metrics.histogram(
            "executor.submit_batch_size", buckets=COUNT_BUCKETS)
        self._h_hold = metrics.histogram("executor.wave_hold_seconds")
        self._c_submitted = metrics.counter("executor.tasks_submitted")
        self._c_suppressed = metrics.counter("executor.suppressed_deliveries")
        # Stream wiring: the subscription delivers straight into
        # _on_result_batch on the service's delivery thread.
        self.subscription: ResultSubscription = (
            client.service.result_stream.subscribe(window=window))
        self.subscription.attach(self._on_result_batch)
        self._thread = threading.Thread(
            target=self._batcher, name="funcx-executor", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, function: Callable[..., Any] | str,
               *args: Any, **kwargs: Any) -> FuncXFuture:
        """Queue one call for the next wave; returns its future now."""
        function_id = self._resolve_function(function)
        entry = _PendingCall(function_id, args, dict(kwargs),
                             FuncXFuture("", self.client.service.events))
        entry.future.bind_canceller(
            lambda _task_id, entry=entry: self._cancel_pending(entry))
        with self._lock:
            if self._shutdown:
                raise RuntimeError("cannot submit to a shut-down executor")
            first = not self._pending
            self._pending.append(entry)
        if first:  # the batcher's swap emptied the list: wake it
            self._wakeup.set()
        return entry.future

    def map(self, function: Callable[..., Any] | str, *iterables: Iterable[Any],
            timeout: float | None = None) -> Iterator[Any]:
        """Stdlib-style map: submit everything now, yield results in order."""
        futures = [self.submit(function, *call_args)
                   for call_args in zip(*iterables)]
        deadline = None if timeout is None else self._clock() + timeout

        def results() -> Iterator[Any]:
            for future in futures:
                remaining = (None if deadline is None
                             else max(0.0, deadline - self._clock()))
                yield future.result(timeout=remaining)

        return results()

    def _resolve_function(self, function: Callable[..., Any] | str) -> str:
        if isinstance(function, str):
            return function
        with self._lock:
            function_id = self._function_ids.get(function)
        if function_id is None:
            function_id = self.client.register_function(function)
            with self._lock:
                self._function_ids[function] = function_id
        return function_id

    def _cancel_pending(self, entry: _PendingCall) -> bool:
        """Canceller for not-yet-submitted calls: pull it off the wave."""
        with self._lock:
            try:
                self._pending.remove(entry)
                return True
            except ValueError:
                # Already drained into a wave; the drain loop notices the
                # resolved future and propagates a remote cancel.
                return False

    # ------------------------------------------------------------------
    # batching thread
    # ------------------------------------------------------------------
    def _batcher(self) -> None:
        # Evidence that a burst is under way: the last wave had company.
        company = False
        while True:
            self._wakeup.wait(IDLE_FALLBACK)
            with self._lock:
                have_pending = bool(self._pending)
                stopping = self._shutdown
            if have_pending:
                hold = self.batch_interval if company and not stopping else 0.0
                if hold > 0:
                    # Nagle hold: let the burst finish joining the wave.
                    self._sleep(hold)
                self._h_hold.observe(hold)
                company = self._drain() > 1
            elif stopping:
                return

    def _drain(self) -> int:
        with self._lock:
            wave = self._pending
            self._pending = []
        total = 0
        for start in range(0, len(wave), self.batch_size):
            total += self._submit_chunk(wave[start:start + self.batch_size])
        return total

    def _submit_chunk(self, chunk: list[_PendingCall]) -> int:
        live = [entry for entry in chunk if not entry.future.done()]
        if not live:
            return 0
        calls = [(entry.function_id, self.endpoint_id, entry.args, entry.kwargs)
                 for entry in live]
        try:
            task_ids = self.client.batch_run(calls, memoize=self.memoize)
        except Exception as exc:
            for entry in live:
                try:
                    entry.future.set_exception(exc)
                except RuntimeError:
                    pass  # cancelled while the wave was being rejected
            return 0
        self._h_wave.observe(float(len(task_ids)))
        self._c_submitted.inc(len(task_ids))
        watched: dict[str, FuncXFuture] = {}
        for entry, task_id in zip(live, task_ids):
            entry.future.task_id = task_id
            if entry.future.done():
                # Cancelled while the wave was in flight; the task exists
                # now, so propagate the cancel and never watch it.
                if entry.future.cancelled:
                    try:
                        self.client.cancel(task_id)
                    except Exception:
                        logger.exception(
                            "late cancel propagation failed for %s", task_id)
                continue
            entry.future.bind_canceller(self.client.cancel)
            watched[task_id] = entry.future
        # Futures first: a result may stream back the moment it is watched.
        with self._lock:
            self._futures.update(watched)
        self.subscription.watch_many(watched)
        return len(task_ids)

    # ------------------------------------------------------------------
    # result stream consumer
    # ------------------------------------------------------------------
    def _on_result_batch(self, batch: ResultBatchMessage) -> None:
        with self._lock:
            futures = [self._futures.pop(message.task_id, None)
                       for message in batch.results]
        for message, future in zip(batch.results, futures):
            if future is None or future.done():
                # Cancelled locally (or a redelivered duplicate): the
                # outcome is suppressed, not an error.
                self._c_suppressed.inc()
                continue
            self._resolve(future, message)
        self.subscription.ack(batch.delivery_id)

    def _resolve(self, future: FuncXFuture, message: ResultMessage) -> None:
        try:
            if message.cancelled:
                outcome: Any = TaskCancelled(
                    message.exception_text or
                    f"task {message.task_id} cancelled")
            elif message.purged:
                outcome = ResultPurged(message.task_id)
            elif not message.success and not message.result_buffer:
                outcome = TaskExecutionFailed(
                    message.exception_text or "remote execution failed")
            else:
                future.set_result(self.client.serializer.deserialize(
                    message.result_buffer))
                return
            future.set_exception(outcome)
        except RuntimeError:
            self._c_suppressed.inc()  # resolved concurrently (cancel race)
        except Exception as exc:
            try:
                future.set_exception(exc)
            except RuntimeError:
                self._c_suppressed.inc()

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Submitted-but-unresolved tasks riding the stream."""
        with self._lock:
            return len(self._futures)

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Stop accepting submissions; optionally wait for completion.

        ``cancel_futures=True`` cancels every call still waiting in the
        pending wave (their tasks never exist).  With ``wait=True`` the
        batcher flushes, outstanding futures resolve off the stream, and
        the subscription closes; with ``wait=False`` the subscription
        stays open so in-flight results can still resolve (it is closed
        with the service).
        """
        with self._lock:
            already = self._shutdown
            self._shutdown = True
            doomed = list(self._pending) if cancel_futures else []
            if cancel_futures:
                self._pending = []
        for entry in doomed:
            entry.future.cancel()
        self._wakeup.set()
        if already or not wait:
            return
        self._thread.join()
        with self._lock:
            outstanding = list(self._futures.values())
        wait_all(outstanding, timeout=None, clock=self._clock)
        self.subscription.close()

    def __enter__(self) -> "FuncXExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown(wait=True)
