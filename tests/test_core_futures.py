"""Unit tests for FuncXFuture."""

from __future__ import annotations

import logging
import sys
import threading

import pytest

from repro.core.futures import FuncXFuture, wait_all
from repro.errors import TaskCancelled, TaskExecutionFailed, TaskPending
from repro.observability.events import EventSpine
from repro.serialize.traceback import RemoteExceptionWrapper


class TestResolution:
    def test_set_result(self):
        f = FuncXFuture("t")
        assert not f.done()
        f.set_result(42)
        assert f.done()
        assert f.result() == 42

    def test_set_exception(self):
        f = FuncXFuture("t")
        f.set_exception(ValueError("x"))
        with pytest.raises(ValueError):
            f.result()
        assert isinstance(f.exception(), ValueError)

    def test_double_resolution_rejected(self):
        f = FuncXFuture("t")
        f.set_result(1)
        with pytest.raises(RuntimeError):
            f.set_result(2)
        with pytest.raises(RuntimeError):
            f.set_exception(ValueError())

    def test_timeout_raises_pending(self):
        f = FuncXFuture("t")
        with pytest.raises(TaskPending):
            f.result(timeout=0.01)

    def test_remote_wrapper_reraised(self):
        f = FuncXFuture("t")
        try:
            raise KeyError("remote")
        except KeyError as exc:
            f.set_result(RemoteExceptionWrapper(exc))
        with pytest.raises(KeyError):
            f.result()
        assert isinstance(f.exception(), TaskExecutionFailed)

    def test_cancel(self):
        f = FuncXFuture("t")
        assert f.cancel() is True
        assert f.cancelled
        with pytest.raises(TaskCancelled):
            f.result()

    def test_cancel_after_done_is_noop(self):
        f = FuncXFuture("t")
        f.set_result(1)
        assert f.cancel() is False
        assert not f.cancelled
        assert f.result() == 1


class TestCancelPropagation:
    def test_canceller_invoked_with_task_id(self):
        seen = []
        f = FuncXFuture("t-42")
        f.bind_canceller(seen.append)
        assert f.cancel() is True
        assert seen == ["t-42"]

    def test_canceller_not_invoked_when_already_done(self):
        seen = []
        f = FuncXFuture("t")
        f.bind_canceller(seen.append)
        f.set_result(1)
        assert f.cancel() is False
        assert seen == []

    def test_canceller_error_still_cancels_locally(self):
        def unreachable(_task_id):
            raise ConnectionError("service down")

        f = FuncXFuture("t")
        f.bind_canceller(unreachable)
        assert f.cancel() is True  # best-effort: local handle resolves
        assert f.cancelled

    def test_result_racing_cancel_wins(self):
        # The canceller's side effect resolves the future with a value
        # (the result beat the cancel upstream): cancel() must report
        # defeat and preserve the result.
        f = FuncXFuture("t")
        f.bind_canceller(lambda _tid: f.set_result("winner"))
        assert f.cancel() is False
        assert not f.cancelled
        assert f.result() == "winner"

    def test_own_cancellation_echo_still_counts(self):
        # The service retires the CANCELLED task and the waiter on its
        # record resolves the future with TaskCancelled before cancel()
        # re-acquires the lock — that is still our cancel.
        f = FuncXFuture("t")
        f.bind_canceller(
            lambda _tid: f.set_exception(TaskCancelled("echoed back")))
        assert f.cancel() is True
        assert f.cancelled
        with pytest.raises(TaskCancelled):
            f.result()


class TestCallbacks:
    def test_callback_on_resolution(self):
        f = FuncXFuture("t")
        seen = []
        f.add_done_callback(lambda fut: seen.append(fut.task_id))
        f.set_result(1)
        assert seen == ["t"]

    def test_callback_fires_immediately_if_done(self):
        f = FuncXFuture("t")
        f.set_result(1)
        seen = []
        f.add_done_callback(lambda fut: seen.append(1))
        assert seen == [1]

    def test_callbacks_on_exception(self):
        f = FuncXFuture("t")
        seen = []
        f.add_done_callback(lambda fut: seen.append("done"))
        f.set_exception(ValueError())
        assert seen == ["done"]


class TestCallbackIsolation:
    @pytest.fixture(autouse=True)
    def _reset_counters(self):
        saved_count = FuncXFuture.callback_errors
        FuncXFuture.callback_errors = 0
        yield
        FuncXFuture.callback_errors = saved_count

    def test_raising_callback_does_not_unwind_resolver(self):
        f = FuncXFuture("t")
        seen = []
        f.add_done_callback(lambda fut: (_ for _ in ()).throw(ValueError()))
        f.add_done_callback(lambda fut: seen.append("ran"))
        f.set_result(1)  # must not raise into the delivering thread
        assert seen == ["ran"]  # later callbacks still run
        assert f.result() == 1
        assert FuncXFuture.callback_errors == 1

    def test_raising_callback_on_immediate_fire(self):
        f = FuncXFuture("t")
        f.set_result(1)
        f.add_done_callback(lambda fut: (_ for _ in ()).throw(KeyError()))
        assert FuncXFuture.callback_errors == 1

    def test_raising_callback_is_logged(self, caplog):
        f = FuncXFuture("t")
        f.add_done_callback(lambda fut: (_ for _ in ()).throw(OSError()))
        with caplog.at_level(logging.ERROR, logger="repro.core.futures"):
            f.set_exception(ValueError())
        assert [record.exc_info[0] for record in caplog.records] == [OSError]
        assert "task t" in caplog.records[0].getMessage()


class TestDeliveryEvents:
    def test_attempts_and_deliveries_reach_the_futures_spine(self):
        events = EventSpine()
        seen = []
        events.subscribe(lambda source, kind, fields: seen.append(
            (source, kind, fields["task_id"])))
        f = FuncXFuture("t", events)
        f.set_result(1)
        with pytest.raises(RuntimeError):
            f.set_exception(ValueError())  # a second resolution is refused
        assert seen == [("future", "future.deliver_attempt", "t"),
                        ("future", "future.delivered", "t"),
                        ("future", "future.deliver_attempt", "t")]

    def test_a_future_without_a_spine_emits_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(EventSpine, "emit",
                            lambda *args: calls.append(args))
        FuncXFuture("t", EventSpine()).set_result(1)  # nobody subscribed
        FuncXFuture("u").set_result(1)
        assert calls == []


class TestWaiting:
    def test_cross_thread_wait(self):
        f = FuncXFuture("t")

        def resolver():
            f.set_result("from-thread")

        t = threading.Thread(target=resolver)
        t.start()
        assert f.result(timeout=5.0) == "from-thread"
        t.join()

    def test_resolve_cancel_and_waiters_race(self):
        # One of set_result and cancel wins each round, and every waiter
        # wakes with the future done; switch threads as often as possible.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(100):
                f = FuncXFuture("t")
                woke, raised = [], []
                threads = [threading.Thread(target=lambda: woke.append(f.wait(5.0)))
                           for _ in range(4)]

                def resolve():
                    try:
                        f.set_result(1)
                    except RuntimeError:
                        raised.append(True)

                threads.append(threading.Thread(target=resolve))
                for t in threads:
                    t.start()
                cancelled = f.cancel()
                for t in threads:
                    t.join(timeout=5.0)
                    assert not t.is_alive()
                assert cancelled == bool(raised)
                assert woke == [True] * 4 and f.done() and f.wait(0)
        finally:
            sys.setswitchinterval(interval)

    def test_non_positive_timeouts_do_not_block(self):
        f = FuncXFuture("t")
        assert not f.wait(0) and not f.wait(-1)
        f.set_result(1)
        assert f.wait(0) and f.wait(-1)

    def test_done_while_another_waiter_passes_the_latch(self):
        f = FuncXFuture("t")
        f.set_result(1)
        assert f._latch.acquire(False)  # a waiter mid-pass holds it
        try:
            assert f.wait(0) and f.wait(0.01) and f.result(0) == 1
        finally:
            f._latch.release()

    def test_wait_all_success(self):
        futures = [FuncXFuture(str(i)) for i in range(3)]
        for f in futures:
            f.set_result(1)
        assert wait_all(futures, timeout=1.0)

    def test_wait_all_timeout(self):
        futures = [FuncXFuture("done"), FuncXFuture("never")]
        futures[0].set_result(1)
        assert not wait_all(futures, timeout=0.05)
