"""Tests for the FuncXExecutor SDK facade and the client result-path
fixes that shipped with it (wait_for deadline handling, cancel
propagation, subscription-leak regression)."""

from __future__ import annotations

import threading
import time

import pytest

from repro import LocalDeployment
from repro.core.client import FuncXClient
from repro.core.executor import FuncXExecutor
from repro.errors import (
    TaskCancelled,
    TaskExecutionFailed,
    TaskNotFound,
    TaskPending,
)

from tests.conftest import FakeClock, Turnstile


def double(x):
    return 2 * x


def boom():
    raise KeyError("remote failure")


def gate_drain(executor):
    """Park the batcher in front of its drain until the gate is set."""
    gate = threading.Event()
    drain = executor._drain

    def gated():
        assert gate.wait(30)
        return drain()

    executor._drain = gated
    return gate


@pytest.fixture
def deployment():
    with LocalDeployment() as dep:
        yield dep


@pytest.fixture
def client(deployment):
    return deployment.client()


@pytest.fixture
def endpoint_id(deployment):
    return deployment.create_endpoint("exec-ep", nodes=1)


class TestExecutor:
    def test_submit_resolves_from_stream(self, client, endpoint_id):
        with client.executor(endpoint_id) as executor:
            futures = [executor.submit(double, i) for i in range(10)]
            assert [f.result(timeout=30) for f in futures] == [
                2 * i for i in range(10)]
        # Every result arrived by push, none by polling.
        metrics = client.service.metrics
        assert metrics.counter("stream.results_delivered").value >= 10
        assert metrics.counter("executor.tasks_submitted").value == 10

    def test_burst_coalesces_into_waves(self, client, endpoint_id):
        # The burst is made while the first wave stands inside the
        # batcher's submit: it rides the next wave whole, with no timing.
        turnstile = Turnstile(client)
        with client.executor(endpoint_id) as executor:
            futures = [executor.submit(double, 0)]
            turnstile.await_wave()
            futures += [executor.submit(double, i) for i in range(1, 32)]
            turnstile.open()
            assert [f.result(timeout=30) for f in futures] == [
                2 * i for i in range(32)]
        assert client.service.metrics.histogram(
            "executor.submit_batch_size").samples() == [1.0, 31.0]

    def test_removed_hold_knob_is_rejected(self, client, endpoint_id):
        with pytest.raises(TypeError):
            client.executor(endpoint_id, batch_interval=0.002)

    def test_registered_function_id_accepted(self, client, endpoint_id):
        fid = client.register_function(double, public=True)
        with client.executor(endpoint_id) as executor:
            assert executor.submit(fid, 21).result(timeout=30) == 42

    def test_callable_registered_once(self, client, endpoint_id):
        with client.executor(endpoint_id) as executor:
            executor.submit(double, 1).result(timeout=30)
            executor.submit(double, 2).result(timeout=30)
            assert len(executor._function_ids) == 1

    def test_map_preserves_order(self, client, endpoint_id):
        with client.executor(endpoint_id) as executor:
            assert list(executor.map(double, range(8))) == [
                2 * i for i in range(8)]

    def test_remote_exception_reraised(self, client, endpoint_id):
        with client.executor(endpoint_id) as executor:
            future = executor.submit(boom)
            with pytest.raises(KeyError):
                future.result(timeout=30)

    def test_submit_after_shutdown_raises(self, client, endpoint_id):
        executor = client.executor(endpoint_id)
        executor.shutdown(wait=True)
        with pytest.raises(RuntimeError):
            executor.submit(double, 1)

    def test_pre_dispatch_cancel_never_submits(self, client, endpoint_id):
        # With the batcher parked in front of its drain the call stays in
        # the pending wave; cancelling there is a true stdlib cancel —
        # the task never exists.
        with client.executor(endpoint_id) as executor:
            gate = gate_drain(executor)
            future = executor.submit(double, 1)
            assert future.cancel() is True
            assert future.cancelled
            gate.set()
            with pytest.raises(TaskCancelled):
                future.result(timeout=5)
            follow_up = executor.submit(double, 21)
            assert follow_up.result(timeout=30) == 42
        assert client.service.metrics.counter(
            "executor.tasks_submitted").value == 1  # only the follow-up

    def test_shutdown_cancel_futures_drops_pending(self, client, endpoint_id):
        executor = client.executor(endpoint_id)
        gate = gate_drain(executor)
        future = executor.submit(double, 1)
        future.add_done_callback(lambda _future: gate.set())
        executor.shutdown(wait=True, cancel_futures=True)
        assert future.cancelled
        assert client.service.metrics.counter(
            "executor.tasks_submitted").value == 0

    def test_post_dispatch_cancel_propagates(self, client, endpoint_id):
        def slow(x):
            import time as t
            t.sleep(0.5)
            return x

        with client.executor(endpoint_id) as executor:
            blocker = executor.submit(slow, 0)      # occupies the worker
            victim = executor.submit(slow, 1)       # stays QUEUED
            deadline_future = victim
            # Wait for the wave to dispatch so the task id exists.
            deadline = 50
            while deadline_future.task_id == "" and deadline:
                deadline -= 1
                import time as t
                t.sleep(0.01)
            assert victim.cancel() is True
            with pytest.raises(TaskCancelled):
                victim.result(timeout=5)
            assert blocker.result(timeout=30) == 0
        assert client.service.tasks_cancelled >= 1

    def test_memoized_fast_path(self, client, endpoint_id):
        with client.executor(endpoint_id, memoize=True) as executor:
            first = executor.submit(double, 5).result(timeout=30)
            # The repeat completes at submit time (memo hit) — before the
            # watch lands; the terminal fast-path must still deliver it.
            second = executor.submit(double, 5).result(timeout=30)
        assert first == second == 10
        assert client.service.metrics.counter(
            "service.memo_completions").value >= 1

    def test_spilled_result_round_trips(self, deployment=None):
        # A >= 64 KiB result arrives inline and its ack releases it.
        with LocalDeployment() as dep:
            client = dep.client()
            ep = dep.create_endpoint("big-ep", nodes=1)

            def big(n):
                return b"z" * n

            with client.executor(ep) as executor:
                future = executor.submit(big, 64 * 1024)
                assert future.result(timeout=30) == b"z" * (64 * 1024)
                record = dep.service.task_by_id(future.task_id)
                deadline = time.monotonic() + 30
                while not record.released and time.monotonic() < deadline:
                    time.sleep(0.005)  # the ack follows the resolution
                assert record.released and record.readers == 0
            assert dep.metrics.counter(
                "service.results_purged").value == 1

    def test_batch_size_validated(self, client, endpoint_id):
        with pytest.raises(ValueError):
            FuncXExecutor(client, endpoint_id, batch_size=0)


class ScriptedClient(FuncXClient):
    """A client whose ``get_result`` blocks on the fake clock: each task
    has a time it becomes ready (``None`` = never); a wait either reaches
    it or spends its whole timeout."""

    def __init__(self, clock, ready_at):
        self._clock = clock
        self.ready_at = ready_at
        self.timeouts_seen: list[float] = []

    def get_result(self, task_id, timeout=0.0):
        self.timeouts_seen.append(timeout)
        ready = self.ready_at[task_id]
        if ready is not None and self._clock() + timeout >= ready:
            self._clock.advance(max(0.0, ready - self._clock()))
            return f"done:{task_id}"
        self._clock.advance(timeout)
        raise TaskPending(task_id, "running")


class TestWaitForDeadline:
    """``wait_for`` is ``get_result(timeout=)`` and ``wait_all`` is
    ``get_result`` in order against one deadline: the deadline
    properties the old sleep-poll loops were patched to have."""

    def test_returns_within_budget(self):
        clock = FakeClock()
        stub = ScriptedClient(clock, {"a": 1.5, "b": None, "c": None})
        with pytest.raises(TaskPending) as pending:
            stub.wait_all(["a", "b", "c"], timeout=2.0)
        assert pending.value.task_id == "b"  # the first still unfinished
        # One deadline for the whole list, not one timeout per task.
        assert clock.now == pytest.approx(2.0)
        clock = FakeClock()
        with pytest.raises(TaskPending):
            ScriptedClient(clock, {"t": None}).wait_for("t", timeout=2.0)
        assert clock.now == pytest.approx(2.0)

    def test_block_clamped_to_remaining(self):
        clock = FakeClock()
        stub = ScriptedClient(clock, {"a": 0.1, "b": 0.25, "c": 0.25, "d": None})
        with pytest.raises(TaskPending):
            stub.wait_all(["a", "b", "c", "d"], timeout=0.3)
        # Every block fits what is left of the budget when it starts.
        assert stub.timeouts_seen == pytest.approx([0.3, 0.2, 0.05, 0.05])
        assert clock.now == pytest.approx(0.3)
        # Past the deadline the rest are non-blocking checks, never
        # negative timeouts.
        clock = FakeClock()
        stub = ScriptedClient(clock, {"a": 9.0, "b": 0.0})
        assert stub.wait_all(["b"], timeout=0.0) == ["done:b"]
        with pytest.raises(TaskPending):
            stub.wait_all(["a", "b"], timeout=0.0)
        assert stub.timeouts_seen == [0.0, 0.0]

    def test_result_at_deadline_returned(self, deployment, client, monkeypatch):
        # Ready exactly at the deadline: returned, not TaskPending.
        clock = FakeClock()
        stub = ScriptedClient(clock, {"a": 2.0, "b": 2.0})
        assert stub.wait_for("a", timeout=2.0) == "done:a"
        assert stub.wait_all(["a", "b"], timeout=0.0) == ["done:a", "done:b"]
        assert stub.timeouts_seen[-1] == 0.0  # b: the non-blocking check
        # The same in the service: the completion lands as the wait runs
        # out (``Event.wait`` says "timed out"); the state decides.
        fid = client.register_function(double, public=True)
        lazy = deployment.create_endpoint("never-started", nodes=1, start=False)
        task_id = client.run(fid, lazy, 21)
        service = deployment.service

        class ExpiringEvent(threading.Event):
            def wait(self, timeout=None):
                service.complete_task(
                    task_id, success=True,
                    result_buffer=client.serializer.serialize(42))
                return False

        monkeypatch.setattr("repro.core.service.threading.Event", ExpiringEvent)
        assert client.wait_for(task_id, timeout=2.0) == 42
        assert service.task_by_id(task_id).waiters is None

    def test_result_mid_wait_returned(self):
        clock = FakeClock()
        stub = ScriptedClient(clock, {"t": 0.9})
        assert stub.wait_for("t", timeout=5.0) == "done:t"
        assert clock.now == pytest.approx(0.9)


def _waiters(service) -> int:
    return sum(len(task.waiters or ()) for task in service.iter_tasks())


class TestFutureForSubscriptionLeak:
    """The PR-7 leak class, by construction: a client future is no
    longer a subscription that every exit path must remember to
    drop, it is a waiter on the task record — fired and cleared by the
    completing wave, or never registered when the wave has been."""

    def test_memo_hit_fast_path_does_not_leak(self, deployment, client,
                                              endpoint_id):
        fid = client.register_function(double, public=True)
        # Prime the memo cache through the live path.
        client.submit(fid, endpoint_id, 7, memoize=True).result(timeout=30)
        assert _waiters(deployment.service) == 0
        for _ in range(10):
            # A memo hit is terminal before ``_future_for`` runs: the
            # future resolves inside ``submit`` and registers nothing.
            future = client.submit(fid, endpoint_id, 7, memoize=True)
            assert future.done() and future.result(timeout=0) == 14
        assert _waiters(deployment.service) == 0
        assert len(deployment.service.events) == 0

    def test_error_path_does_not_leak(self, deployment, client, endpoint_id):
        fid = client.register_function(double, public=True)
        task_id = client.run(fid, endpoint_id, 7)
        client.wait_for(task_id, timeout=30)
        assert deployment.service.forget_task(task_id)
        # The record is gone: registration refuses, and there is no
        # record left for a waiter to be stranded on.
        with pytest.raises(TaskNotFound):
            client._future_for(task_id)
        assert _waiters(deployment.service) == 0
        # A result fetch that fails resolves the future with the error
        # and the waiter is consumed all the same.
        lazy = deployment.create_endpoint("never-started", nodes=1, start=False)
        future = client.submit(fid, lazy, 7)
        assert _waiters(deployment.service) == 1
        deployment.service.complete_task(
            future.task_id, success=False, exception_text="boom")
        with pytest.raises(TaskExecutionFailed):
            future.result(timeout=0)
        assert _waiters(deployment.service) == 0


class TestClientCancel:
    def test_future_cancel_propagates_to_service(self, deployment, client,
                                                 endpoint_id):
        def slow(x):
            import time as t
            t.sleep(0.5)
            return x

        fid = client.register_function(slow, public=True)
        blocker = client.submit(fid, endpoint_id, 0)
        victim = client.submit(fid, endpoint_id, 1)
        assert victim.cancel() is True
        assert victim.cancelled
        with pytest.raises(TaskCancelled):
            victim.result(timeout=5)
        assert deployment.service.tasks_cancelled == 1
        assert blocker.result(timeout=30) == 0

    def test_cancel_loses_to_result(self, client, endpoint_id):
        fid = client.register_function(double, public=True)
        future = client.submit(fid, endpoint_id, 3)
        assert future.result(timeout=30) == 6
        assert future.cancel() is False
        assert not future.cancelled
