"""Tests for push-based result delivery (ResultStreamServer) and task
cancellation on the service.

Unit tests drive the stream deterministically: ``subscribe(auto_deliver=
False)`` skips the delivery thread and every delivery pass is an explicit
``server.step()``.  The chaos-marked classes run a live deployment and
exercise the disconnect/redelivery machinery under the no-double-resolve
invariant (counted off the deployment's event spine).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.auth import AuthService
from repro.core.service import FuncXService, ServiceConfig
from repro.core.stream import MAX_BATCH
from repro.core.tasks import TaskState
from repro.errors import TaskCancelled, TaskNotFound
from repro.serialize import FuncXSerializer
from repro.staging.transfer import fetch_ref


@pytest.fixture
def service(clock):
    return FuncXService(auth=AuthService(clock=clock), clock=clock)


@pytest.fixture
def user_token(service):
    identity = service.auth.register_identity("alice")
    return service.auth.native_client_flow(identity).token


@pytest.fixture
def endpoint_id(service):
    _identity, token = service.auth.endpoint_client_flow("test-ep")
    return service.register_endpoint(token.token, name="test-ep")


@pytest.fixture
def function_id(service, user_token):
    def double(x):
        return 2 * x

    return service.register_function(
        user_token, "double", FuncXSerializer().serialize_function(double),
        public=True)


def submit_one(service, user_token, function_id, endpoint_id, **kwargs):
    payload = FuncXSerializer().serialize(([1], {}))
    return service.submit(user_token, function_id, endpoint_id, payload, **kwargs)


class Collector:
    """A consumer recording every delivered batch."""

    def __init__(self, sub=None, auto_ack=False):
        self.batches = []
        self.sub = sub
        self.auto_ack = auto_ack

    def __call__(self, batch):
        self.batches.append(batch)
        if self.auto_ack:
            self.sub.ack(batch.delivery_id)

    @property
    def task_ids(self):
        return [m.task_id for b in self.batches for m in b.results]


class TestSubscription:
    def test_watch_then_complete_delivers(self, service, user_token,
                                          function_id, endpoint_id):
        sub = service.result_stream.subscribe(auto_deliver=False)
        collector = Collector()
        sub.attach(collector)
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        sub.watch(task_id)
        assert service.result_stream.step() == 0  # not terminal yet
        service.complete_task(task_id, success=True, result_buffer=b"payload")
        assert service.result_stream.step() == 1
        (batch,) = collector.batches
        (message,) = batch.results
        assert message.task_id == task_id
        assert message.success and not message.cancelled
        assert message.result_buffer == b"payload"
        assert batch.delivery_id and batch.subscriber_id == sub.subscriber_id

    def test_watch_already_terminal_delivers(self, service, user_token,
                                             function_id, endpoint_id):
        # Memo hits complete before the watch lands; watching a terminal
        # task must still enqueue it.
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        service.complete_task(task_id, success=True, result_buffer=b"r")
        sub = service.result_stream.subscribe(auto_deliver=False)
        collector = Collector()
        sub.attach(collector)
        sub.watch(task_id)
        assert service.result_stream.step() == 1
        assert collector.task_ids == [task_id]

    def test_completions_coalesce_into_one_batch(self, service, user_token,
                                                 function_id, endpoint_id):
        sub = service.result_stream.subscribe(auto_deliver=False)
        collector = Collector()
        sub.attach(collector)
        task_ids = [submit_one(service, user_token, function_id, endpoint_id)
                    for _ in range(5)]
        for task_id in task_ids:
            sub.watch(task_id)
            service.complete_task(task_id, success=True, result_buffer=b"r")
        assert service.result_stream.step() == 5
        assert len(collector.batches) == 1
        assert sorted(collector.task_ids) == sorted(task_ids)

    def test_no_consumer_no_delivery(self, service, user_token,
                                     function_id, endpoint_id):
        sub = service.result_stream.subscribe(auto_deliver=False)
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        sub.watch(task_id)
        service.complete_task(task_id, success=True, result_buffer=b"r")
        assert service.result_stream.step() == 0
        assert sub.backlog == 1

    def test_credit_window_bounds_unacked(self, service, user_token,
                                          function_id, endpoint_id):
        sub = service.result_stream.subscribe(window=4, auto_deliver=False)
        collector = Collector()
        sub.attach(collector)
        for _ in range(10):
            task_id = submit_one(service, user_token, function_id, endpoint_id)
            sub.watch(task_id)
            service.complete_task(task_id, success=True, result_buffer=b"r")
        assert service.result_stream.step() == 4
        # Window exhausted: further passes stall instead of delivering.
        stalls_before = service.metrics.counter("stream.credit_stalls").value
        assert service.result_stream.step() == 0
        assert service.metrics.counter("stream.credit_stalls").value > stalls_before
        assert sub.unacked_results == 4 <= sub.window
        assert sub.backlog == 6

    def test_ack_reopens_window(self, service, user_token,
                                function_id, endpoint_id):
        sub = service.result_stream.subscribe(window=4, auto_deliver=False)
        collector = Collector()
        sub.attach(collector)
        for _ in range(10):
            task_id = submit_one(service, user_token, function_id, endpoint_id)
            sub.watch(task_id)
            service.complete_task(task_id, success=True, result_buffer=b"r")
        while service.result_stream.step() or sub.unacked_results:
            for batch in list(collector.batches):
                sub.ack(batch.delivery_id)
            collector.batches.clear()
        assert sub.backlog == 0
        assert sub.unacked_results == 0
        assert service.metrics.counter(
            "stream.results_delivered").value == 10

    def test_duplicate_completion_enqueues_once(self, service, user_token,
                                                function_id, endpoint_id):
        sub = service.result_stream.subscribe(auto_deliver=False)
        collector = Collector()
        sub.attach(collector)
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        sub.watch(task_id)
        service.complete_task(task_id, success=True, result_buffer=b"r")
        # A duplicate result (requeue race) and a second watch of the id
        # the subscription holds must not queue the result twice.
        assert not service.complete_task(task_id, success=True,
                                         result_buffer=b"r")
        sub.watch(task_id)
        assert service.result_stream.step() == 1
        assert service.result_stream.step() == 0

    def test_consumer_error_detaches_then_redelivers(self, service, user_token,
                                                     function_id, endpoint_id):
        sub = service.result_stream.subscribe(auto_deliver=False)
        sub.attach(lambda batch: (_ for _ in ()).throw(OSError("dropped")))
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        sub.watch(task_id)
        service.complete_task(task_id, success=True, result_buffer=b"r")
        assert service.result_stream.step() == 0  # delivery failed
        assert sub.consumer is None               # treated as disconnected
        assert service.metrics.counter("stream.consumer_errors").value == 1
        assert sub.unacked_results == 0           # batch went back to the queue
        # Reconnect: the result redelivers under a fresh delivery id.
        collector = Collector()
        sub.attach(collector)
        assert service.result_stream.step() == 1
        assert collector.task_ids == [task_id]
        assert service.metrics.counter("stream.redeliveries").value == 1

    def test_recover_requeues_unacked_batches(self, service, user_token,
                                              function_id, endpoint_id):
        sub = service.result_stream.subscribe(auto_deliver=False)
        collector = Collector()
        sub.attach(collector)
        task_ids = [submit_one(service, user_token, function_id, endpoint_id)
                    for _ in range(3)]
        for task_id in task_ids:
            sub.watch(task_id)
            service.complete_task(task_id, success=True, result_buffer=b"r")
        assert service.result_stream.step() == 3
        first_delivery = collector.batches[0].delivery_id
        # The client lost the batch in flight: recover() nacks everything
        # delivered-unacked and it redelivers under a new delivery id.
        assert sub.recover() == 3
        assert sub.unacked_results == 0
        assert service.result_stream.step() == 3
        assert collector.batches[-1].delivery_id != first_delivery
        assert sorted(collector.task_ids) == sorted(task_ids * 2)

    def test_large_result_spills_to_staging(self, clock, user_token=None):
        service = FuncXService(
            auth=AuthService(clock=clock), clock=clock,
            config=ServiceConfig(stream_spill_threshold=64))
        identity = service.auth.register_identity("alice")
        token = service.auth.native_client_flow(identity).token
        _eid, ep_token = service.auth.endpoint_client_flow("ep")
        endpoint_id = service.register_endpoint(ep_token.token, name="ep")
        function_id = service.register_function(
            token, "f", FuncXSerializer().serialize_function(lambda: None),
            public=True)
        sub = service.result_stream.subscribe(auto_deliver=False)
        collector = Collector()
        sub.attach(collector)
        payload = FuncXSerializer().serialize(([1], {}))
        task_id = service.submit(token, function_id, endpoint_id, payload)
        sub.watch(task_id)
        big = b"x" * 1000
        service.complete_task(task_id, success=True, result_buffer=big)
        assert service.result_stream.step() == 1
        (message,) = collector.batches[0].results
        assert message.result_buffer == b""          # shipped out of band
        assert message.result_ref is not None
        assert fetch_ref(message.result_ref) == big  # round-trips
        assert service.metrics.counter("stream.results_spilled").value == 1
        sub.ack(collector.batches[0].delivery_id)
        assert len(service.result_stream.spill) == 0  # cleaned on ack

    def test_failed_task_streams_failure(self, service, user_token,
                                         function_id, endpoint_id):
        sub = service.result_stream.subscribe(auto_deliver=False)
        collector = Collector()
        sub.attach(collector)
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        sub.watch(task_id)
        service.complete_task(task_id, success=False, exception_text="boom")
        assert service.result_stream.step() == 1
        (message,) = collector.batches[0].results
        assert not message.success and not message.cancelled
        assert message.exception_text == "boom"

    def test_cancelled_task_streams_cancelled_flag(self, service, user_token,
                                                   function_id, endpoint_id):
        sub = service.result_stream.subscribe(auto_deliver=False)
        collector = Collector()
        sub.attach(collector)
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        sub.watch(task_id)
        assert service.cancel_task(user_token, task_id)
        assert service.result_stream.step() == 1
        (message,) = collector.batches[0].results
        assert message.cancelled and not message.success

    def test_close_forgets_subscription(self, service):
        sub = service.result_stream.subscribe(auto_deliver=False)
        assert service.result_stream.subscription_count() == 1
        sub.close()
        assert service.result_stream.subscription_count() == 0
        with pytest.raises(RuntimeError):
            sub.watch("t")
        with pytest.raises(RuntimeError):
            sub.attach(lambda batch: None)

    def test_subscribe_validates_window(self, service):
        with pytest.raises(ValueError):
            service.result_stream.subscribe(window=0)

    def test_batch_cap(self, service):
        sub = service.result_stream.subscribe(
            window=10 * MAX_BATCH, auto_deliver=False)
        assert sub.window - sub.unacked_results == 10 * MAX_BATCH  # as granted


class TestWatchIsAWaiter:
    """A watch is a waiter on the task record plus one of its readers."""

    def test_a_wave_is_one_call_and_one_mark(self, service, user_token,
                                             function_id, endpoint_id):
        server = service.result_stream
        sub = server.subscribe(auto_deliver=False)
        calls, marks = [], []
        tasks_ready, mark = sub.tasks_ready, server.mark

        def counted_ready(tasks):
            calls.append(len(tasks))
            tasks_ready(tasks)

        def counted_mark(marked):
            marks.append(marked)
            mark(marked)

        sub.tasks_ready = counted_ready     # the waiter the watch leaves
        server.mark = counted_mark
        task_ids = [submit_one(service, user_token, function_id, endpoint_id)
                    for _ in range(8)]
        sub.watch_many(task_ids)
        assert calls == [] and marks == []
        service.complete_tasks(service.shards[0], [
            (task_id, True, b"r", None, 0.0, {}) for task_id in task_ids])
        assert calls == [8] and marks == [sub]
        assert sub.backlog == 8

    def test_recover_redelivers_in_the_original_order(
            self, service, user_token, function_id, endpoint_id):
        sub = service.result_stream.subscribe(auto_deliver=False)
        collector = Collector()
        sub.attach(collector)
        task_ids = [submit_one(service, user_token, function_id, endpoint_id)
                    for _ in range(5)]
        sub.watch_many(task_ids)
        for wave in (task_ids[:3], task_ids[3:]):  # two unacked batches
            for task_id in wave:
                service.complete_task(task_id, success=True, result_buffer=b"r")
            assert service.result_stream.step() == len(wave)
        assert sub.recover() == 5
        assert service.result_stream.step() == 5
        assert collector.task_ids == task_ids * 2

    def test_last_reader_releases_after_another_closed_unacked(
            self, service, user_token, function_id, endpoint_id):
        first = service.result_stream.subscribe(auto_deliver=False)
        second = service.result_stream.subscribe(auto_deliver=False)
        collectors = Collector(), Collector()
        first.attach(collectors[0])
        second.attach(collectors[1])
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        first.watch(task_id)
        second.watch(task_id)
        service.complete_task(task_id, success=True, result_buffer=b"r")
        assert service.result_stream.step() == 2
        task = service.task_by_id(task_id)
        assert task.readers == 2
        first.close()                       # never acked: releases nothing
        assert task.readers == 1 and not task.released
        second.ack(collectors[1].batches[0].delivery_id)
        assert task.readers == 0 and task.released
        assert service.metrics.counter("service.results_purged").value == 1


class TestDeliverDontDrop:
    """A watched id is always answered: with its result, or ``purged``."""

    def test_record_gone_before_delivery_is_delivered_purged(
            self, service, clock, user_token, function_id, endpoint_id):
        sub = service.result_stream.subscribe(auto_deliver=False)
        collector = Collector()
        sub.attach(collector)
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        sub.watch(task_id)
        service.complete_task(task_id, success=True, result_buffer=b"r")
        clock.advance(service.config.result_ttl + 1)
        assert service.purge() == 1         # expired before the pass ran
        assert service.result_stream.step() == 1
        (message,) = collector.batches[0].results
        assert message.task_id == task_id and message.purged
        assert not message.success and message.result_buffer == b""
        sub.ack(collector.batches[0].delivery_id)
        assert sub.watched == 0

    def test_watch_of_a_minted_id_whose_record_left_queues_at_once(
            self, service, clock, user_token, function_id, endpoint_id):
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        service.complete_task(task_id, success=True, result_buffer=b"r")
        clock.advance(service.config.result_ttl + 1)
        assert service.purge() == 1
        sub = service.result_stream.subscribe(auto_deliver=False)
        collector = Collector()
        sub.attach(collector)
        sub.watch(task_id)
        assert sub.backlog == 1
        assert service.result_stream.step() == 1
        (message,) = collector.batches[0].results
        assert message.task_id == task_id and message.purged
        sub.ack(collector.batches[0].delivery_id)
        assert sub.watched == 0

    def test_watch_of_an_id_never_minted_raises(self, service):
        sub = service.result_stream.subscribe(auto_deliver=False)
        with pytest.raises(TaskNotFound):
            sub.watch("not-a-task")
        assert sub.watched == 0 and sub.backlog == 0


class TestCancelTask:
    def test_cancel_queued_task(self, service, user_token,
                                function_id, endpoint_id):
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        assert service.cancel_task(user_token, task_id) is True
        assert service.status(user_token, task_id) is TaskState.CANCELLED
        with pytest.raises(TaskCancelled):
            service.get_result(user_token, task_id)
        assert service.tasks_cancelled == 1

    def test_cancel_twice_second_loses(self, service, user_token,
                                       function_id, endpoint_id):
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        assert service.cancel_task(user_token, task_id) is True
        assert service.cancel_task(user_token, task_id) is False
        assert service.tasks_cancelled == 1

    def test_cancel_after_completion_loses(self, service, user_token,
                                           function_id, endpoint_id):
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        service.complete_task(task_id, success=True, result_buffer=b"r")
        assert service.cancel_task(user_token, task_id) is False
        assert service.get_result(user_token, task_id) == b"r"

    def test_late_result_suppressed_and_counted(self, service, user_token,
                                                function_id, endpoint_id):
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        assert service.cancel_task(user_token, task_id)
        # The worker's result arrives after the cancel: first outcome
        # wins — the recorded state stays CANCELLED.
        assert service.complete_task(
            task_id, success=True, result_buffer=b"late") is False
        assert service.post_cancel_results == 1
        assert service.status(user_token, task_id) is TaskState.CANCELLED
        with pytest.raises(TaskCancelled):
            service.get_result(user_token, task_id)


def delivery_counts(deployment) -> dict[str, int]:
    """Resolutions per task of ``deployment``'s futures, kept current
    off its event spine."""
    counts: dict[str, int] = {}
    lock = threading.Lock()

    def count(_source, kind, fields):
        if kind == "future.delivered":
            with lock:
                counts[fields["task_id"]] = counts.get(fields["task_id"], 0) + 1

    deployment.service.events.subscribe(count)
    return counts


@pytest.mark.chaos
class TestStreamChaos:
    def test_disconnect_reconnect_resolves_every_future_once(self):
        from repro import LocalDeployment

        def work(x):
            import time as t
            t.sleep(0.005)
            return x * 3

        with LocalDeployment() as dep:
            counts = delivery_counts(dep)
            client = dep.client()
            ep = dep.create_endpoint("chaos", nodes=1)
            with client.executor(ep) as executor:
                futures = [executor.submit(work, i) for i in range(30)]
                # Sever the stream mid-run (client "disconnect"), let
                # results pile into the backlog, then reconnect and
                # requeue whatever was in flight.
                time.sleep(0.05)
                executor.subscription.detach()
                time.sleep(0.1)
                executor.subscription.recover()
                executor.subscription.attach(executor._on_result_batch)
                results = [f.result(timeout=30) for f in futures]
            assert results == [i * 3 for i in range(30)]
        resolved = {f.task_id for f in futures}
        assert all(counts[t] == 1 for t in resolved)

    def test_dropped_batch_redelivers_without_double_resolve(self):
        from repro import LocalDeployment

        with LocalDeployment() as dep:
            counts = delivery_counts(dep)
            client = dep.client()
            ep = dep.create_endpoint("chaos", nodes=1)
            with client.executor(ep) as executor:
                real = executor._on_result_batch
                dropped = threading.Event()

                def flaky(batch):
                    # First batch is "lost on the wire": the server
                    # detaches us and nacks it for redelivery.
                    if not dropped.is_set():
                        dropped.set()
                        raise OSError("connection reset")
                    real(batch)

                executor.subscription.detach()
                executor.subscription.attach(flaky)
                futures = [executor.submit(lambda x: x + 1, i)
                           for i in range(20)]
                assert dropped.wait(timeout=10)
                # Reconnect once the server has detached the erroring
                # consumer (attaching any earlier would be undone by that
                # detach); the nacked batch then redelivers.
                deadline = time.monotonic() + 10
                while executor.subscription.consumer is not None:
                    assert time.monotonic() < deadline, "never detached"
                    time.sleep(0.001)
                executor.subscription.attach(flaky)
                results = [f.result(timeout=30) for f in futures]
            assert results == [i + 1 for i in range(20)]
            assert dep.metrics.counter("stream.redeliveries").value >= 1
            assert dep.metrics.counter("stream.consumer_errors").value == 1
        resolved = {f.task_id for f in futures}
        assert all(counts[t] == 1 for t in resolved)

    def test_slow_consumer_bounded_by_window(self):
        from repro import LocalDeployment

        window = 4
        tasks = 16
        with LocalDeployment() as dep:
            client = dep.client()
            ep = dep.create_endpoint("chaos", nodes=1)
            fid = client.register_function(lambda x: x, public=True)
            sub = dep.service.result_stream.subscribe(window=window)
            peak = 0
            received: list[str] = []
            lock = threading.Lock()

            def never_acks(batch):
                # A stalled client: record the batch, never ack it.
                with lock:
                    received.append(batch.delivery_id)

            sub.attach(never_acks)
            task_ids = [client.run(fid, ep, i) for i in range(tasks)]
            for task_id in task_ids:
                sub.watch(task_id)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                unacked = sub.unacked_results
                peak = max(peak, unacked)
                if unacked == window and sub.backlog >= tasks - window:
                    break
                time.sleep(0.01)
            # Delivered-unacked never exceeds the advertised window; the
            # rest sheds into the bounded, observable backlog queue.
            assert peak <= window
            assert sub.unacked_results == window
            assert sub.backlog == tasks - window
            # The stalled client wakes up and acks: everything drains.
            with lock:
                backlog_ids = list(received)
            for delivery_id in backlog_ids:
                sub.ack(delivery_id)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                with lock:
                    for delivery_id in received:
                        sub.ack(delivery_id)
                if (dep.metrics.counter("stream.results_delivered").value
                        >= tasks):
                    break
                time.sleep(0.01)
            assert dep.metrics.counter(
                "stream.results_delivered").value >= tasks
            assert sub.unacked_results <= window
            sub.close()


class TestDetachCleanup:
    """The erroring-consumer detach and close paths must give credits
    back to the window AND delete any payload spilled for the batch —
    the protocol audit's stream findings (credit + spill lifecycle)."""

    @staticmethod
    def _spilling_service(clock):
        service = FuncXService(
            auth=AuthService(clock=clock), clock=clock,
            config=ServiceConfig(stream_spill_threshold=64))
        identity = service.auth.register_identity("alice")
        token = service.auth.native_client_flow(identity).token
        _eid, ep_token = service.auth.endpoint_client_flow("ep")
        endpoint_id = service.register_endpoint(ep_token.token, name="ep")
        function_id = service.register_function(
            token, "f", FuncXSerializer().serialize_function(lambda: None),
            public=True)
        return service, token, endpoint_id, function_id

    def test_erroring_consumer_restores_credits_and_drops_spill(self, clock):
        service, token, endpoint_id, function_id = self._spilling_service(clock)
        sub = service.result_stream.subscribe(auto_deliver=False)
        window = sub.window - sub.unacked_results
        sub.attach(lambda batch: (_ for _ in ()).throw(OSError("dropped")))
        payload = FuncXSerializer().serialize(([1], {}))
        task_id = service.submit(token, function_id, endpoint_id, payload)
        sub.watch(task_id)
        big = b"x" * 1000
        service.complete_task(task_id, success=True, result_buffer=big)
        assert service.result_stream.step() == 0  # delivery failed, detached
        assert sub.consumer is None
        # The failed delivery must not pin the credit window or leave the
        # undelivered payload in the staging store.
        assert sub.window - sub.unacked_results == window
        assert len(service.result_stream.spill) == 0
        # Reconnect: redelivery re-spills from the task record.
        collector = Collector()
        sub.attach(collector)
        assert service.result_stream.step() == 1
        (message,) = collector.batches[0].results
        assert fetch_ref(message.result_ref) == big
        sub.ack(collector.batches[0].delivery_id)
        assert len(service.result_stream.spill) == 0
        assert sub.window - sub.unacked_results == window

    def test_close_with_unacked_spilled_batch_cleans_up(self, clock):
        service, token, endpoint_id, function_id = self._spilling_service(clock)
        sub = service.result_stream.subscribe(auto_deliver=False)
        window = sub.window - sub.unacked_results
        collector = Collector()
        sub.attach(collector)
        payload = FuncXSerializer().serialize(([1], {}))
        task_id = service.submit(token, function_id, endpoint_id, payload)
        sub.watch(task_id)
        service.complete_task(task_id, success=True, result_buffer=b"y" * 1000)
        assert service.result_stream.step() == 1
        assert sub.unacked_results == 1
        # Close without acking: the subscription's last act returns its
        # credits and deletes the spilled payload it never delivered.
        sub.close()
        assert sub.window - sub.unacked_results == window
        assert len(service.result_stream.spill) == 0
        assert service.result_stream.subscription_count() == 0
