"""Every payload byte has an owner and an exit — proved as counts.

The argument buffer leaves its task record at the terminal state, the
result buffer when the last stream watcher acks its delivery, and the
record itself ``result_ttl`` after the later of its terminal time and
its last retrieval.  These tests read ``service.retained_bytes`` (the
sum the shards maintain under their locks) and the records themselves;
none reads an RSS.
"""

from __future__ import annotations

import time
from collections import deque

import pytest

from repro.auth import AuthService
from repro.chaos.invariants import ShardConservation
from repro.core.futures import FuncXFuture
from repro.core.service import FuncXService
from repro.core.tasks import TaskState
from repro.errors import ResultPurged, TaskNotFound
from repro.fabric import LocalDeployment
from repro.serialize import FuncXSerializer
from repro.staging.transfer import fetch_ref

BLOB = 64 * 1024


def echo(blob):
    return blob


@pytest.fixture
def service(clock):
    # Tokens outlive every ``result_ttl`` these tests advance past.
    auth = AuthService(token_lifetime=1e9, clock=clock)
    return FuncXService(auth=auth, clock=clock)


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
    return service.register_function(
        user_token, "echo", FuncXSerializer().serialize_function(echo),
        public=True)


PAYLOAD = FuncXSerializer().serialize(([1], {}))


def submit_one(service, user_token, function_id, endpoint_id):
    return service.submit(user_token, function_id, endpoint_id, PAYLOAD)


def retained(service) -> int:
    """The operator's view: the per-shard gauges, summed."""
    return int(sum(
        service.metrics.gauge("service.retained_bytes", shard=str(i)).value
        for i in range(len(service.shards))))


def held(service) -> int:
    """The same sum, recounted from the records."""
    return sum(len(task.payload_buffer) + len(task.result_buffer or b"")
               for task in service.iter_tasks())


def counter(service, name: str) -> int:
    return int(service.metrics.counter(name).value)


class Collector:
    def __init__(self):
        self.batches = []

    def __call__(self, batch):
        self.batches.append(batch)


def watcher(service):
    sub = service.result_stream.subscribe(auto_deliver=False)
    collector = Collector()
    sub.attach(collector)
    return sub, collector


def wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


# ---------------------------------------------------------------------------
# flat in task count, through a real executor
# ---------------------------------------------------------------------------
def run_echoes(count: int, outstanding: int = 8) -> tuple[int, int, int]:
    """``count`` acked 64 KiB echoes, ``outstanding`` at a time; returns
    (retained at the end, the most retained at any completion, window)."""
    blob = bytes(range(256)) * (BLOB // 256)
    with LocalDeployment() as deployment:
        service = deployment.service
        client = deployment.client()
        endpoint = deployment.create_endpoint("retention", nodes=1)
        function_id = client.register_function(echo)
        executor = client.executor(endpoint)
        window = executor.subscription.window
        pending: deque[FuncXFuture] = deque()
        peak = 0
        for _ in range(count):
            if len(pending) == outstanding:
                assert pending.popleft().result(timeout=30) == blob
                peak = max(peak, retained(service))
            pending.append(executor.submit(function_id, blob))
        for future in pending:
            assert future.result(timeout=30) == blob
        # The ack follows the future's resolution on the delivery thread.
        assert wait_until(lambda: counter(service, "service.results_purged")
                      == count)
        executor.shutdown(wait=True)
        assert retained(service) == held(service)
        assert len(service.iter_tasks()) == count  # records outlive bytes
        return retained(service), peak, window


class TestFlatInTaskCount:
    def test_retained_bytes_do_not_grow_with_the_run(self):
        outstanding = 8
        small, small_peak, window = run_echoes(200, outstanding)
        large, large_peak, _ = run_echoes(800, outstanding)
        assert small == large == 0
        # In flight: an argument buffer each; delivered and not yet
        # acked: a result buffer each, at most a window of them.
        bound = (outstanding + window) * (BLOB + 256)
        assert 0 < small_peak <= bound
        assert 0 < large_peak <= bound


# ---------------------------------------------------------------------------
# who releases what, stepped by hand
# ---------------------------------------------------------------------------
class TestReleaseOnAck:
    def test_arguments_go_at_the_terminal_state(self, service, user_token,
                                                function_id, endpoint_id):
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        task = service.task_by_id(task_id)
        assert retained(service) == len(PAYLOAD) == task.payload_size
        service.complete_task(task_id, success=True, result_buffer=b"r" * 100)
        assert task.payload_buffer == b""
        assert task.payload_size == len(PAYLOAD)
        assert (task.result_size, retained(service)) == (100, 100)

    def test_cancelled_and_failed_tasks_release_their_arguments(
            self, service, user_token, function_id, endpoint_id):
        cancelled = submit_one(service, user_token, function_id, endpoint_id)
        failed = submit_one(service, user_token, function_id, endpoint_id)
        assert retained(service) == 2 * len(PAYLOAD)
        assert service.cancel_task(user_token, cancelled)
        service.complete_task(failed, success=False, exception_text="boom")
        for task_id in (cancelled, failed):
            task = service.task_by_id(task_id)
            assert task.payload_buffer == b""
            assert task.payload_size == len(PAYLOAD)
        assert retained(service) == held(service) == 0

    def test_buffer_survives_the_first_ack_and_goes_on_the_second(
            self, service, user_token, function_id, endpoint_id):
        first, first_seen = watcher(service)
        second, second_seen = watcher(service)
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        first.watch(task_id)
        second.watch(task_id)
        service.complete_task(task_id, success=True, result_buffer=b"r" * 100)
        assert service.result_stream.step() == 2
        task = service.task_by_id(task_id)

        first.ack(first_seen.batches[0].delivery_id)
        assert task.result_buffer == b"r" * 100 and not task.released
        assert retained(service) == 100
        assert counter(service, "service.results_purged") == 0

        second.ack(second_seen.batches[0].delivery_id)
        assert task.result_buffer is None and task.released
        assert retained(service) == held(service) == 0
        assert counter(service, "service.results_purged") == 1
        record = service.task_info(user_token, task_id)  # still answers
        assert record["state"] == TaskState.SUCCESS.value
        assert (record["payload_size"], record["result_size"],
                record["released"]) == (len(PAYLOAD), 100, True)

    def test_recover_before_the_ack_redelivers_the_full_spilled_payload(
            self, service, user_token, function_id, endpoint_id):
        payload = bytes(range(256)) * 512  # 128 KiB: above the spill line
        sub, seen = watcher(service)
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        sub.watch(task_id)
        service.complete_task(task_id, success=True, result_buffer=payload)
        assert service.result_stream.step() == 1
        assert sub.recover() == 1  # the batch was lost in flight
        assert service.task_by_id(task_id).result_buffer == payload
        assert service.result_stream.step() == 1
        (message,) = seen.batches[1].results
        assert not message.purged and message.result_buffer == b""
        assert fetch_ref(message.result_ref) == payload
        assert retained(service) == len(payload)
        sub.ack(seen.batches[1].delivery_id)
        assert retained(service) == 0
        assert len(service.result_stream.spill) == 0

    def test_an_unacked_subscription_that_closes_leaves_the_result(
            self, service, user_token, function_id, endpoint_id):
        sub, _seen = watcher(service)
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        sub.watch(task_id)
        service.complete_task(task_id, success=True, result_buffer=b"r")
        assert service.result_stream.step() == 1
        sub.close()
        assert service.get_result(user_token, task_id) == b"r"


# ---------------------------------------------------------------------------
# what a reader sees after release
# ---------------------------------------------------------------------------
class TestResultPurged:
    def release(self, service, user_token, function_id, endpoint_id) -> str:
        sub, seen = watcher(service)
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        sub.watch(task_id)
        service.complete_task(task_id, success=True, result_buffer=b"r")
        service.result_stream.step()
        sub.ack(seen.batches[0].delivery_id)
        return task_id

    def test_get_result_of_a_released_task(self, service, user_token,
                                           function_id, endpoint_id):
        task_id = self.release(service, user_token, function_id, endpoint_id)
        with pytest.raises(ResultPurged):
            service.get_result(user_token, task_id)
        assert service.status(user_token, task_id) is TaskState.SUCCESS

    def test_late_watch_is_delivered_as_purged(self, service, user_token,
                                               function_id, endpoint_id):
        task_id = self.release(service, user_token, function_id, endpoint_id)
        late, seen = watcher(service)
        late.watch(task_id)
        assert service.result_stream.step() == 1
        (message,) = seen.batches[0].results
        assert message.purged and message.result_buffer == b""
        late.ack(seen.batches[0].delivery_id)
        assert late.watched == 0

    def test_late_watch_resolves_the_executor_future_with_result_purged(self):
        with LocalDeployment() as deployment:
            service = deployment.service
            client = deployment.client()
            endpoint = deployment.create_endpoint("late", nodes=1)
            executor = client.executor(endpoint)
            first = executor.submit(echo, "x")
            assert first.result(timeout=30) == "x"
            assert wait_until(lambda: service.task_by_id(first.task_id).released)
            # A second handle on the same task, watched after the release.
            late = FuncXFuture(first.task_id)
            with executor._lock:
                executor._futures[first.task_id] = late
            executor.subscription.watch(first.task_id)
            assert isinstance(late.exception(timeout=30), ResultPurged)
            with pytest.raises(ResultPurged):
                client.get_result(first.task_id)
            assert client.service.task_info(
                client._token(), first.task_id)["released"]
            executor.shutdown(wait=True)


# ---------------------------------------------------------------------------
# records expire
# ---------------------------------------------------------------------------
class TestExpiry:
    def test_retrieved_result_expires_ttl_after_its_last_retrieval(
            self, service, user_token, function_id, endpoint_id, clock):
        ttl = service.config.result_ttl
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        service.complete_task(task_id, success=True, result_buffer=b"r")
        clock.advance(ttl - 1)
        assert service.get_result(user_token, task_id) == b"r"  # re-arms
        clock.advance(2)  # past terminal + ttl, not past retrieval + ttl
        assert service.purge() == 0
        assert service.get_result(user_token, task_id) == b"r"
        clock.advance(ttl + 1)
        assert service.purge() == 1
        assert counter(service, "service.records_expired") == 1
        with pytest.raises(ResultPurged):
            service.get_result(user_token, task_id)
        with pytest.raises(TaskNotFound):
            service.task_info(user_token, task_id)
        with pytest.raises(TaskNotFound):  # never a task here
            service.get_result(user_token, "no-such-task")
        assert retained(service) == held(service) == 0

    def test_completions_sweep_with_no_purge_call(self, service, user_token,
                                                  function_id, endpoint_id,
                                                  clock):
        old = submit_one(service, user_token, function_id, endpoint_id)
        service.complete_task(old, success=True, result_buffer=b"old")
        clock.advance(service.config.result_ttl + 1)
        new = submit_one(service, user_token, function_id, endpoint_id)
        service.complete_task(new, success=True, result_buffer=b"new")
        assert [task.task_id for task in service.iter_tasks()] == [new]
        assert retained(service) == held(service) == len(b"new")

    def test_open_tasks_never_expire(self, service, user_token, function_id,
                                     endpoint_id, clock):
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        clock.advance(10 * service.config.result_ttl)
        assert service.purge() == 0
        assert service.task_by_id(task_id).payload_buffer == PAYLOAD

    def test_shard_accounting_closes_across_a_sweep(
            self, service, user_token, function_id, endpoint_id, clock):
        events = []
        service.events.subscribe(
            lambda _source, kind, fields: events.append((kind, fields)))
        ids = [submit_one(service, user_token, function_id, endpoint_id)
               for _ in range(4)]
        service.complete_task(ids[0], success=True, result_buffer=b"r")
        service.complete_task(ids[1], success=False, exception_text="boom")
        assert service.cancel_task(user_token, ids[2])
        before = service.shards[0].counters()
        clock.advance(service.config.result_ttl + 1)
        assert service.purge() == 3
        after = service.shards[0].counters()
        assert after == before  # expiring terminal records moves no counter
        assert after["open"] == (after["received"] - after["terminated"]
                                 - after["forgotten_open"]) == 1
        assert [task.task_id for task in service.iter_tasks()] == [ids[3]]
        causes = [fields["cause"] for event, fields in events
                  if event == "shard.accounting"]
        assert causes.count("expire") == 3
        violations = []
        invariant = ShardConservation()
        for event, fields in events:
            invariant.on_event("shard", event, fields,
                               lambda text, _fields: violations.append(text))
        assert violations == []
