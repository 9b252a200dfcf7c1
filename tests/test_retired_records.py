"""A retired record answers as it did while it was a ``Task``.

When the stream ack that brings a record's readers to 0 leaves it with no
result bytes, its shard keeps it as one row of
:class:`~repro.core.shard.RetiredRows` and hands out a fresh ``Task``
view.  A record no stream reads retires too, bytes and all, with the
next :data:`~repro.core.shard.RETIRE_BATCH` of them.  For each record
shape below, every reader must answer exactly as the ``Task`` it
replaced would have: that object, held from before the retirement, is
what the record was then.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.auth import AuthService
from repro.cli import main
from repro.core.service import FuncXService, ServiceConfig
from repro.core.shard import RETIRE_BATCH, RetiredRows
from repro.core.stream import ResultStreamServer
from repro.core.tasks import Task, TaskState, new_task_id
from repro.errors import (
    ResultPurged,
    TaskCancelled,
    TaskExecutionFailed,
    TaskNotFound,
)
from repro.fabric import LocalDeployment
from repro.monitoring import Dashboard
from repro.serialize import FuncXSerializer
from test_retention import held as held_bytes
from test_retention import retained

TTL = 100.0

#: Seconds before the result arrives at which each hop stamped it.
HOPS = {"agent_in": 0.2, "agent_out": 0.1875, "manager_in": 0.175,
        "manager_out": 0.1625, "running": 0.15, "worker_out": 0.0625}


@pytest.fixture(params=[1, 2], ids=["one-shard", "two-shards"])
def service(clock, request):
    clock.advance(1.0)  # a 0.0 stamp reads as "not stamped"
    return FuncXService(auth=AuthService(clock=clock), clock=clock,
                        config=ServiceConfig(result_ttl=TTL,
                                             shards=request.param))


@pytest.fixture
def token(service):
    identity = service.auth.register_identity("alice")
    return service.auth.native_client_flow(identity).token


@pytest.fixture
def endpoint_id(service):
    _identity, token = service.auth.endpoint_client_flow("ep")
    return service.register_endpoint(token.token, name="ep")


@pytest.fixture
def function_id(service, token):
    def double(x):
        return 2 * x

    return service.register_function(
        token, "double", FuncXSerializer().serialize_function(double),
        public=True)


class Collector:
    def __init__(self):
        self.batches = []

    def __call__(self, batch):
        self.batches.append(batch)


def submit(service, token, function_id, endpoint_id, **kwargs) -> str:
    payload = FuncXSerializer().serialize(([1], {}))
    return service.submit(token, function_id, endpoint_id, payload, **kwargs)


def dispatch(service, clock, endpoint_id, task_id) -> None:
    """Lease ``task_id`` off its queue and mark it dispatched; the
    entries ahead of it are orphans (cancelled while queued) and acked."""
    clock.advance(0.25)
    queue = service.task_queue(endpoint_id)
    leases = queue.lease_many(100)
    assert leases[-1].item == task_id
    queue.ack_many([lease.lease_id for lease in leases[:-1]])
    service.tasks_dispatched([service.task_by_id(task_id)])


def finish(service, clock, task_id, success=True, result=b"r", text=None):
    clock.advance(0.25)
    now = clock()
    stamps = {key: now - before for key, before in HOPS.items()}
    assert service.complete_task(task_id, success, result, text,
                                 HOPS["running"] - HOPS["worker_out"],
                                 stamps) is True


# -- the record shapes --------------------------------------------------------
def tiny_success(service, clock, token, function_id, endpoint_id):
    task_id = submit(service, token, function_id, endpoint_id)
    dispatch(service, clock, endpoint_id, task_id)
    finish(service, clock, task_id)
    return task_id, ResultPurged


def failed_with_text(service, clock, token, function_id, endpoint_id):
    task_id = submit(service, token, function_id, endpoint_id)
    dispatch(service, clock, endpoint_id, task_id)
    finish(service, clock, task_id, success=False, result=b"",
           text="ValueError: boom")
    return task_id, TaskExecutionFailed


def cancelled(service, clock, token, function_id, endpoint_id):
    task_id = submit(service, token, function_id, endpoint_id)
    clock.advance(0.25)
    assert service.cancel_task(token, task_id) is True
    return task_id, TaskCancelled


def memo_hit(service, clock, token, function_id, endpoint_id):
    seed = submit(service, token, function_id, endpoint_id, memoize=True)
    dispatch(service, clock, endpoint_id, seed)
    finish(service, clock, seed)
    clock.advance(0.25)
    task_id = submit(service, token, function_id, endpoint_id, memoize=True)
    assert service.task_by_id(task_id).memo_hit
    return task_id, ResultPurged


def requeued_twice(service, clock, token, function_id, endpoint_id):
    task_id = submit(service, token, function_id, endpoint_id, max_retries=3)
    for reason in ("lease timeout", "agent lost"):
        dispatch(service, clock, endpoint_id, task_id)
        clock.advance(0.25)
        assert service.requeue_tasks(endpoint_id, [task_id], reason) == [task_id]
    dispatch(service, clock, endpoint_id, task_id)
    finish(service, clock, task_id)
    task = service.task_by_id(task_id)
    assert len(task.state_times) == 12
    assert len(task.metadata["queued_times"]) == 3
    return task_id, ResultPurged


SHAPES = [tiny_success, failed_with_text, cancelled, memo_hit, requeued_twice]


def release(service, task_id) -> Task:
    """Watch ``task_id`` on a stream, deliver and ack it; returns the
    ``Task`` the shard held up to the ack, as the ack left it."""
    shard = service.shard_for_task(task_id)
    [held] = shard.get_tasks([task_id])
    sub = service.result_stream.subscribe(auto_deliver=False)
    collector = Collector()
    sub.attach(collector)
    sub.watch(task_id)
    assert service.result_stream.step() == 1
    sub.ack(collector.batches[0].delivery_id)
    [view] = shard.get_tasks([task_id])
    assert view is not held and view.result_buffer is None  # a row now
    sub.close()
    return held


def trace_text(tmp_path, capsys, record: dict) -> str:
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["trace", record["task_id"], "--input", str(path)]) == 0
    return capsys.readouterr().out


def expect_raises(call, kind):
    with pytest.raises(kind) as info:
        call()
    return str(info.value)


@pytest.fixture(params=SHAPES, ids=[shape.__name__ for shape in SHAPES])
def retired(request, service, clock, token, function_id, endpoint_id):
    """``(task_id, the Task at release, get_result's error)``."""
    task_id, error = request.param(service, clock, token, function_id,
                                   endpoint_id)
    clock.advance(0.25)
    return task_id, release(service, task_id), error


class TestReadersAnswerTheSame:
    def test_status_and_status_batch(self, service, token, retired):
        task_id, held, _error = retired
        assert service.status(token, task_id) is held.state
        assert service.status_batch(token, [task_id]) == {
            task_id: held.state.value}

    def test_task_info_and_trace(self, service, token, retired, tmp_path,
                                 capsys):
        task_id, held, _error = retired
        record = service.task_info(token, task_id)
        assert record == held.to_record()
        assert trace_text(tmp_path, capsys, record) == trace_text(
            tmp_path, capsys, held.to_record())
        view = service.task_by_id(task_id)
        assert view.breakdown() == held.breakdown()
        assert view.total_latency() == held.total_latency()
        assert view.execution_time == held.execution_time
        assert view.metadata == held.metadata
        assert view.expires_at == held.expires_at

    def test_get_result(self, service, token, retired):
        task_id, held, error = retired
        message = expect_raises(lambda: service.get_result(token, task_id),
                                error)
        if error is not ResultPurged:
            assert message == str(error(held.exception_text))
        with pytest.raises(TaskNotFound):
            service.get_result(token, new_task_id())

    def test_cancel_and_a_late_result_lose(self, service, token, retired):
        task_id, held, _error = retired
        assert service.cancel_task(token, task_id) is False
        duplicates = service.duplicate_results
        late = service.post_cancel_results
        assert service.complete_task(task_id, True, b"late") is False
        if held.state is TaskState.CANCELLED:
            assert service.post_cancel_results == late + 1
        else:
            assert service.duplicate_results == duplicates + 1
        assert service.task_info(token, task_id) == held.to_record()

    def test_requeue_acks_the_lease(self, service, endpoint_id, retired):
        task_id, _held, _error = retired
        queue = service.task_queue(endpoint_id)
        queue.lease_many(100)  # a cancelled task's orphan entry too
        assert service.requeue_tasks(endpoint_id, [task_id], "late") == []
        assert task_id not in queue.leased()

    def test_a_new_watch_delivers_the_same_message(self, service, clock,
                                                   retired):
        task_id, held, _error = retired
        sub = service.result_stream.subscribe(auto_deliver=False)
        collector = Collector()
        sub.attach(collector)
        sub.watch(task_id)
        assert service.result_stream.step() == 1
        [message] = collector.batches[0].results
        assert message == ResultStreamServer._result_message(held, clock())
        purged = service.metrics.counter("service.results_purged").value
        sub.ack(collector.batches[0].delivery_id)
        assert sub.watched == 0
        assert service.metrics.counter("service.results_purged").value == purged

    def test_a_waiter_is_called_at_once(self, service, retired):
        task_id, held, _error = retired
        seen = []
        service.shard_for_task(task_id).when_terminal(task_id, seen.extend)
        assert [task.to_record() for task in seen] == [held.to_record()]

    def test_forget(self, service, token, retired):
        task_id, _held, _error = retired
        assert service.forget_task(task_id) is True
        assert service.forget_task(task_id) is False
        with pytest.raises(TaskNotFound):
            service.status(token, task_id)
        with pytest.raises(ResultPurged):
            service.get_result(token, task_id)

    def test_expiry_and_a_retrieval_rearms(self, service, clock, token,
                                           retired):
        task_id, held, _error = retired
        expired = service.metrics.counter("service.records_expired")
        clock.advance(TTL / 2)
        with pytest.raises(Exception):
            service.get_result(token, task_id)  # re-arms the row
        clock.advance(TTL / 2 + 1)
        service.purge()  # past the first deadline only
        assert service.status(token, task_id) is held.state
        clock.advance(TTL / 2)
        before, held_records = expired.value, len(service.iter_tasks())
        assert service.purge() >= 1
        assert expired.value - before == held_records - len(service.iter_tasks())
        with pytest.raises(TaskNotFound):
            service.status(token, task_id)


def test_iterating_and_counting_sees_rows(service, clock, token, function_id,
                                          endpoint_id):
    ids = [shape(service, clock, token, function_id, endpoint_id)[0]
           for shape in SHAPES]
    held = {task_id: release(service, task_id).to_record() for task_id in ids}
    records = {task.task_id: task.to_record() for task in service.iter_tasks()}
    assert {task_id: records[task_id] for task_id in ids} == held
    counts = Dashboard(service).state_counts()
    assert counts == {state.value: sum(
        1 for record in records.values() if record["state"] == state.value)
        for state in TaskState}


def test_a_wave_of_rows_expires_in_one_sweep(service, clock, token,
                                             function_id, endpoint_id):
    ids = [tiny_success(service, clock, token, function_id, endpoint_id)[0]
           for _ in range(5)]
    for task_id in reversed(ids):  # acked out of completion order
        release(service, task_id)
    clock.advance(TTL + 1)
    assert service.purge() == 5
    assert service.iter_tasks() == []


# -- the row store on its own -------------------------------------------------
def finished_task(task_id: str, **fields) -> Task:
    task = Task(function_id="f", endpoint_id="e", task_id=task_id,
                owner_id="o", **fields)
    task.state = TaskState.SUCCESS
    task.state_times.update(received=1.0, queued=1.5, success=2.0)
    task.result_size = 3
    task.expires_at = 10.0
    return task


# Fixed uuid4s, not fresh ones, so each case keeps its name from run to run.
@pytest.mark.parametrize("task_id", [
    "538061c6-476b-4055-9fd5-0de2167de87b-s0",  # this shard's: the uuid packs
    "d945b2ad-af30-4192-a55d-d779bb3843f4-s1",  # another shard's tag
    "93067D1F-E63D-473E-912A-E4CF5221A4C6-s0",  # uppercase does not round-trip
    "hand-built",
    "1656e74f-883c-4b80-b80c-bbf6b8e4cb12",
])
def test_any_id_reads_back(task_id):
    rows = RetiredRows("-s0")
    task = finished_task(task_id)
    rows.retire([task])
    assert rows.view(task_id).to_record() == task.to_record()
    assert rows.view(task_id + "x") is None
    assert [view.task_id for view in rows.views()] == [task_id]
    assert rows.expire(9.0) == ([], 10.0)
    assert rows.expire(10.0) == ([task_id], math.inf)
    assert rows.views() == [] and rows.view(task_id) is None


def test_compaction_keeps_the_live_rows(monkeypatch):
    monkeypatch.setattr(RetiredRows, "COMPACT_AT", 4)
    rows = RetiredRows("-s0")
    tasks = [finished_task(f"{new_task_id()}-s0", attempts=i)
             for i in range(12)]
    tasks[7].exception_text = "kept aside"
    rows.retire(tasks)
    for task in tasks[:6]:
        assert rows.pop(task.task_id).to_record() == task.to_record()
    assert len(rows._state) == 6  # compacted
    assert [view.to_record() for view in rows.views()] == [
        task.to_record() for task in tasks[6:]]
    counts = {state.value: 0 for state in TaskState}
    rows.count_states(counts)
    assert counts["success"] == 6
    assert rows.expire(9.0) == ([], 10.0)


# -- records no stream reads --------------------------------------------------
def retire_unread(service, clock, token, function_id, endpoint_id,
                  task_id) -> Task:
    """Retire the unread queue ``task_id`` waits in (``RETIRE_BATCH`` is
    1) with the next terminal wave on its shard: a cancel.  Returns the
    ``Task`` the shard held up to then."""
    shard = service.shard_for_task(task_id)
    [held] = shard.get_tasks([task_id])
    clock.advance(0.25)
    service.cancel_task(token, submit(service, token, function_id,
                                      endpoint_id))
    [view] = shard.get_tasks([task_id])
    assert view is not held and view.result_buffer == held.result_buffer
    return held


def watch_and_deliver(service, task_id):
    sub = service.result_stream.subscribe(auto_deliver=False)
    collector = Collector()
    sub.attach(collector)
    sub.watch(task_id)
    assert service.result_stream.step() == 1
    return sub, collector.batches[-1]


def read(service, token, task_id, held, error):
    """``get_result`` on an unread row: the bytes it kept, or ``error``."""
    if held.result_buffer is not None:
        assert service.get_result(token, task_id) == held.result_buffer
    else:
        message = expect_raises(lambda: service.get_result(token, task_id),
                                error)
        assert message == str(error(held.exception_text))


class TestAnUnreadRowAnswersTheSame(TestReadersAnswerTheSame):
    """The readers above, on a record retired with no stream: one that
    kept result bytes hands them back until a late watch's ack."""

    @pytest.fixture(params=SHAPES, ids=[shape.__name__ for shape in SHAPES])
    def retired(self, request, monkeypatch, service, clock, token,
                function_id, endpoint_id):
        monkeypatch.setattr("repro.core.shard.RETIRE_BATCH", 1)
        task_id, error = request.param(service, clock, token, function_id,
                                       endpoint_id)
        return task_id, retire_unread(service, clock, token, function_id,
                                      endpoint_id, task_id), error

    def test_get_result(self, service, clock, token, retired):
        task_id, held, error = retired
        clock.advance(1.0)
        read(service, token, task_id, held, error)
        assert service.task_by_id(task_id).expires_at == clock() + TTL
        assert retained(service) == held_bytes(service)

    def test_a_new_watch_delivers_the_same_message(self, service, clock,
                                                   token, retired):
        task_id, held, _error = retired
        sub, batch = watch_and_deliver(service, task_id)
        [message] = batch.results
        assert message == ResultStreamServer._result_message(held, clock())
        purged = service.metrics.counter("service.results_purged").value
        sub.ack(batch.delivery_id)
        assert sub.watched == 0
        released = held.result_buffer is not None
        assert service.metrics.counter(
            "service.results_purged").value == purged + released
        assert service.task_by_id(task_id).released is released
        assert retained(service) == held_bytes(service)
        if released:
            with pytest.raises(ResultPurged):
                service.get_result(token, task_id)

    def test_expiry_and_a_retrieval_rearms(self, service, clock, token,
                                           retired):
        task_id, held, error = retired
        clock.advance(TTL / 2)
        read(service, token, task_id, held, error)  # re-arms the row
        clock.advance(TTL / 2 + 1)
        service.purge()  # past the first deadline only
        assert service.status(token, task_id) is held.state
        assert retained(service) == held_bytes(service)
        clock.advance(TTL / 2)
        assert service.purge() >= 1
        with pytest.raises(TaskNotFound):
            service.status(token, task_id)
        assert retained(service) == held_bytes(service)

    def test_forget(self, service, token, retired):
        super().test_forget(service, token, retired)
        assert retained(service) == held_bytes(service)


@pytest.fixture
def unread(monkeypatch, service, clock, token, function_id, endpoint_id):
    """A tiny success retired with no stream, holding its result bytes."""
    monkeypatch.setattr("repro.core.shard.RETIRE_BATCH", 1)
    task_id, _error = tiny_success(service, clock, token, function_id,
                                   endpoint_id)
    retire_unread(service, clock, token, function_id, endpoint_id, task_id)
    assert retained(service) == held_bytes(service) == 1
    return task_id


def test_two_late_watchers_release_on_the_second_ack(service, token, unread):
    purged = service.metrics.counter("service.results_purged")
    first, first_batch = watch_and_deliver(service, unread)
    second, second_batch = watch_and_deliver(service, unread)
    first.ack(first_batch.delivery_id)
    assert service.get_result(token, unread) == b"r"
    assert (retained(service), purged.value) == (1, 0)
    second.ack(second_batch.delivery_id)
    assert (retained(service), held_bytes(service), purged.value) == (0, 0, 1)
    with pytest.raises(ResultPurged):
        service.get_result(token, unread)


def test_a_late_watcher_that_closes_releases_nothing(service, token, unread):
    sub, _batch = watch_and_deliver(service, unread)
    sub.close()
    assert service.get_result(token, unread) == b"r"
    assert retained(service) == held_bytes(service) == 1
    assert service.metrics.counter("service.results_purged").value == 0
    # A new watch after the close is the only reader: its ack releases.
    sub, batch = watch_and_deliver(service, unread)
    sub.ack(batch.delivery_id)
    assert retained(service) == held_bytes(service) == 0


def test_a_row_with_bytes_expires_with_them(service, clock, unread):
    clock.advance(TTL + 1)
    assert service.purge() >= 1
    assert retained(service) == held_bytes(service) == 0
    assert service.metrics.counter("service.results_purged").value == 0


def test_a_row_with_bytes_is_forgotten_with_them(service, unread):
    assert service.forget_task(unread) is True
    assert retained(service) == held_bytes(service) == 0


def identity(x):
    return x


def test_serial_results_retire_in_batches_and_are_read_live(monkeypatch):
    """600 ``client.submit().result()`` tasks on one shard: each result is
    read from its live record, and the records retire ``RETIRE_BATCH``
    at a time, never one by one."""
    calls = {"retire": 0, "view": 0}
    for name in calls:
        method = getattr(RetiredRows, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(RetiredRows, name, counted)
    count = 600
    with LocalDeployment() as deployment:
        client = deployment.client()
        endpoint = deployment.create_endpoint("serial", nodes=1)
        function_id = client.register_function(identity)
        for i in range(count):
            assert client.submit(function_id, endpoint, i).result(
                timeout=30) == i
        [shard] = deployment.service.shards
        assert len(shard._unread) == count - RETIRE_BATCH * calls["retire"]
    assert calls == {"retire": math.ceil(count / RETIRE_BATCH) - 1, "view": 0}


def test_a_watch_closed_unacked_leaves_its_records_to_retire_unread(
        monkeypatch, service, clock, token, function_id, endpoint_id):
    """A finished record whose only stream reader closed without an ack
    joins the unread queue: the next ``RETIRE_BATCH`` completions retire
    it as a row, and the row keeps its result bytes for ``get_result``."""
    monkeypatch.setattr("repro.core.shard.RETIRE_BATCH", 2)
    sub = service.result_stream.subscribe(auto_deliver=False)
    collector = Collector()
    sub.attach(collector)
    watched = []
    for value in (b"first", b"second"):
        task_id = submit(service, token, function_id, endpoint_id)
        sub.watch(task_id)
        dispatch(service, clock, endpoint_id, task_id)
        finish(service, clock, task_id, result=value)
        watched.append((task_id, value))
    service.result_stream.step()
    assert sum(len(batch.results) for batch in collector.batches) == 2
    sub.close()  # delivered, never acked
    shard = service.shard_for_endpoint(endpoint_id)
    assert all(task_id in shard._tasks for task_id, _value in watched)
    for _ in range(2):  # RETIRE_BATCH more completions on that shard
        tiny_success(service, clock, token, function_id, endpoint_id)
    for task_id, value in watched:
        assert task_id not in shard._tasks  # a row now
        assert service.get_result(token, task_id) == value
    assert retained(service) == held_bytes(service)
