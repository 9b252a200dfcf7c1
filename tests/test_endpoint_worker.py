"""Unit tests for worker execution (the pure core + the thread loop)."""

from __future__ import annotations

import queue

import pytest

from repro.containers.runtime import ContainerRuntime
from repro.containers.spec import ContainerSpec
from repro.core.batch import MAP_TAG
from repro.endpoint.worker import Worker, execute_task_message
from repro.serialize import FuncXSerializer
from repro.serialize.traceback import RemoteExceptionWrapper
from repro.transport.messages import TaskMessage


SERIALIZER = FuncXSerializer()


def task_message(func, args=(), kwargs=None, task_id="t1", payload=None):
    return TaskMessage(
        sender="test",
        task_id=task_id,
        function_id=f"fn-{getattr(func, '__name__', 'anon')}",
        function_buffer=SERIALIZER.serialize_function(func),
        payload_buffer=(
            payload
            if payload is not None
            else SERIALIZER.serialize((list(args), kwargs or {}))
        ),
    )


def add(a, b=0):
    return a + b


def failing(x):
    raise RuntimeError(f"worker saw {x}")


class TestExecuteTaskMessage:
    def test_success(self):
        result = execute_task_message(task_message(add, (1,), {"b": 2}), SERIALIZER)
        assert result.success
        assert SERIALIZER.deserialize(result.result_buffer) == 3
        assert result.task_id == "t1"
        assert result.execution_time >= 0

    def test_result_routed_by_task_id(self):
        result = execute_task_message(task_message(add, (1,)), SERIALIZER)
        assert SERIALIZER.routing_tag(result.result_buffer) == "t1"

    def test_user_exception_wrapped(self):
        result = execute_task_message(task_message(failing, (9,)), SERIALIZER)
        assert not result.success
        wrapper = SERIALIZER.deserialize(result.result_buffer)
        assert isinstance(wrapper, RemoteExceptionWrapper)
        assert "worker saw 9" in wrapper.format()

    def test_each_buffer_header_is_parsed_once(self, monkeypatch):
        from repro.serialize import buffers

        parsed = []
        real = buffers._parse_header
        monkeypatch.setattr(
            buffers, "_parse_header",
            lambda buffer: parsed.append(buffer) or real(buffer))
        for message in (task_message(add, (1,)),
                        task_message(add, payload=SERIALIZER.serialize(
                            [[1], [2]], routing_tag=MAP_TAG))):
            del parsed[:]
            assert execute_task_message(message, SERIALIZER).success
            assert parsed == [message.function_buffer, message.payload_buffer]

    def test_function_cache_reused_for_same_body(self):
        cache = {}
        msg = task_message(add, (1,))
        execute_task_message(msg, SERIALIZER, function_cache=cache)
        assert "fn-add" in cache
        _digest, cached_func = cache["fn-add"]
        execute_task_message(task_message(add, (2,), task_id="t2"),
                             SERIALIZER, function_cache=cache)
        assert cache["fn-add"][1] is cached_func  # not re-deserialized

    def test_function_cache_invalidated_on_new_body(self):
        cache = {}
        execute_task_message(task_message(add, (1,)), SERIALIZER,
                             function_cache=cache)
        old_func = cache["fn-add"][1]

        updated = SERIALIZER.deserialize(SERIALIZER.serialize(lambda a, b=0: a + b + 100))
        msg2 = TaskMessage(
            sender="t", task_id="t2", function_id="fn-add",  # same id, new body
            function_buffer=SERIALIZER.serialize(updated),
            payload_buffer=SERIALIZER.serialize(([1], {})),
        )
        result = execute_task_message(msg2, SERIALIZER, function_cache=cache)
        assert result.success
        assert SERIALIZER.deserialize(result.result_buffer) == 101
        assert cache["fn-add"][1] is not old_func

    def test_map_payload_applies_per_item(self):
        payload = SERIALIZER.serialize([1, 2, 3], routing_tag=MAP_TAG)
        result = execute_task_message(
            task_message(lambda x: x * 10, payload=payload), SERIALIZER
        )
        assert SERIALIZER.deserialize(result.result_buffer) == [10, 20, 30]

    def test_corrupt_payload_is_failure_not_crash(self):
        msg = TaskMessage(
            sender="t", task_id="t3", function_id="f9",
            function_buffer=SERIALIZER.serialize_function(add),
            payload_buffer=b"not a buffer",
        )
        result = execute_task_message(msg, SERIALIZER)
        assert not result.success


class TestWorkerThread:
    def _make_worker(self):
        results: "queue.SimpleQueue" = queue.SimpleQueue()
        runtime = ContainerRuntime(seed=0)
        worker = Worker(
            worker_id="w0",
            inbox=queue.SimpleQueue(),
            finished=lambda _w, r: results.put(r),
            container=runtime.instantiate(ContainerSpec.bare()),
        )
        return worker, results

    def test_executes_and_reports(self):
        worker, results = self._make_worker()
        worker.start()
        try:
            worker.inbox.put(task_message(add, (20, ), {"b": 22}))
            result = results.get(timeout=5.0)
            assert result.worker_id == "w0"
            assert SERIALIZER.deserialize(result.result_buffer) == 42
            assert worker.tasks_executed == 1
            assert worker.container.executions == 1
        finally:
            worker.stop()

    def test_serial_execution_order(self):
        worker, results = self._make_worker()
        worker.start()
        try:
            for i in range(5):
                worker.inbox.put(task_message(add, (i,), task_id=f"t{i}"))
            got = [results.get(timeout=5.0).task_id for _ in range(5)]
            assert got == [f"t{i}" for i in range(5)]
        finally:
            worker.stop()

    def test_stop_is_idempotent(self):
        worker, _ = self._make_worker()
        worker.start()
        worker.stop()
        worker.stop()

    def test_double_start_rejected(self):
        worker, _ = self._make_worker()
        worker.start()
        try:
            with pytest.raises(RuntimeError):
                worker.start()
        finally:
            worker.stop()

    def test_failure_does_not_kill_worker(self):
        worker, results = self._make_worker()
        worker.start()
        try:
            worker.inbox.put(task_message(failing, (1,), task_id="bad"))
            worker.inbox.put(task_message(add, (1,), task_id="good"))
            first = results.get(timeout=5.0)
            second = results.get(timeout=5.0)
            assert not first.success
            assert second.success
        finally:
            worker.stop()
