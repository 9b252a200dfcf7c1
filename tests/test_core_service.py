"""Unit tests for the funcX web service (REST facade semantics)."""

from __future__ import annotations

import os

import pytest

from repro.auth import AuthService, Scope
from repro.core.service import FuncXService, ServiceConfig
from repro.core.tasks import TaskState
from repro.errors import (
    AuthorizationFailed,
    PayloadTooLarge,
    TaskExecutionFailed,
    TaskNotFound,
    TaskPending,
)
from repro.serialize import FuncXSerializer


@pytest.fixture
def service(clock):
    return FuncXService(auth=AuthService(clock=clock), clock=clock)


@pytest.fixture
def user_token(service):
    identity = service.auth.register_identity("alice")
    return service.auth.native_client_flow(identity).token


@pytest.fixture
def ep_token(service):
    _identity, token = service.auth.endpoint_client_flow("test-ep")
    return token.token


@pytest.fixture
def endpoint_id(service, ep_token):
    return service.register_endpoint(ep_token, name="test-ep")


@pytest.fixture
def function_id(service, user_token):
    serializer = FuncXSerializer()

    def double(x):
        return 2 * x

    return service.register_function(
        user_token, "double", serializer.serialize_function(double), public=True
    )


def submit_one(service, user_token, function_id, endpoint_id, **kwargs):
    payload = FuncXSerializer().serialize(([1], {}))
    return service.submit(user_token, function_id, endpoint_id, payload, **kwargs)


class TestRegistration:
    def test_register_function_returns_uuid(self, function_id):
        assert len(function_id) == 36

    def test_function_stored_in_registry(self, service, function_id):
        record = service.functions.get(function_id)
        assert record.function_buffer
        assert service.function_buffer(function_id) == record.function_buffer
        assert not hasattr(service, "store")  # no write-only mirror beside it

    def test_register_requires_scope(self, service, endpoint_id):
        identity = service.auth.register_identity("weak")
        token = service.auth.native_client_flow(identity, scopes=[Scope.MONITOR]).token
        with pytest.raises(AuthorizationFailed):
            service.register_function(token, "f", b"body")

    def test_register_endpoint_allocates_queues(self, service, endpoint_id):
        assert service.task_queue(endpoint_id) is not None

    def test_endpoint_token_cannot_execute(self, service, ep_token, function_id, endpoint_id):
        with pytest.raises(AuthorizationFailed):
            service.submit(ep_token, function_id, endpoint_id, b"")

    def test_oversized_function_rejected(self, service, user_token):
        config = service.config
        with pytest.raises(PayloadTooLarge):
            service.register_function(
                user_token, "big", b"x" * (config.payload_limit + 1)
            )

    def test_update_function_bumps_version(self, service, user_token, function_id):
        version = service.update_function(user_token, function_id, b"new body")
        assert version == 2


class TestSubmission:
    def test_submit_queues_task(self, service, user_token, function_id, endpoint_id):
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        task = service.task_by_id(task_id)
        assert task.state is TaskState.QUEUED
        assert len(service.task_queue(endpoint_id)) == 1

    def test_submit_unknown_function(self, service, user_token, endpoint_id):
        from repro.errors import FunctionNotFound

        with pytest.raises(FunctionNotFound):
            service.submit(user_token, "missing", endpoint_id, b"")

    def test_submit_unknown_endpoint(self, service, user_token, function_id):
        from repro.errors import EndpointNotFound

        with pytest.raises(EndpointNotFound):
            service.submit(user_token, function_id, "missing", b"")

    def test_oversized_payload_rejected(self, service, user_token, function_id, endpoint_id):
        with pytest.raises(PayloadTooLarge):
            service.submit(
                user_token, function_id, endpoint_id,
                b"x" * (service.config.payload_limit + 1),
            )

    def test_private_function_authorization(self, service, user_token, endpoint_id):
        owner = service.auth.register_identity("owner")
        owner_token = service.auth.native_client_flow(owner).token
        fid = service.register_function(owner_token, "priv", b"body", public=False)
        with pytest.raises(AuthorizationFailed):
            submit_one(service, user_token, fid, endpoint_id)

    def test_batch_submission(self, service, user_token, function_id,
                              endpoint_id, monkeypatch):
        payload = FuncXSerializer().serialize(([2], {}))
        reads = []
        urandom = os.urandom
        monkeypatch.setattr(os, "urandom",
                            lambda size: reads.append(size) or urandom(size))
        ids = service.submit_batch(
            user_token, [(function_id, endpoint_id, payload)] * 5
        )
        assert reads == [16 * 5]  # one syscall mints the wave's ids
        assert len(ids) == len(set(ids)) == 5
        assert len(service.task_queue(endpoint_id)) == 5

    def test_counters(self, service, user_token, function_id, endpoint_id):
        submit_one(service, user_token, function_id, endpoint_id)
        assert service.tasks_received == 1
        assert service.outstanding_tasks(endpoint_id) == 1


class TestCompletionAndResults:
    def test_complete_and_get_result(self, service, user_token, function_id, endpoint_id, clock):
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        service.tasks_dispatched([service.task_by_id(task_id)])
        result_buf = FuncXSerializer().serialize(42, routing_tag=task_id)
        service.complete_task(task_id, success=True, result_buffer=result_buf,
                              execution_time=0.5)
        assert service.status(user_token, task_id) is TaskState.SUCCESS
        assert service.get_result(user_token, task_id) == result_buf

    def test_result_before_completion_raises_pending(
        self, service, user_token, function_id, endpoint_id
    ):
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        with pytest.raises(TaskPending):
            service.get_result(user_token, task_id)

    def test_failed_task_raises(self, service, user_token, function_id, endpoint_id):
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        service.tasks_dispatched([service.task_by_id(task_id)])
        service.complete_task(task_id, success=False, exception_text="ZeroDivisionError")
        with pytest.raises(TaskExecutionFailed, match="ZeroDivisionError"):
            service.get_result(user_token, task_id)

    def test_unknown_task(self, service, user_token):
        with pytest.raises(TaskNotFound):
            service.status(user_token, "missing")

    def test_result_purged_after_ttl(self, service, user_token, function_id, endpoint_id, clock):
        config = service.config
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        service.tasks_dispatched([service.task_by_id(task_id)])
        service.complete_task(task_id, success=True, result_buffer=b"r")
        service.get_result(user_token, task_id)  # retrieval arms the TTL
        clock.advance(config.result_ttl + 1)
        assert service.purge() == 1
        assert service.iter_tasks() == []  # the record left, not a mirror
        assert service.shards[0].retained_bytes() == 0
        with pytest.raises(TaskNotFound):
            service.task_by_id(task_id)

    def test_completion_publishes(self, service, user_token, function_id, endpoint_id):
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        seen = []

        def on_event(_source, kind, fields):
            if kind == "tasks.terminal":
                seen.append(fields["tasks"])

        service.events.subscribe(on_event)
        service.tasks_dispatched([service.task_by_id(task_id)])
        service.complete_task(task_id, success=True, result_buffer=b"r")
        # one message for the wave, carrying the record itself
        assert seen == [[service.task_by_id(task_id)]]
        assert seen[0][0].state is TaskState.SUCCESS

    def test_task_info(self, service, user_token, function_id, endpoint_id):
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        info = service.task_info(user_token, task_id)
        assert info["task_id"] == task_id
        assert info["state"] == "queued"


class TestMemoization:
    def test_memo_hit_completes_immediately(
        self, service, user_token, function_id, endpoint_id
    ):
        t1 = submit_one(service, user_token, function_id, endpoint_id, memoize=True)
        service.tasks_dispatched([service.task_by_id(t1)])
        result = FuncXSerializer().serialize(2, routing_tag=t1)
        service.complete_task(t1, success=True, result_buffer=result)
        # identical function+payload: hit, never queued
        t2 = submit_one(service, user_token, function_id, endpoint_id, memoize=True)
        task2 = service.task_by_id(t2)
        assert task2.state is TaskState.SUCCESS
        assert task2.memo_hit
        assert service.memo_completions == 1

    def test_memoize_off_by_default(self, service, user_token, function_id, endpoint_id):
        t1 = submit_one(service, user_token, function_id, endpoint_id)
        service.tasks_dispatched([service.task_by_id(t1)])
        service.complete_task(t1, success=True, result_buffer=b"r")
        t2 = submit_one(service, user_token, function_id, endpoint_id)
        assert service.task_by_id(t2).state is TaskState.QUEUED

    def test_failures_not_memoized(self, service, user_token, function_id, endpoint_id):
        t1 = submit_one(service, user_token, function_id, endpoint_id, memoize=True)
        service.tasks_dispatched([service.task_by_id(t1)])
        service.complete_task(t1, success=False, exception_text="boom")
        t2 = submit_one(service, user_token, function_id, endpoint_id, memoize=True)
        assert service.task_by_id(t2).state is TaskState.QUEUED


class TestRequeue:
    def test_requeue_rolls_back_state(self, service, user_token, function_id, endpoint_id):
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        queue = service.task_queue(endpoint_id)
        queue.lease_many(1)
        service.tasks_dispatched([service.task_by_id(task_id)])
        assert service.requeue_tasks(endpoint_id, [task_id],
                                     reason="endpoint lost") == [task_id]
        task = service.task_by_id(task_id)
        assert task.state is TaskState.QUEUED
        assert task.metadata["requeue_reasons"] == ["endpoint lost"]
        assert queue.leased() == [] and len(queue) == 1  # id ready again

    def test_retry_budget_enforced(self, service, user_token, function_id, endpoint_id):
        task_id = submit_one(service, user_token, function_id, endpoint_id,
                             max_retries=1)
        queue = service.task_queue(endpoint_id)
        # attempt 1
        queue.lease_many(1)
        service.tasks_dispatched([service.task_by_id(task_id)])
        assert service.requeue_tasks(endpoint_id, [task_id], "lost") == [task_id]
        # attempt 2
        queue.lease_many(1)
        service.tasks_dispatched([service.task_by_id(task_id)])
        assert service.requeue_tasks(endpoint_id, [task_id], "lost again") == []
        task = service.task_by_id(task_id)
        assert task.state is TaskState.FAILED
        assert "retries exhausted" in task.exception_text
        assert queue.in_flight == len(queue) == 0  # settled and acked
        assert queue.conservation_delta() == 0

    def test_requeue_terminal_is_noop(self, service, user_token, function_id, endpoint_id):
        task_id = submit_one(service, user_token, function_id, endpoint_id)
        queue = service.task_queue(endpoint_id)
        queue.lease_many(1)
        service.tasks_dispatched([service.task_by_id(task_id)])
        service.complete_task(task_id, success=True, result_buffer=b"r")
        assert service.requeue_tasks(endpoint_id, [task_id], "late") == []
        assert service.task_by_id(task_id).state is TaskState.SUCCESS
        assert queue.in_flight == len(queue) == 0  # its lease acked


class TestServiceConfig:
    def test_request_overhead_applied(self, clock):
        slept = []
        service = FuncXService(
            auth=AuthService(clock=clock),
            config=ServiceConfig(request_overhead=0.05),
            clock=clock,
            sleeper=lambda s: slept.append(s),
        )
        identity = service.auth.register_identity("a")
        token = service.auth.native_client_flow(identity).token
        service.register_function(token, "f", b"body")
        assert slept == [0.05]


class TestUpdateInvalidation:
    def test_update_function_invalidates_memo_cache(
        self, service, user_token, function_id, endpoint_id
    ):
        # seed a memoized result for the old body
        t1 = submit_one(service, user_token, function_id, endpoint_id, memoize=True)
        service.tasks_dispatched([service.task_by_id(t1)])
        service.complete_task(t1, success=True, result_buffer=b"old-result")
        assert len(service.memoizer) == 1
        # updating the function must drop stale cached results
        service.update_function(user_token, function_id, b"brand new body")
        t2 = submit_one(service, user_token, function_id, endpoint_id, memoize=True)
        from repro.core.tasks import TaskState

        assert service.task_by_id(t2).state is TaskState.QUEUED  # miss, not hit
