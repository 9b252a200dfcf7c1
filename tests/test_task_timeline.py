"""A record's timeline reads the same with each state stamped once.

A state's first entry is ``state_times[state]``; ``last_<state>`` is
written only when the state is entered again, and a missing one reads as
the state's own stamp.  A record shaped the older way, with ``last_*``
for every entered state, must give every reader the same answer.
"""

from __future__ import annotations

import json

import pytest

from repro.auth import AuthService
from repro.cli import main
from repro.core.service import FuncXService
from repro.core.tasks import STAGES, Task, TaskState, stage_seconds
from repro.serialize import FuncXSerializer

#: A never-requeued task's timeline as a record kept it when every
#: service transition also stamped ``last_<state>``: twelve keys.
TWELVE_KEY_TIMELINE = {
    "received": 10.0, "queued": 10.5, "last_queued": 10.5,
    "dispatched": 11.0, "last_dispatched": 11.0,
    "agent_in": 11.125, "agent_out": 11.25,
    "manager_in": 11.5, "manager_out": 11.625,
    "running": 11.75, "worker_out": 12.75, "success": 13.0,
}

STAGE_SECONDS = {
    "service": 0.5, "forwarder.dispatch": 0.5, "agent": 0.125,
    "manager": 0.125, "worker": 1.0, "result_return": 0.25,
}


def stamped_once() -> Task:
    """The same run, stamped by ``Task.advance`` and a result's stamps."""
    task = Task(function_id="f", endpoint_id="e", task_id="t-once")
    task.state_times["received"] = 10.0
    task.advance(TaskState.QUEUED, 10.5)
    task.advance(TaskState.DISPATCHED, 11.0)
    task.advance(TaskState.SUCCESS, 13.0)
    task.state_times.update(
        (key, at) for key, at in TWELVE_KEY_TIMELINE.items()
        if key in ("agent_in", "agent_out", "manager_in", "manager_out",
                   "running", "worker_out"))
    return task


def twelve_key_record(task: Task) -> dict:
    record = task.to_record()
    record["state_times"] = dict(TWELVE_KEY_TIMELINE)
    return record


def trace_text(tmp_path, capsys, record: dict) -> str:
    path = tmp_path / f"{record['task_id']}.jsonl"
    path.write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["trace", record["task_id"], "--input", str(path)]) == 0
    return capsys.readouterr().out


class TestStampedOnce:
    def test_a_never_requeued_record_has_ten_keys_and_no_last(self):
        times = stamped_once().state_times
        assert len(times) == 10
        assert not [key for key in times if key.startswith("last_")]
        assert {key: at for key, at in TWELVE_KEY_TIMELINE.items()
                if not key.startswith("last_")} == times

    def test_stage_seconds_read_the_same(self):
        task = stamped_once()
        once = stage_seconds(task.state_times, task.state.value)
        assert once == stage_seconds(TWELVE_KEY_TIMELINE, "success")
        assert once == STAGE_SECONDS
        assert list(once) == [stage for stage, _start, _end in STAGES]

    def test_breakdown_and_total_latency_read_the_same(self):
        task = stamped_once()
        twelve = Task(function_id="f", endpoint_id="e",
                      state=TaskState.SUCCESS,
                      state_times=dict(TWELVE_KEY_TIMELINE))
        assert task.breakdown() == twelve.breakdown()
        assert task.total_latency() == twelve.total_latency() == 3.0

    def test_trace_prints_the_same(self, tmp_path, capsys):
        task = stamped_once()
        once = trace_text(tmp_path, capsys, task.to_record())
        twelve = trace_text(tmp_path, capsys, twelve_key_record(task))
        assert once == twelve
        assert "forwarder.dispatch" in once and "500.000ms" in once
        assert "(not stamped)" not in once


# ---------------------------------------------------------------------------
# through the service, under a fake clock
# ---------------------------------------------------------------------------
@pytest.fixture
def service(clock):
    return FuncXService(auth=AuthService(clock=clock), clock=clock)


@pytest.fixture
def submitted(service, clock):
    """``(endpoint_id, task_id)`` of one task queued at t=1."""
    user = service.auth.native_client_flow(
        service.auth.register_identity("alice")).token
    _identity, ep_token = service.auth.endpoint_client_flow("ep")
    endpoint_id = service.register_endpoint(ep_token.token, name="ep")
    serializer = FuncXSerializer()

    def double(x):
        return 2 * x

    function_id = service.register_function(
        user, "double", serializer.serialize_function(double), public=True)
    clock.advance(1.0)  # a 0.0 stamp reads as "not stamped"
    task_id = service.submit(user, function_id, endpoint_id,
                             serializer.serialize(([1], {})))
    return endpoint_id, task_id


def dispatch(service, endpoint_id, task_id) -> None:
    service.task_queue(endpoint_id).lease_many(1)
    service.tasks_dispatched([service.task_by_id(task_id)])


def stage_histogram(service, stage):
    return service.metrics.histogram("task.stage_seconds", stage=stage)


class TestRequeuedTimeline:
    def test_a_redispatched_record_keeps_both_last_stamps(
            self, service, clock, submitted):
        endpoint_id, task_id = submitted
        dispatch(service, endpoint_id, task_id)              # t=1
        clock.advance(1.0)
        service.requeue_tasks(endpoint_id, [task_id], "lost")  # t=2
        clock.advance(1.0)
        dispatch(service, endpoint_id, task_id)              # t=3
        clock.advance(1.0)
        service.complete_task(task_id, success=True, result_buffer=b"r")
        task = service.task_by_id(task_id)
        times = task.state_times
        assert (times["queued"], times["last_queued"]) == (1.0, 2.0)
        assert (times["dispatched"], times["last_dispatched"]) == (1.0, 3.0)
        assert task.metadata["queued_times"] == [1.0, 2.0]
        assert stage_seconds(times, task.state.value)[
            "forwarder.dispatch"] == 1.0

    def test_a_result_that_wins_after_a_requeue_has_no_negative_stage(
            self, service, clock, submitted):
        endpoint_id, task_id = submitted
        dispatch(service, endpoint_id, task_id)              # t=1
        clock.advance(1.0)
        service.requeue_tasks(endpoint_id, [task_id], "lost")  # t=2
        clock.advance(1.0)
        # The first attempt's result arrives before any redispatch.
        assert service.complete_task(task_id, success=True, result_buffer=b"r")
        task = service.task_by_id(task_id)
        seconds = stage_seconds(task.state_times, task.state.value)
        assert "forwarder.dispatch" not in seconds
        assert all(value >= 0.0 for value in seconds.values())
        assert stage_histogram(service, "forwarder.dispatch").count == 0
        assert stage_histogram(service, "service").count == 1
