"""Unit tests for the task lifecycle state machine."""

from __future__ import annotations

import uuid

import pytest

from repro.core.shard import ShardMap
from repro.core.tasks import Task, TaskState, uuid4_hex


def fresh_task(**kwargs) -> Task:
    return Task(function_id="f", endpoint_id="e", **kwargs)


class TestTransitions:
    def test_happy_path(self):
        task = fresh_task()
        task.state_times["received"] = 0.0
        task.advance(TaskState.QUEUED, 1.0)
        task.advance(TaskState.DISPATCHED, 2.0)
        task.advance(TaskState.RUNNING, 3.0)
        task.advance(TaskState.SUCCESS, 4.0)
        assert task.state is TaskState.SUCCESS
        assert task.state.terminal

    def test_illegal_transition_rejected(self):
        task = fresh_task()
        with pytest.raises(ValueError):
            task.advance(TaskState.RUNNING, 1.0)  # received -> running skips queue

    def test_terminal_states_frozen(self):
        task = fresh_task()
        task.advance(TaskState.QUEUED, 1.0)
        task.advance(TaskState.DISPATCHED, 2.0)
        task.advance(TaskState.RUNNING, 3.0)
        task.advance(TaskState.SUCCESS, 4.0)
        with pytest.raises(ValueError):
            task.advance(TaskState.QUEUED, 5.0)

    def test_requeue_from_dispatched(self):
        task = fresh_task()
        task.advance(TaskState.QUEUED, 1.0)
        task.advance(TaskState.DISPATCHED, 2.0)
        task.advance(TaskState.QUEUED, 3.0)  # endpoint lost; requeued
        assert task.state is TaskState.QUEUED

    def test_requeue_from_running(self):
        task = fresh_task()
        task.advance(TaskState.QUEUED, 1.0)
        task.advance(TaskState.DISPATCHED, 2.0)
        task.advance(TaskState.RUNNING, 3.0)
        task.advance(TaskState.QUEUED, 4.0)
        assert task.state is TaskState.QUEUED

    def test_cancel_from_queue(self):
        task = fresh_task()
        task.advance(TaskState.QUEUED, 1.0)
        task.advance(TaskState.CANCELLED, 2.0)
        assert task.state.terminal

    def test_queued_times_audit(self):
        task = fresh_task()
        task.advance(TaskState.QUEUED, 1.0)
        task.advance(TaskState.DISPATCHED, 2.0)
        task.advance(TaskState.QUEUED, 3.0)
        assert task.metadata["queued_times"] == [1.0, 3.0]


class TestLatencyAccounting:
    def _completed_task(self) -> Task:
        task = fresh_task()
        task.state_times["received"] = 10.0
        task.advance(TaskState.QUEUED, 10.5)
        task.advance(TaskState.DISPATCHED, 11.0)
        task.advance(TaskState.RUNNING, 11.2)
        task.advance(TaskState.SUCCESS, 12.2)
        return task

    def test_total_latency(self):
        assert self._completed_task().total_latency() == pytest.approx(2.2)

    def test_total_latency_incomplete_is_none(self):
        task = fresh_task()
        task.state_times["received"] = 0.0
        assert task.total_latency() is None

    def test_breakdown_stages(self):
        bd = self._completed_task().breakdown()
        assert bd["ts"] == pytest.approx(0.5)
        assert bd["tf"] == pytest.approx(0.5)
        assert bd["te"] == pytest.approx(0.2)
        assert bd["tw"] == pytest.approx(1.0)

    def test_breakdown_includes_result_return(self):
        task = self._completed_task()
        task.state_times["worker_out"] = 11.9  # the result took 0.3 s back
        assert task.breakdown()["te"] == pytest.approx(0.5)
        assert task.breakdown()["tw"] == pytest.approx(0.7)

    def test_stage_time_lookup(self):
        task = self._completed_task()
        assert task.stage_time(TaskState.RUNNING) == 11.2
        assert task.stage_time(TaskState.FAILED) is None


class TestRecordsAndRetries:
    def test_to_record_roundtrippable_fields(self):
        task = fresh_task(owner_id="alice", container_image="docker:x")
        record = task.to_record()
        assert record["function_id"] == "f"
        assert record["endpoint_id"] == "e"
        assert record["owner_id"] == "alice"
        assert record["container_image"] == "docker:x"
        assert record["state"] == "received"

    def test_unique_task_ids(self):
        assert fresh_task().task_id != fresh_task().task_id

    def test_retries_remaining(self):
        task = fresh_task(max_retries=2)
        assert task.retries_remaining == 2
        task.attempts = 1
        assert task.retries_remaining == 2
        task.attempts = 2
        assert task.retries_remaining == 1
        task.attempts = 3
        assert task.retries_remaining == 0


class TestTaskIds:
    """Ids are formatted from ``os.urandom`` without a ``uuid.UUID``: they
    must still read back as random version-4 RFC 4122 UUIDs."""

    N = 10_000

    @staticmethod
    def assert_uuid4(parsed: uuid.UUID) -> None:
        assert parsed.version == 4
        assert parsed.variant == uuid.RFC_4122

    def test_task_ids_are_uuid4_strings(self):
        ids = [fresh_task().task_id for _ in range(self.N)]
        for task_id in ids:
            parsed = uuid.UUID(task_id)
            assert str(parsed) == task_id
            self.assert_uuid4(parsed)
        assert len(set(ids)) == self.N

    def test_hex_ids_are_uuid4_hex(self):
        ids = [uuid4_hex() for _ in range(self.N)]
        for hex_id in ids:
            parsed = uuid.UUID(hex_id)
            assert parsed.hex == hex_id
            self.assert_uuid4(parsed)
        assert len(set(ids)) == self.N

    def test_shard_tag_stays_unambiguous(self):
        # The tag is found by scanning from the right for "-s".
        shards = ShardMap(4)
        for index in range(4):
            for _ in range(200):
                task_id = fresh_task().task_id
                assert "s" not in task_id
                tagged = shards.tag(task_id, index)
                assert shards.shard_for_task(tagged) == index
                assert shards.minted(tagged)
