"""Tests for the monitoring subsystem (event log + dashboard)."""

from __future__ import annotations

import time

import pytest

from repro import LocalDeployment
from repro.core.tasks import TaskState
from repro.monitoring import Dashboard, TaskEvent, TaskEventLog


class TestEventLog:
    def test_record_and_query(self, clock):
        log = TaskEventLog(clock=clock)
        log.record(TaskEvent(0.0, "t1", "queued", endpoint_id="e1"))
        clock.advance(1.0)
        log.record(TaskEvent(1.0, "t1", "success", endpoint_id="e1"))
        log.record(TaskEvent(1.0, "t2", "queued", endpoint_id="e2"))
        assert len(log) == 3
        assert len(log.events(task_id="t1")) == 2
        assert len(log.events(endpoint_id="e2")) == 1
        assert len(log.events(state="success")) == 1
        assert len(log.events(since=1.0)) == 2

    def test_capacity_bound(self, clock):
        log = TaskEventLog(capacity=5, clock=clock)
        for i in range(12):
            log.record(TaskEvent(float(i), f"t{i}", "queued"))
        assert len(log) == 5
        assert log.dropped == 7
        # oldest events were dropped
        assert log.events()[0].task_id == "t7"

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TaskEventLog(capacity=0)

    def test_completion_rate(self, clock):
        log = TaskEventLog(clock=clock)
        for i in range(10):
            log.record(TaskEvent(clock(), f"t{i}", "success"))
            clock.advance(0.1)
        assert log.completion_rate(window=2.0) == pytest.approx(5.0)

    def test_completion_rate_zero_window(self, clock):
        assert TaskEventLog(clock=clock).completion_rate(0.0) == 0.0


class TestLiveAttachment:
    def test_events_recorded_for_live_tasks(self):
        with LocalDeployment() as dep:
            log = TaskEventLog()
            log.attach(dep.service)
            client = dep.client()
            ep = dep.create_endpoint("mon-ep", nodes=1)
            fid = client.register_function(lambda x: x * 3, public=True)
            future = client.submit(fid, ep, 5)
            assert future.result(timeout=30) == 15
            events = log.events(task_id=future.task_id)
            assert [e.state for e in events] == ["success"]
            assert events[0].endpoint_id == ep
            log.detach()

    def test_double_attach_rejected(self):
        with LocalDeployment() as dep:
            log = TaskEventLog()
            log.attach(dep.service)
            with pytest.raises(RuntimeError):
                log.attach(dep.service)
            log.detach()


class TestDashboard:
    def test_state_counts_and_load(self):
        with LocalDeployment() as dep:
            client = dep.client()
            live = dep.create_endpoint("live-ep", nodes=1)
            lazy = dep.create_endpoint("lazy-ep", nodes=1, start=False)
            fid = client.register_function(lambda x: x, public=True)
            done = client.submit(fid, live, 1)
            assert done.result(timeout=30) == 1
            client.run(fid, lazy, 2)  # stays queued
            # Streamed and acked: these records are released, kept as rows.
            purged = dep.service.metrics.counter("service.results_purged")
            with client.executor(live) as executor:
                futures = [executor.submit(fid, i) for i in range(3)]
                assert [f.result(timeout=30) for f in futures] == [0, 1, 2]
            deadline = time.monotonic() + 30
            while purged.value < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert sum(task.released for task in dep.service.iter_tasks()) == 3

            dash = Dashboard(dep.service)
            counts = dash.state_counts()
            assert counts[TaskState.SUCCESS.value] == 4
            assert counts[TaskState.QUEUED.value] == 1
            assert sum(counts.values()) == 5

            load = dash.endpoint_load()
            assert load[lazy]["queued"] == 1
            assert load[live]["connected"] is True
            assert load[lazy]["connected"] is False

    def test_memoizer_stats(self):
        with LocalDeployment() as dep:
            dash = Dashboard(dep.service)
            stats = dash.memoizer_stats()
            assert stats["hit_rate"] == 0.0

    def test_render_text(self):
        with LocalDeployment() as dep:
            log = TaskEventLog()
            log.attach(dep.service)
            dep.create_endpoint("shown-ep", nodes=1)
            text = Dashboard(dep.service, log).render()
            assert "funcX dashboard" in text
            assert "shown-ep" in text
            assert "events recorded" in text
            log.detach()
