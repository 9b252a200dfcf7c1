"""Tests for the observability fabric: timelines, metrics, CLI.

Unit-level coverage of :mod:`repro.observability.trace` (kept for the
repo benchmark's ``trace.span_us`` drive) and :mod:`repro.metrics.registry`
under a fake clock, plus live ``LocalDeployment`` tests asserting a
completed task's record carries every stage of its timeline.
"""

from __future__ import annotations

import json

import pytest

from repro.core.tasks import STAGES, stage_seconds
from repro.metrics.registry import MetricsRegistry, render_records
from repro.observability.trace import (
    Span,
    TraceContext,
    TraceStore,
    aggregate_breakdowns,
)


class TestTraceContext:
    def test_begin_end_records_span(self):
        ctx = TraceContext(task_id="t1", opened_at=0.0)
        ctx.begin("agent", "agent:ep", at=1.0)
        span = ctx.end("agent", at=3.5, manager="m1")
        assert span is not None
        assert span.duration == pytest.approx(2.5)
        assert span.annotations == {"manager": "m1"}
        assert ctx.breakdown() == {"agent": pytest.approx(2.5)}

    def test_end_without_begin_is_noop(self):
        ctx = TraceContext(task_id="t1")
        assert ctx.end("agent", at=1.0) is None
        assert ctx.completed_spans() == []

    def test_record_one_shot(self):
        ctx = TraceContext(task_id="t1")
        ctx.record("worker", "w0", start=2.0, end=5.0, success=True)
        [span] = ctx.completed_spans()
        assert span.name == "worker"
        assert span.duration == pytest.approx(3.0)

    def test_breakdown_uses_last_span_per_stage(self):
        # A re-executed task records "worker" twice; the attempt that
        # produced the result is the one the breakdown reports.
        ctx = TraceContext(task_id="t1")
        ctx.record("worker", "w0", start=0.0, end=1.0)
        ctx.record("worker", "w1", start=5.0, end=5.25)
        assert ctx.breakdown()["worker"] == pytest.approx(0.25)

    def test_closed_context_ignores_recording(self):
        ctx = TraceContext(task_id="t1", opened_at=0.0)
        ctx.record("service", "service", start=0.0, end=1.0)
        ctx.close(at=10.0)
        assert ctx.total() == pytest.approx(10.0)
        assert ctx.record("worker", "w0", start=11.0, end=12.0) is None
        assert ctx.begin("agent", "a", at=11.0) is None
        assert list(ctx.breakdown()) == ["service"]

    def test_round_trip_through_records(self):
        ctx = TraceContext(task_id="t1", opened_at=1.0)
        ctx.record("service", "service", start=1.0, end=2.0, memo_hit=False)
        ctx.close(at=9.0)
        restored = TraceContext.from_record(ctx.to_record())
        assert restored.trace_id == ctx.trace_id
        assert restored.task_id == "t1"
        assert restored.total() == pytest.approx(8.0)
        assert restored.breakdown() == {"service": pytest.approx(1.0)}

    def test_span_round_trip(self):
        span = Span(name="worker", component="w0", start=1.0, end=2.0,
                    attempt=2, annotations={"success": True})
        assert Span.from_record(span.to_record()) == span


class TestTraceStore:
    def test_open_and_finalize(self, clock):
        store = TraceStore(clock=clock)
        ctx = store.open("t1")
        assert ctx is store.open("t1")  # idempotent
        clock.advance(2.0)
        finalized = store.finalize("t1")
        assert finalized is ctx
        assert ctx.total() == pytest.approx(2.0)
        assert store.trace_id_for("t1") == ctx.trace_id

    def test_disabled_store_is_noop(self, clock):
        store = TraceStore(clock=clock, enabled=False)
        assert store.open("t1") is None
        assert store.context_for("t1") is None
        assert store.finalize("t1") is None
        assert store.trace_id_for("t1") is None

    def test_capacity_evicts_oldest_finalized(self, clock):
        store = TraceStore(clock=clock, capacity=2)
        store.open("t1")
        store.finalize("t1")
        store.open("t2")  # live, never evicted
        store.open("t3")
        assert store.context_for("t1") is None  # t1 was finalized -> evicted
        assert store.context_for("t2") is not None
        assert store.context_for("t3") is not None

    def test_dump_and_load_jsonl(self, clock, tmp_path):
        store = TraceStore(clock=clock)
        ctx = store.open("t1")
        ctx.record("service", "service", start=0.0, end=0.5)
        clock.advance(1.0)
        store.finalize("t1")
        path = tmp_path / "traces.jsonl"
        assert store.dump_jsonl(str(path)) == 1
        [loaded] = TraceStore.load_jsonl(str(path))
        assert loaded.trace_id == ctx.trace_id
        assert loaded.breakdown() == {"service": pytest.approx(0.5)}

    def test_aggregate_breakdowns(self):
        a = TraceContext(task_id="a")
        a.record("worker", "w0", start=0.0, end=1.0)
        b = TraceContext(task_id="b")
        b.record("worker", "w1", start=0.0, end=3.0)
        pooled = aggregate_breakdowns([a, b])
        assert pooled == {"worker": [pytest.approx(1.0), pytest.approx(3.0)]}


class TestMetricsRegistry:
    def test_counter_get_or_create_and_inc(self, clock):
        registry = MetricsRegistry(clock=clock)
        counter = registry.counter("service.tasks_received")
        counter.inc()
        counter.inc(2)
        assert registry.counter("service.tasks_received") is counter
        assert counter.value == 3
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labels_separate_instruments(self, clock):
        registry = MetricsRegistry(clock=clock)
        a = registry.counter("forwarder.tasks_forwarded", endpoint="ep-a")
        b = registry.counter("forwarder.tasks_forwarded", endpoint="ep-b")
        assert a is not b
        a.inc()
        assert registry.value("forwarder.tasks_forwarded", endpoint="ep-a") == 1
        assert registry.value("forwarder.tasks_forwarded", endpoint="ep-b") == 0

    def test_gauge_set_and_function(self, clock):
        registry = MetricsRegistry(clock=clock)
        gauge = registry.gauge("service.tasks_live")
        gauge.set(5)
        gauge.dec(2)
        assert gauge.value == 3
        backing = {"n": 7}
        gauge.set_function(lambda: backing["n"])
        assert gauge.value == 7

    def test_histogram_summary(self, clock):
        registry = MetricsRegistry(clock=clock)
        hist = registry.histogram("task.stage_seconds", stage="worker")
        for value in (0.01, 0.02, 0.03, 0.04):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(0.025)
        assert summary["min"] == pytest.approx(0.01)
        assert summary["max"] == pytest.approx(0.04)

    def test_timer_uses_injected_clock(self, clock):
        registry = MetricsRegistry(clock=clock)
        with registry.timer("step.duration"):
            clock.advance(0.5)
        hist = registry.histogram("step.duration")
        assert hist.count == 1
        assert hist.total == pytest.approx(0.5)

    def test_snapshot_render_and_jsonl(self, clock, tmp_path):
        registry = MetricsRegistry(clock=clock)
        registry.counter("a.count").inc(3)
        registry.histogram("b.seconds").observe(0.1)
        clock.advance(1.0)
        text = registry.render_text()
        assert "a.count" in text and "b.seconds" in text
        path = tmp_path / "metrics.jsonl"
        assert registry.dump_jsonl(str(path)) == 2
        records = MetricsRegistry.load_jsonl(str(path))
        assert {r["name"] for r in records} == {"a.count", "b.seconds"}
        assert all(r["at"] == pytest.approx(1.0) for r in records)
        assert "a.count" in render_records(records)


class TestLiveSpanPropagation:
    def test_completed_task_has_all_stage_spans(self):
        from repro import EndpointConfig, LocalDeployment

        def double(x):
            return 2 * x

        with LocalDeployment() as deployment:
            client = deployment.client()
            ep = deployment.create_endpoint(
                "traced-ep", config=EndpointConfig(workers_per_node=2))
            fid = client.register_function(double)
            task_id = client.run(fid, ep, 21)
            assert client.wait_for(task_id, timeout=30) == 42

            record = deployment.service.task_info(client._token(), task_id)
            seconds = stage_seconds(record["state_times"], record["state"])
            assert list(seconds) == [stage for stage, _start, _end in STAGES]
            assert all(value >= 0.0 for value in seconds.values())
            # the stage histograms fed the shared registry
            hist = deployment.metrics.histogram("task.stage_seconds",
                                                stage="worker")
            assert hist.count >= 1

    def test_a_sleeping_task_spends_its_time_in_tw(self):
        """Fig. 4: a 20 ms sleep is read as execution (``tw``), not as
        endpoint time (``te``), and the hops' stamps are in order."""
        from repro import EndpointConfig, LocalDeployment
        from repro.workloads import make_sleep_function

        with LocalDeployment() as deployment:
            client = deployment.client()
            ep = deployment.create_endpoint(
                "sleepy-ep", config=EndpointConfig(workers_per_node=2))
            fid = client.register_function(make_sleep_function(0.02))
            task_id = client.run(fid, ep)
            assert client.wait_for(task_id, timeout=30) == 0.02
            task = deployment.service.task_by_id(task_id)

        breakdown = task.breakdown()
        assert breakdown["tw"] >= 0.018
        assert breakdown["te"] < breakdown["tw"]
        times = task.state_times
        assert times["running"] <= times["success"]
        assert (times["dispatched"] <= times["agent_in"] <= times["agent_out"]
                <= times["manager_in"] <= times["manager_out"]
                <= times["running"])


class TestCli:
    def _demo_artifacts(self, tmp_path):
        from repro.cli import main

        traces = tmp_path / "traces.jsonl"
        metrics = tmp_path / "metrics.jsonl"
        rc = main(["demo", "--tasks", "4", "--workers", "2",
                   "--trace-out", str(traces), "--metrics-out", str(metrics)])
        assert rc == 0
        return traces, metrics

    def test_trace_and_metrics_subcommands(self, tmp_path, capsys):
        from repro.cli import main

        traces, metrics = self._demo_artifacts(tmp_path)
        records = [json.loads(line)
                   for line in traces.read_text(encoding="utf-8").splitlines()]
        assert records and all("state_times" in r for r in records)
        first = records[0]["task_id"]
        capsys.readouterr()

        rc = main(["trace", first[:8], "--input", str(traces)])
        out = capsys.readouterr().out
        assert rc == 0
        assert first in out
        for stage, _start, _end in STAGES:
            assert stage in out
        assert "end-to-end:" in out

        rc = main(["metrics", "--input", str(metrics)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "service.tasks_received" in out
        assert "task.stage_seconds" in out

    def test_trace_unknown_id_fails(self, tmp_path, capsys):
        from repro.cli import main

        traces, _ = self._demo_artifacts(tmp_path)
        capsys.readouterr()
        rc = main(["trace", "nonexistent-task", "--input", str(traces)])
        assert rc == 1
