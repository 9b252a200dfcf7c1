"""Tracing overhead gate: the observability fabric must stay cheap.

Every task on the live fabric now carries a trace context recording one
span per pipeline stage (the figure-4 decomposition) plus registry
counters at each hop.  This gate runs the same batch workload with
tracing on and off — interleaved A/B pairs, best-of per mode, so machine
noise hits both sides equally — and asserts tracing costs less than a
fixed per-task budget (absolute, so the gate survives the fabric itself
speeding up or slowing down).

Artifacts: ``BENCH_trace_overhead.json`` at the repo root (the per-stage
aggregate every live task exposes, plus the A/B timings) and the usual
``benchmarks/results`` text report — both written by full runs only; a
``REPRO_BENCH_QUICK=1`` run gates and prints, and writes nothing.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from benchmarks.harness import ExperimentReport, persist, quick_mode
from repro import EndpointConfig, LocalDeployment, ServiceConfig
from repro.observability.trace import STAGES, aggregate_breakdowns

RESULT_JSON = Path(__file__).resolve().parent.parent / "BENCH_trace_overhead.json"

#: Interleaved A/B pairs; best-of per mode filters scheduler noise.
PAIRS = 3
TASKS = 200
TASKS_QUICK = 60

#: Gate threshold: tracing must cost less than this per task, absolute.
#: (A relative gate breaks whenever the fabric itself gets faster: the
#: batched, event-driven dispatch path cut the untraced denominator ~5x
#: while tracing's fixed per-task cost stayed ~50 µs.)
MAX_OVERHEAD_PER_TASK = 0.25e-3


def _nop(x):
    return x


def _run_batch(tracing: bool, tasks: int) -> tuple[float, dict[str, list[float]]]:
    """Completion time for ``tasks`` trivial tasks; stage durations if traced."""
    with LocalDeployment(
            service_config=ServiceConfig(tracing=tracing)) as deployment:
        client = deployment.client()
        ep = deployment.create_endpoint(
            "overhead-ep", nodes=1,
            config=EndpointConfig(workers_per_node=4, heartbeat_period=0.2),
        )
        fid = client.register_function(_nop, public=True)
        calls = [(fid, ep, (i,), {}) for i in range(tasks)]
        start = time.perf_counter()
        task_ids = client.batch_run(calls)
        for task_id in task_ids:
            client.wait_for(task_id, timeout=60)
        elapsed = time.perf_counter() - start
        stage_durations: dict[str, list[float]] = {}
        if tracing:
            contexts = [deployment.service.traces.context_for(t)
                        for t in task_ids]
            stage_durations = aggregate_breakdowns(
                [c for c in contexts if c is not None])
    return elapsed, stage_durations


def test_trace_overhead_gate():
    tasks = TASKS_QUICK if quick_mode() else TASKS
    traced_times: list[float] = []
    untraced_times: list[float] = []
    stage_durations: dict[str, list[float]] = {}
    for _ in range(PAIRS):
        elapsed_off, _ = _run_batch(tracing=False, tasks=tasks)
        untraced_times.append(elapsed_off)
        elapsed_on, stages = _run_batch(tracing=True, tasks=tasks)
        traced_times.append(elapsed_on)
        for stage, values in stages.items():
            stage_durations.setdefault(stage, []).extend(values)

    traced = min(traced_times)
    untraced = min(untraced_times)
    overhead = traced / untraced - 1.0
    per_task = (traced - untraced) / tasks

    stage_ms = {
        stage: {
            "mean": float(np.mean(values)) * 1e3,
            "p95": float(np.percentile(values, 95)) * 1e3,
            "count": len(values),
        }
        for stage, values in stage_durations.items()
    }
    persist(RESULT_JSON, json.dumps({
        "tasks": tasks,
        "pairs": PAIRS,
        "traced_seconds": traced,
        "untraced_seconds": untraced,
        "overhead_ratio": overhead,
        "overhead_per_task_s": per_task,
        "max_overhead_per_task_s": MAX_OVERHEAD_PER_TASK,
        "stage_ms": stage_ms,
    }, indent=2, sort_keys=True) + "\n")

    report = ExperimentReport(
        "trace_overhead",
        "end-to-end tracing overhead gate (batch of trivial tasks)",
    )
    report.rows(
        ["mode", "best of", f"batch of {tasks} (s)"],
        [["untraced", PAIRS, untraced], ["traced", PAIRS, traced]],
    )
    report.line("")
    report.line(f"overhead: {per_task * 1e6:+.0f}us/task "
                f"({overhead * 100:+.2f}%; gate: "
                f"<{MAX_OVERHEAD_PER_TASK * 1e6:.0f}us/task)")
    if stage_ms:
        report.line("")
        report.rows(
            ["stage", "mean (ms)", "p95 (ms)", "spans"],
            [[s, stage_ms[s]["mean"], stage_ms[s]["p95"], stage_ms[s]["count"]]
             for s in STAGES if s in stage_ms],
        )
    report.note("interleaved A/B pairs, best-of per mode; stage rows are the "
                "figure-4 decomposition aggregated over every traced task")
    report.finish()

    # every traced task exposed the full per-stage decomposition
    for stage in STAGES:
        assert stage in stage_ms, f"no spans recorded for stage {stage}"
    assert per_task < MAX_OVERHEAD_PER_TASK, (
        f"tracing adds {per_task * 1e6:.0f}us per task "
        f"(traced {traced:.3f}s vs untraced {untraced:.3f}s for {tasks} tasks)"
    )
