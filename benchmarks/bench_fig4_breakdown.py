"""Figure 4 — funcX warm-path latency breakdown (ts, tf, te, tw).

Paper instrumentation: ts = web-service time (authenticate, store task,
queue it); tf = forwarder time (read from store, forward, write result);
te = endpoint time excluding execution; tw = function execution.

Reproduction: the live stack stamps every task at each hop onto its one
timeline (``Task.state_times``: the service's own transitions plus the
agent, manager and worker stamps the winning result carries back); we
run a stream of warm echo invocations and report the mean per-stage
time, and te's split by endpoint component from the same records.
"""

from __future__ import annotations

import numpy as np

from benchmarks.harness import ExperimentReport, quick_mode
from repro import DeploymentTimings, EndpointConfig, LocalDeployment
from repro.core.tasks import stage_seconds
from repro.workloads import echo

SERVICE_OVERHEAD_S = 0.030  # the ts model used by the Table 1 bench


def measure_breakdown(samples: int) -> dict[str, np.ndarray]:
    timings = DeploymentTimings(
        service_endpoint_latency=0.002,
        manager_latency=0.0005,
        service_overhead=SERVICE_OVERHEAD_S,
    )
    stages: dict[str, list[float]] = {
        name: [] for name in ("ts", "tf", "te", "tw",
                              "agent", "manager", "result_return")}
    with LocalDeployment(timings=timings, seed=4) as dep:
        client = dep.client()
        ep = dep.create_endpoint(
            "fig4-ep", nodes=1,
            config=EndpointConfig(workers_per_node=2, heartbeat_period=0.1),
        )
        fid = client.register_function(echo, public=True)
        client.wait_for(client.run(fid, ep, "hello-world"), timeout=30)  # warm-up
        for _ in range(samples):
            task_id = client.run(fid, ep, "hello-world")
            client.get_result(task_id, timeout=30)
            task = dep.service.task_by_id(task_id)
            breakdown = {**task.breakdown(),
                         **stage_seconds(task.state_times, task.state.value)}
            for stage in stages:
                stages[stage].append(breakdown.get(stage, 0.0))
    return {k: np.array(v) for k, v in stages.items()}


def test_fig4_latency_breakdown(benchmark):
    samples = 40 if quick_mode() else 200
    stages = benchmark.pedantic(measure_breakdown, args=(samples,), rounds=1,
                                iterations=1)

    report = ExperimentReport(
        "fig4_breakdown", "Warm-path latency breakdown per stage (ms)"
    )
    rows = []
    total = 0.0
    for stage, label in [
        ("ts", "web service (auth/store/queue)"),
        ("tf", "forwarder"),
        ("te", "endpoint (queue/dispatch)"),
        ("tw", "function execution"),
    ]:
        mean_ms = float(stages[stage].mean() * 1000)
        total += mean_ms
        rows.append([stage, label, mean_ms, float(stages[stage].std() * 1000)])
    report.rows(["stage", "component", "mean", "std"], rows)
    report.line(f"total in-fabric latency: {total:.1f} ms "
                f"(client WAN of 2x18.2 ms excluded, as in figure 4)")
    report.line()
    split = []
    for stage, label in [
        ("agent", "agent: arrived -> sent to a manager"),
        ("manager", "manager: arrived -> handed to a worker"),
        ("result_return", "worker end -> result recorded"),
    ]:
        split.append([stage, label, float(stages[stage].mean() * 1000),
                      float(stages[stage].std() * 1000)])
    report.rows(["te part", "interval", "mean", "std"], split)
    links = stages["te"].mean() - sum(
        stages[name].mean() for name in ("agent", "manager", "result_return"))
    report.line(f"rest of te (service->agent->manager->worker links): "
                f"{links * 1000:.1f} ms")
    report.note("paper finding: tw is small; ts (auth) and te (queuing/"
                "dispatch) dominate — verify the same ordering below")
    report.finish()

    ts = stages["ts"].mean()
    tf = stages["tf"].mean()
    te = stages["te"].mean()
    tw = stages["tw"].mean()
    # The worker's stamps reach the record: execution is measured, not 0.
    assert tw > 0
    # The paper's finding: execution is fast relative to system latency,
    # and ts dominates due to authentication/store work.
    assert tw < 0.25 * (ts + tf + te)
    assert ts == max(ts, tf, tw)
